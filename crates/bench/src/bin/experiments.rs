//! The experiment harness: regenerates every table and figure of
//! *Circuits and Formulas for Datalog over Semirings* (PODS 2025).
//!
//! ```text
//! cargo run -p bench --release --bin experiments -- all
//! cargo run -p bench --release --bin experiments -- f1 t1-regular
//! ```
//!
//! Each experiment prints the paper's claim next to the measured values;
//! `EXPERIMENTS.md` records a full run.

use bench::{fitted_exponent, fmt_u128, graph_fact, ground_on_graph, normalized};
use circuit::TcStrategy;
use datalog::{programs, Exec};
use graphgen::generators;
use provcirc::{compile_graph_fact, Strategy};
use semiring::prelude::*;
use telemetry::{Counter, Stage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("f1") {
        figure1();
    }
    if want("t1-finite") {
        table1_finite();
    }
    if want("t1-regular") {
        table1_regular();
    }
    if want("t1-cfg") {
        table1_cfg();
    }
    if want("depth-dichotomy") {
        depth_dichotomy();
    }
    if want("formula-size") {
        formula_size();
    }
    if want("boundedness") {
        boundedness();
    }
    if want("chom") {
        chom();
    }
    if want("fringe") {
        fringe();
    }
    if want("reductions") {
        reductions();
    }
    if want("layered") {
        layered();
    }
    if want("stability") {
        stability();
    }
    if want("crossover") {
        crossover();
    }
    if want("seminaive") {
        seminaive();
    }
    if want("grounding") {
        grounding();
    }
    if want("parallel") {
        parallel();
    }
    if want("serving") {
        serving();
    }
    if want("incremental") {
        incremental();
    }
}

fn header(title: &str, claim: &str) {
    println!("\n== {title} ==");
    println!("   paper: {claim}");
}

/// Figure 1 + §2.4: the worked transitive-closure example.
fn figure1() {
    header(
        "F1 · Figure 1 / §2.4",
        "T(s,t) has 3 tight proof trees; p = x_{s,u1}x_{u1,v1}x_{v1,t} ⊕ x_{s,u1}x_{u1,v2}x_{v2,t} ⊕ x_{s,u2}x_{u2,v2}x_{v2,t}",
    );
    let mut g = graphgen::LabeledDigraph::new(6);
    let names = ["s→u1", "s→u2", "u1→v1", "u1→v2", "u2→v2", "v1→t", "v2→t"];
    for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)] {
        g.add_edge(u, v, "E");
    }
    let (p, db, gp) = ground_on_graph(&programs::transitive_closure(), &g);
    let fact = graph_fact(&p, &db, &gp, 0, 5).expect("T(s,t) derivable");
    let trees = datalog::tight_proof_trees(&gp, fact, 1000);
    println!("   measured: {} tight proof trees", trees.trees.len());
    let poly = datalog::provenance_polynomial(&gp, fact, 1000).unwrap();
    println!(
        "   measured provenance polynomial ({} monomials):",
        poly.len()
    );
    for m in poly.monomials() {
        let label: Vec<&str> = m.support().map(|v| names[v as usize]).collect();
        println!("     {}  [{}]", m, label.join(" · "));
    }
    // Tropical interpretation (paper §2.4): min path weight with unit
    // weights = 3.
    let c = compile_graph_fact(&p, &g, 0, 5, Strategy::Auto).unwrap();
    println!(
        "   tropical value (unit weights): {}   [paper: weight-3 shortest path]",
        c.circuit.eval(&UnitWeights::new(Tropical::new(1)))
    );
}

/// Table 1, row "finite": size O(m) / Ω(m), depth O(log n) / Ω(log n).
fn table1_finite() {
    header(
        "T1-finite · Table 1 row 1 (finite CFG: E·E·E)",
        "circuit size Θ(m), depth Θ(log n); polynomial-size formulas (Thm 5.8, Thm 5.3)",
    );
    let program = datalog::parse_program(
        "P3(X,Y) :- P2(X,Z), E(Z,Y).\nP2(X,Y) :- P1(X,Z), E(Z,Y).\nP1(X,Y) :- E(X,Y).\n@target P3",
    )
    .unwrap();
    // The Θ(m) object is the whole-query circuit (all targets at once): we
    // report the construction's shared arena. Per-fact cones are tiny —
    // that's the point of the magic rewriting. The queried target is a node
    // at distance exactly 3 so the fact is derivable.
    let mut pts_size = Vec::new();
    let mut pts_depth = Vec::new();
    println!(
        "   {:>6} {:>8} {:>12} {:>12} {:>7} {:>13} {:>11}",
        "n", "m", "arena.gates", "grounding", "depth", "arena/m", "depth/log n"
    );
    for w in [4usize, 8, 16, 32, 64] {
        // (w, 2)-layered graph: s → layer0 → layer1 → t, every s–t path has
        // exactly 3 edges and the query's 3-hop cone covers the whole input.
        let (g, s, t) = generators::layered(w, 2, 1.0, "E", 7);
        let n = g.num_nodes();
        let out = circuit::finite_rpq_circuit(&program, &g, s, t).unwrap();
        let st = circuit::stats(&out.circuit);
        let m = g.num_edges() as f64;
        pts_size.push((m, out.arena_gates as f64));
        pts_depth.push((n as f64, st.depth as f64));
        println!(
            "   {:>6} {:>8} {:>12} {:>12} {:>7} {:>13.3} {:>11.3}",
            n,
            g.num_edges(),
            out.arena_gates,
            out.grounding_size,
            st.depth,
            out.arena_gates as f64 / m,
            st.depth as f64 / (n as f64).log2()
        );
    }
    println!(
        "   fitted whole-query size exponent in m: {:.2} [paper: 1.0]   depth/log n spread: {:?}",
        fitted_exponent(&pts_size),
        normalized(&pts_depth, |x| x.log2())
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
}

/// Table 1, row "infinite regular": the two TC constructions.
fn table1_regular() {
    header(
        "T1-regular · Table 1 row 2 (infinite regular: E⁺ = TC)",
        "Bellman–Ford size O(mn), depth O(n log n) (Thm 5.6); squaring size O(n³ log n), depth Θ(log² n) (Thm 5.7, 3.4)",
    );
    println!(
        "   {:>5} {:>7} | {:>9} {:>6} {:>9} {:>12} | {:>9} {:>6} {:>14} {:>11}",
        "n",
        "m",
        "BF.gates",
        "BF.dep",
        "gates/mn",
        "dep/(n·logn)",
        "SQ.gates",
        "SQ.dep",
        "gates/(n³logn)",
        "dep/log²n"
    );
    let mut bf_depths = Vec::new();
    let mut sq_depths = Vec::new();
    for n in [8usize, 16, 32, 48] {
        let g = generators::gnm(n, 3 * n, &["E"], 11);
        let (m, nn) = (g.num_edges() as f64, n as f64);
        let (src, dst) = bench::best_long_pair(&g).expect("has edges");
        let bf = circuit::bellman_ford_graph(&g, src, dst);
        let bfs = circuit::stats(&bf);
        let sq = circuit::squaring_graph(&g).circuit_for(src, dst);
        let sqs = circuit::stats(&sq);
        bf_depths.push((nn, bfs.depth as f64));
        sq_depths.push((nn, sqs.depth as f64));
        println!(
            "   {:>5} {:>7} | {:>9} {:>6} {:>9.3} {:>12.3} | {:>9} {:>6} {:>14.4} {:>11.3}",
            n,
            g.num_edges(),
            bfs.num_gates,
            bfs.depth,
            bfs.num_gates as f64 / (m * nn),
            bfs.depth as f64 / (nn * nn.log2()),
            sqs.num_gates,
            sqs.depth,
            sqs.num_gates as f64 / (nn.powi(3) * nn.log2()),
            sqs.depth as f64 / nn.log2().powi(2),
        );
    }
    println!(
        "   fitted depth exponent: BF {:.2} [paper: ~1 (n log n)]   SQ {:.2} [paper: ~0 (polylog)]",
        fitted_exponent(&bf_depths),
        fitted_exponent(&sq_depths)
    );
}

/// Table 1, row "infinite CFG": Dyck-1 (Example 6.4).
fn table1_cfg() {
    header(
        "T1-cfg · Table 1 row 3 (infinite non-regular CFG: Dyck-1)",
        "grounded circuit: poly size, depth O(n² log n); UvG (Thm 6.2): depth Θ(log² n) since Dyck-1 has the polynomial fringe property",
    );
    println!(
        "   {:>7} {:>6} | {:>10} {:>7} | {:>10} {:>7} {:>11}",
        "pairs", "m", "GR.gates", "GR.dep", "UvG.gates", "UvG.dep", "dep/log²m"
    );
    for pairs in [2usize, 4, 6, 8] {
        let g = generators::dyck_path(pairs, 3);
        let (p, db, gp) = ground_on_graph(&programs::dyck1(), &g);
        let m = g.num_edges() as f64;
        let fact = graph_fact(&p, &db, &gp, 0, g.num_nodes() - 1).expect("balanced word");
        let gr = circuit::grounded_circuit(&gp, None).circuit_for(fact);
        let grs = circuit::stats(&gr);
        let uvg = circuit::uvg_circuit(&gp, None).circuit_for(fact);
        let us = circuit::stats(&uvg);
        assert_eq!(gr.polynomial(), uvg.polynomial(), "constructions agree");
        println!(
            "   {:>7} {:>6} | {:>10} {:>7} | {:>10} {:>7} {:>11.3}",
            pairs,
            g.num_edges(),
            grs.num_gates,
            grs.depth,
            us.num_gates,
            us.depth,
            us.depth as f64 / m.log2().powi(2),
        );
    }
}

/// Theorem 5.3: the Θ(log n) vs Θ(log² n) depth dichotomy for RPQs.
fn depth_dichotomy() {
    header(
        "E-depth-dichotomy · Theorem 5.3",
        "finite RPQ → depth Θ(log n); infinite RPQ → depth Θ(log² n); nothing in between",
    );
    let finite = datalog::parse_program(
        "P3(X,Y) :- P2(X,Z), E(Z,Y).\nP2(X,Y) :- P1(X,Z), E(Z,Y).\nP1(X,Y) :- E(X,Y).\n@target P3",
    )
    .unwrap();
    let tc = programs::transitive_closure();
    println!(
        "   {:>5} | {:>9} {:>12} | {:>9} {:>11} {:>12}",
        "n", "fin.depth", "fin/log n", "inf.depth", "inf/log n", "inf/log² n"
    );
    for n in [8usize, 16, 32, 64] {
        let g = generators::gnm(n, 3 * n, &["E"], 5);
        let (src, far) = bench::best_long_pair(&g).expect("has edges");
        let d3 = bench::target_at_distance(&g, src, 3).expect("3-hop target");
        let cf = compile_graph_fact(&finite, &g, src, d3, Strategy::Auto).unwrap();
        let ci = compile_graph_fact(&tc, &g, src, far, Strategy::Auto).unwrap();
        assert_eq!(cf.strategy, Strategy::MagicFiniteRpq);
        assert_eq!(ci.strategy, Strategy::ProductSquaring);
        let log = (n as f64).log2();
        println!(
            "   {:>5} | {:>9} {:>12.3} | {:>9} {:>11.3} {:>12.3}",
            n,
            cf.stats.depth,
            cf.stats.depth as f64 / log,
            ci.stats.depth,
            ci.stats.depth as f64 / log,
            ci.stats.depth as f64 / (log * log),
        );
    }
    println!("   reading: fin/log n flat, inf/log n grows, inf/log² n flat — the dichotomy.");
}

/// Theorems 5.4/5.10 + Prop 3.3: formula sizes.
fn formula_size() {
    header(
        "E-formula-size · Thms 5.4, 5.10, Prop 3.3",
        "finite language → polynomial-size formulas; infinite → super-polynomial (TC's best here is quasi-polynomial n^{O(log n)} from the log²-depth circuit)",
    );
    let finite = datalog::parse_program(
        "P3(X,Y) :- P2(X,Z), E(Z,Y).\nP2(X,Y) :- P1(X,Z), E(Z,Y).\nP1(X,Y) :- E(X,Y).\n@target P3",
    )
    .unwrap();
    let tc = programs::transitive_closure();
    println!(
        "   {:>5} | {:>14} {:>10} | {:>22} {:>12}",
        "n", "fin.formula", "fin.exp", "inf.formula (squaring)", "inf.exp"
    );
    let mut fin_pts = Vec::new();
    let mut inf_pts = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    for n in [8usize, 16, 32] {
        let g = generators::gnm(n, 3 * n, &["E"], 5);
        let (src, far) = bench::best_long_pair(&g).expect("has edges");
        let d3 = bench::target_at_distance(&g, src, 3).expect("3-hop target");
        let cf = compile_graph_fact(&finite, &g, src, d3, Strategy::Auto).unwrap();
        let ci = compile_graph_fact(&tc, &g, src, far, Strategy::ProductSquaring).unwrap();
        let ff = cf.stats.formula_size as f64;
        let fi = (ci.stats.formula_size.min(u128::from(u64::MAX)) as u64) as f64;
        fin_pts.push((n as f64, ff));
        inf_pts.push((n as f64, fi));
        // Point-to-point exponent (grows with n ⇒ super-polynomial).
        let (fe, ie) = match prev {
            Some((pf, pi)) => (
                (ff / pf).log2() / 2.0f64.log2().max(1.0),
                (fi / pi).log2() / 1.0,
            ),
            None => (f64::NAN, f64::NAN),
        };
        prev = Some((ff, fi));
        println!(
            "   {:>5} | {:>14} {:>10.2} | {:>22} {:>12.2}",
            n,
            fmt_u128(cf.stats.formula_size),
            fe,
            fmt_u128(ci.stats.formula_size),
            ie,
        );
    }
    println!(
        "   fitted exponents: finite {:.2} [poly, stays constant]   infinite {:.2} (and growing per step — super-polynomial signature)",
        fitted_exponent(&fin_pts),
        fitted_exponent(&inf_pts)
    );
}

/// §4: boundedness probes (Definition 4.1, Prop 5.5, Thm 4.3).
fn boundedness() {
    header(
        "E-bounded · §4 (Def 4.1, Example 4.2, Prop 5.5, Thm 4.3)",
        "bounded programs reach the fixpoint in O(1) iterations on every input and get O(log)-depth circuits; TC's iterations grow with the input",
    );
    let bounded = programs::bounded_example();
    let tc = programs::transitive_closure();
    println!(
        "   {:>5} | {:>14} {:>12} | {:>11}",
        "n", "bounded.iters", "bounded.depth", "tc.iters"
    );
    for n in [4usize, 8, 16, 32] {
        let g = generators::path(n, "E");
        // Seed A(v0) for the bounded program.
        let mut p = bounded.clone();
        let (mut db, _) = datalog::Database::from_graph(&mut p, &g);
        let a = p.preds.get("A").unwrap();
        let v0 = db.node_const(0).unwrap();
        db.insert(a, &[v0]);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let probe = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
        let mo = circuit::grounded_circuit(&gp, Some(probe.iterations));
        let t = p.preds.get("T").unwrap();
        let f = gp
            .fact(t, &[v0, db.node_const(n).unwrap()])
            .expect("derivable");
        let depth = circuit::stats(&mo.circuit_for(f)).depth;

        let (_, _, gp_tc) = ground_on_graph(&tc, &g);
        let tc_probe =
            datalog::naive_eval::<Bool, _>(&gp_tc, &AllOnes, datalog::default_budget(&gp_tc));
        println!(
            "   {:>5} | {:>14} {:>12} | {:>11}",
            n, probe.iterations, depth, tc_probe.iterations
        );
    }
    let verdict = provcirc::decide_boundedness(&tc, &Default::default());
    println!("   chain decision (Prop 5.5): TC → {:?}", verdict.verdict);
    let verdict2 = provcirc::decide_boundedness(&bounded, &Default::default());
    println!(
        "   expansion evidence (Thm 4.6): Example 4.2 → {:?}",
        verdict2.verdict
    );
}

/// §4: the Chom-class characterizations (Thm 4.6, Cor 4.7).
fn chom() {
    header(
        "E-chom · Thm 4.6 + Cor 4.7",
        "over absorptive ⊗-idempotent semirings, boundedness ⇔ Boolean boundedness; expansions absorb via homomorphisms from depth N on",
    );
    for (name, program) in [
        ("TC", programs::transitive_closure()),
        ("Example 4.2", programs::bounded_example()),
        ("monadic reachability", programs::monadic_reachability()),
        ("three hops (UCQ)", programs::three_hops()),
    ] {
        let report = provcirc::decide_boundedness(&program, &Default::default());
        println!("   {name:<22} → {:?}", report.verdict);
    }
    // Cor 4.7: iterations agree across B, Fuzzy, Bottleneck.
    let tc = programs::transitive_closure();
    let mut p = tc.clone();
    let dbs: Vec<datalog::Database> = [6usize, 10]
        .iter()
        .map(|&n| {
            let g = generators::gnm(n, 3 * n, &["E"], n as u64);
            datalog::Database::from_graph(&mut p, &g).0
        })
        .collect();
    let rows = provcirc::cross_semiring_iterations(&p, &dbs).unwrap();
    println!("   Cor 4.7 iterations (Bool, Fuzzy, Bottleneck) per input: {rows:?}  [all equal]");
}

/// §6.1: the polynomial fringe property and Theorem 6.2.
fn fringe() {
    header(
        "E-fringe · §6.1 (Def 6.1, Thm 6.2, Cor 6.3, Example 6.4)",
        "linear programs and Dyck-1 have polynomial fringe; UvG circuits reach depth O(log² m)",
    );
    println!(
        "   {:>22} {:>5} {:>11} {:>9} {:>11}",
        "program", "m", "max fringe", "UvG.dep", "dep/log² m"
    );
    for n in [3usize, 5, 7] {
        let g = generators::path(n, "E");
        let (p, db, gp) = ground_on_graph(&programs::transitive_closure(), &g);
        let f = graph_fact(&p, &db, &gp, 0, n).unwrap();
        let fringe = datalog::prooftree::max_fringe(&gp, f, 100_000).unwrap();
        let uvg = circuit::uvg_circuit(&gp, None).circuit_for(f);
        let st = circuit::stats(&uvg);
        let m = g.num_edges() as f64;
        println!(
            "   {:>22} {:>5} {:>11} {:>9} {:>11.3}",
            format!("TC path n={n}"),
            g.num_edges(),
            fringe,
            st.depth,
            st.depth as f64 / m.log2().powi(2).max(1.0)
        );
    }
    for pairs in [2usize, 3, 4] {
        let g = generators::dyck_path(pairs, 9);
        let (p, db, gp) = ground_on_graph(&programs::dyck1(), &g);
        let f = graph_fact(&p, &db, &gp, 0, g.num_nodes() - 1).unwrap();
        let fringe = datalog::prooftree::max_fringe(&gp, f, 100_000).unwrap();
        let uvg = circuit::uvg_circuit(&gp, None).circuit_for(f);
        let st = circuit::stats(&uvg);
        let m = g.num_edges() as f64;
        println!(
            "   {:>22} {:>5} {:>11} {:>9} {:>11.3}",
            format!("Dyck-1 pairs={pairs}"),
            g.num_edges(),
            fringe,
            st.depth,
            st.depth as f64 / m.log2().powi(2).max(1.0)
        );
    }
    println!(
        "   reading: fringe stays linear in m (polynomial fringe), depth/log² m stays bounded."
    );
}

/// Theorems 5.9 / 5.11: the lower-bound reductions, executed.
fn reductions() {
    header(
        "E-reduction · Thms 5.9 & 5.11",
        "expanding a layered TC instance and rewiring the program's circuit recovers the TC provenance at equal depth — transferring the Ω(log² n) bound of Thm 3.4",
    );
    // Regular reduction: a b* c.
    let re = grammar::Regex::parse("a b* c").unwrap();
    let mut alphabet = grammar::Alphabet::new();
    let dfa = grammar::Dfa::compile(&re, &mut alphabet);
    let pumping = grammar::RegularPumping::from_dfa(&dfa).unwrap();
    let (g, s, t) = generators::layered(3, 3, 0.7, "E", 1);
    let inst = circuit::tc_to_rpq(&g, s, t, &pumping, &|t| alphabet.name(t).to_owned());
    let mut eg = inst.graph.clone();
    let dfa2 = grammar::Dfa::compile(&re, &mut eg.alphabet);
    let big = circuit::rpq_circuit(&eg, &dfa2, inst.src, inst.dst, TcStrategy::RepeatedSquaring);
    let rewired = inst.rewire(&big);
    let (p, db, gp) = ground_on_graph(&programs::transitive_closure(), &g);
    let expect = graph_fact(&p, &db, &gp, s as usize, t as usize)
        .map(|f| datalog::provenance_eval(&gp, datalog::default_budget(&gp)).values[f].clone())
        .unwrap_or_default();
    println!(
        "   Thm 5.9 (a b* c): expanded m={} (from {}), rewired == TC provenance: {}",
        inst.graph.num_edges(),
        g.num_edges(),
        rewired.polynomial() == expect
    );
    println!(
        "     depth: program circuit {} → rewired {} (depth-preserving)",
        circuit::stats(&big).depth,
        circuit::stats(&rewired).depth
    );

    // CFG reduction: Dyck-1.
    let cnf = grammar::Cnf::from_cfg(&grammar::Cfg::dyck1());
    let analysis = grammar::CfgAnalysis::new(&cnf);
    let cpump = grammar::CfgPumping::from_cnf(&cnf, &analysis).unwrap();
    let names = cnf.alphabet.clone();
    let inst2 = circuit::tc_to_cfg(&g, s, t, 4, &cpump, &|t| names.name(t).to_owned()).unwrap();
    let (p2, db2, gp2) = ground_on_graph(&programs::dyck1(), &inst2.graph);
    let fact2 = graph_fact(&p2, &db2, &gp2, inst2.src as usize, inst2.dst as usize);
    match fact2 {
        Some(f) => {
            let big2 = circuit::grounded_circuit(&gp2, None).circuit_for(f);
            let rewired2 = inst2.rewire(&big2);
            println!(
                "   Thm 5.11 (Dyck-1): expanded m={} — rewired == TC provenance: {}",
                inst2.graph.num_edges(),
                rewired2.polynomial() == expect
            );
        }
        None => println!(
            "   Thm 5.11 (Dyck-1): expanded fact underivable (TC provenance empty: {})",
            expect.is_empty()
        ),
    }
}

/// Naive vs semi-naive fixpoint evaluation — the perf-trajectory
/// experiment behind `BENCH_seminaive.json`.
fn seminaive() {
    header(
        "E-seminaive · naive vs semi-naive evaluation",
        "semi-naive re-fires each grounded rule O(#changes) times instead of O(rounds × rules): ≥2× on TC over gnm graphs",
    );
    let tc = programs::transitive_closure();
    let unit = UnitWeights::new(Tropical::new(1));
    let mut rows: Vec<String> = Vec::new();
    let mut checked_speedup = None;
    println!(
        "   {:>5} {:>6} {:>9} {:>10} {:>10} | {:>10} {:>10} {:>8} | {:>7} {:>8}",
        "n",
        "m",
        "facts",
        "rules",
        "ground_ms",
        "naive_ms",
        "semi_ms",
        "speedup",
        "n.iters",
        "s.rounds"
    );
    for (n, m) in [(50usize, 200usize), (100, 400), (200, 800)] {
        let g = generators::gnm(n, m, &["E"], 13);
        let (ground_ms, (_, _, gp)) = bench::time_best_ms(1, || ground_on_graph(&tc, &g));
        let budget = datalog::default_budget(&gp);
        let (naive, nout) =
            bench::time_stats_ms(5, || datalog::naive_eval::<Tropical, _>(&gp, &unit, budget));
        let (semi, sout) = bench::time_stats_ms(5, || {
            datalog::semi_naive_eval::<Tropical, _>(&gp, &unit, budget)
        });
        let (naive_ms, semi_ms) = (naive.best_ms, semi.best_ms);
        assert!(nout.converged && sout.converged, "both must converge");
        assert_eq!(nout.values, sout.values, "strategies must agree");
        let speedup = naive_ms / semi_ms;
        if (n, m) == (200, 800) {
            checked_speedup = Some(speedup);
        }
        println!(
            "   {:>5} {:>6} {:>9} {:>10} {:>10.1} | {:>10.2} {:>10.2} {:>7.2}x | {:>7} {:>8}",
            n,
            m,
            gp.num_idb_facts(),
            gp.rules.len(),
            ground_ms,
            naive_ms,
            semi_ms,
            speedup,
            nout.iterations,
            sout.iterations,
        );
        rows.push(format!(
            "{{\"n\": {n}, \"m\": {m}, \"idb_facts\": {}, \"grounded_rules\": {}, \
             \"ground_ms\": {ground_ms:.3}, \"naive_ms\": {naive_ms:.3}, \
             \"naive_mean_ms\": {:.3}, \"seminaive_ms\": {semi_ms:.3}, \
             \"seminaive_mean_ms\": {:.3}, \"samples\": {}, \
             \"speedup\": {speedup:.3}, \
             \"naive_iters\": {}, \"seminaive_rounds\": {}}}",
            gp.num_idb_facts(),
            gp.rules.len(),
            naive.mean_ms,
            semi.mean_ms,
            naive.samples,
            nout.iterations,
            sout.iterations,
        ));
    }
    // Per-stage wall-clock of the same workload through the full Engine
    // pipeline on the largest row, recorded by the telemetry layer — the
    // committed trajectory shows where the milliseconds go, not just the
    // eval total.
    let engine = provcirc::Engine::builder()
        .program_text("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).")
        .graph(&generators::gnm(200, 800, &["E"], 13))
        .telemetry(true)
        .build()
        .expect("engine builds");
    engine.classification();
    let (bs, bt) = bench::best_long_pair(engine.graph().expect("graph session")).expect("edges");
    engine
        .node_query(bs, bt)
        .and_then(|q| q.eval::<Tropical, _>(&unit))
        .expect("eval converges");
    let report = engine.metrics_report();
    let stage_ms: Vec<String> = report
        .stages
        .iter()
        .map(|s| format!("\"{}\": {:.3}", s.stage.name(), s.total_nanos as f64 / 1e6))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"naive_vs_seminaive\",\n  \"program\": \"transitive_closure\",\n  \
         \"semiring\": \"tropical, unit weights\",\n  \"timer\": \"best of 5\",\n  \
         \"stage_ms\": {{{}}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        stage_ms.join(", "),
        rows.join(",\n    ")
    );
    match std::fs::write("BENCH_seminaive.json", &json) {
        Ok(()) => println!("   trajectory written to BENCH_seminaive.json"),
        Err(e) => println!("   could not write BENCH_seminaive.json: {e}"),
    }
    let speedup = checked_speedup.expect("gnm(200,800) row ran");
    println!("   reading: gnm(200,800) speedup {speedup:.2}x [target: ≥ 2x]");
    // Regression guard, deliberately below the 2x target: shared CI
    // runners time noisily, and a flaky smoke job is worse than a slightly
    // loose tripwire (the committed trajectory records the real number).
    assert!(
        speedup >= 1.5,
        "semi-naive speedup collapsed on gnm(200,800): {speedup:.2}x"
    );
}

/// Materialize-then-eval, the rule and fact stores it retains, and the
/// demand-driven (magic-set) cone size — the perf-trajectory experiment
/// behind `BENCH_grounding.json`.
fn grounding() {
    header(
        "E-grounding · materialize-then-eval and the magic cone",
        "one-pass grounding records each grounding once into a CSR rule store and the semi-naive fixpoint runs over it; a magic-set point query grounds <10% of the full program",
    );
    let tc = programs::transitive_closure();
    let unit = UnitWeights::new(Tropical::new(1));
    let mut rows: Vec<String> = Vec::new();
    let mut headline = None;
    println!(
        "   {:>5} {:>6} {:>9} {:>10} | {:>10} {:>9} {:>8} | {:>11} {:>8}",
        "n", "m", "facts", "rules", "mat_ms", "csr_KiB", "B/fact", "magic_rules", "cone%"
    );
    // The large row (15.4M rules) adds minutes, so it is opt-in
    // (`GROUNDING_LARGE=1`) and the CI smoke gates on the mid-size rows
    // only.
    let mut sizes: Vec<(usize, usize, usize)> =
        vec![(200, 800, 3), (500, 2_000, 3), (1_000, 4_000, 3)];
    if std::env::var("GROUNDING_LARGE").is_ok() {
        sizes.push((2_000, 8_000, 2));
    } else {
        println!("   (gnm(2000,8000) row skipped — set GROUNDING_LARGE=1 to run it)");
    }
    for (n, m, runs) in sizes {
        let g = generators::gnm(n, m, &["E"], 13);
        let mut p = tc.clone();
        let (db, _) = datalog::Database::from_graph(&mut p, &g);

        // Materialize the grounded-rule store, then run the semi-naive
        // fixpoint over it — the session pipeline, timed end-to-end
        // (grounding included, as a query session pays it).
        let (mat, (gp, mout)) = bench::time_stats_ms(runs, || {
            let gp = datalog::ground(&p, &db, &Exec::default()).expect("grounding");
            let out =
                datalog::semi_naive_eval::<Tropical, _>(&gp, &unit, datalog::default_budget(&gp));
            (gp, out)
        });
        assert!(mout.converged, "materialize-then-eval must converge");
        // What the retained rule store costs: the CSR store vs the same
        // rules as boxed per-rule structs; and what the flat fact store
        // costs per derivable fact, and for the database's EDB facts.
        let csr_bytes = gp.rules.heap_bytes();
        let boxed_bytes = gp.rules.boxed_bytes_equivalent();
        let fact_bytes = gp.fact_heap_bytes();
        let per_fact = fact_bytes as f64 / gp.num_idb_facts() as f64;
        let edb_bytes = db.heap_bytes();

        // Demand-driven: one bound-source point query grounds only the
        // magic cone — monadic facts from the source, not all n² pairs.
        let t = p.preds.get("T").expect("TC target");
        let goal = [
            db.node_const(0).expect("v0"),
            db.node_const(n - 1).expect("v(n-1)"),
        ];
        let magic = datalog::magic_point_eval::<Tropical, _>(
            &p,
            &db,
            t,
            &goal,
            &unit,
            None,
            &telemetry::NOOP,
        )
        .expect("eligible TC goal")
        .expect("left-linear chain");
        let want = gp
            .fact(t, &goal)
            .map_or(Tropical::infinity(), |f| mout.values[f]);
        assert_eq!(magic.value, want, "magic and materialized answers agree");
        let cone = magic.grounded_rules as f64 / gp.rules.len() as f64;

        if (n, m) == (1_000, 4_000) {
            headline = Some(cone);
        }
        println!(
            "   {:>5} {:>6} {:>9} {:>10} | {:>10.1} {:>9.1} {:>8.1} | {:>11} {:>7.2}%",
            n,
            m,
            gp.num_idb_facts(),
            gp.rules.len(),
            mat.best_ms,
            csr_bytes as f64 / 1024.0,
            per_fact,
            magic.grounded_rules,
            cone * 100.0,
        );
        rows.push(format!(
            "{{\"n\": {n}, \"m\": {m}, \"idb_facts\": {}, \"grounded_rules\": {}, \
             \"materialize_eval_ms\": {:.3}, \"materialize_eval_mean_ms\": {:.3}, \"samples\": {}, \
             \"csr_retained_bytes\": {csr_bytes}, \"boxed_equivalent_bytes\": {boxed_bytes}, \
             \"fact_store_bytes\": {fact_bytes}, \"fact_store_bytes_per_fact\": {per_fact:.1}, \
             \"edb_store_bytes\": {edb_bytes}, \"magic_cone_rules\": {}, \"magic_cone_fraction\": {cone:.5}}}",
            gp.num_idb_facts(),
            gp.rules.len(),
            mat.best_ms,
            mat.mean_ms,
            mat.samples,
            magic.grounded_rules,
        ));
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"grounding\",\n  \"program\": \"transitive_closure\",\n  \
         \"semiring\": \"tropical, unit weights\",\n  \"timer\": \"best of 3 (2 for gnm(2000,8000)), end-to-end (ground + eval)\",\n  \
         \"cores\": {cores},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    match std::fs::write("BENCH_grounding.json", &json) {
        Ok(()) => println!("   trajectory written to BENCH_grounding.json"),
        Err(e) => println!("   could not write BENCH_grounding.json: {e}"),
    }
    let cone = headline.expect("gnm(1000,4000) row ran");
    println!(
        "   reading: gnm(1000,4000) magic cone {:.2}% [target: < 10%]",
        cone * 100.0
    );
    assert!(
        cone < 0.10,
        "magic cone grew to {:.2}% of the full grounding",
        cone * 100.0
    );
}

/// Thread scaling of what runs in parallel — grounding's work-stealing
/// join enumeration — next to the (sequential) `Engine::fixpoint` at each
/// `parallelism`: the perf-trajectory experiment behind
/// `BENCH_parallel.json`.
fn parallel() {
    header(
        "E-parallel · work-stealing join enumeration",
        "grounding shards its joins across workers that steal straggler chunks; results are reassembled in task order, so groundings and fixpoint outcomes stay bit-identical at every thread count",
    );
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("   available cores: {cores}");
    let tc = programs::transitive_closure();
    let unit = UnitWeights::new(Tropical::new(1));
    let thread_counts = [1usize, 2, 4];
    let mut rows: Vec<String> = Vec::new();
    let mut shard_rows: Vec<String> = Vec::new();
    println!(
        "   {:>5} {:>6} {:>9} {:>9} {:>2} | {:>9} {:>7} | {:>7} {:>7}",
        "n", "m", "facts", "rules", "t", "ground_ms", "g.spd", "fix_ms", "x.spd"
    );
    for (n, m) in [(500usize, 2000usize), (1000, 4000)] {
        let g = generators::gnm(n, m, &["E"], 13);
        let mut p = tc.clone();
        let (db, _) = datalog::Database::from_graph(&mut p, &g);
        let mut base: Option<(f64, f64)> = None;
        let mut reference: Option<datalog::GroundedProgram> = None;
        let mut fix_reference: Option<datalog::EvalOutcome<Tropical>> = None;
        for &t in &thread_counts {
            let exec = Exec {
                threads: t,
                ..Default::default()
            };
            let (ground, gp) = bench::time_stats_ms(3, || datalog::ground(&p, &db, &exec).unwrap());
            // Determinism gate: the sharded grounding must be
            // bit-identical to the 1-thread one.
            match &reference {
                None => reference = Some(gp),
                Some(g1) => {
                    assert!(
                        g1.idb_facts().eq(gp.idb_facts()),
                        "parallel grounding FactId drift"
                    );
                    assert_eq!(g1.rules, gp.rules, "parallel grounding rule drift");
                }
            }
            // The fixpoint is sequential at every `parallelism`: time it on
            // a telemetry-enabled session (grounding cached first) and
            // require the full outcome to match the 1-thread one.
            let engine = provcirc::Engine::builder()
                .program(tc.clone())
                .graph(&g)
                .parallelism(t)
                .telemetry(true)
                .build()
                .expect("engine builds");
            let (facts, rules) = {
                let gp = engine.grounding().expect("grounds");
                (gp.num_idb_facts(), gp.rules.len())
            };
            let (fix, out) = bench::time_stats_ms(3, || {
                engine.fixpoint::<Tropical, _>(&unit).expect("fixpoint")
            });
            assert!(out.converged, "fixpoint must converge");
            match &fix_reference {
                None => fix_reference = Some(out),
                Some(o1) => assert_eq!(*o1, out, "fixpoint outcome drift at parallelism {t}"),
            }
            let report = engine.metrics_report();
            let (ground1, fix1) = *base.get_or_insert((ground.best_ms, fix.best_ms));
            let (g_spd, x_spd) = (ground1 / ground.best_ms, fix1 / fix.best_ms);
            println!(
                "   {n:>5} {m:>6} {facts:>9} {rules:>9} {t:>2} | {:>9.1} {g_spd:>6.2}x | {:>7.2} {x_spd:>6.2}x",
                ground.best_ms, fix.best_ms,
            );
            rows.push(format!(
                "{{\"n\": {n}, \"m\": {m}, \"idb_facts\": {facts}, \"grounded_rules\": {rules}, \
                 \"threads\": {t}, \"ground_ms\": {:.3}, \"ground_mean_ms\": {:.3}, \
                 \"ground_speedup\": {g_spd:.3}, \"fixpoint_ms\": {:.3}, \"fixpoint_mean_ms\": {:.3}, \
                 \"fixpoint_speedup\": {x_spd:.3}, \"samples\": {}, \
                 \"stage_ms\": {{\"ground_phase1\": {:.3}, \"eval\": {:.3}}}, \
                 \"ground_merge_ms\": {:.3}, \"rule_firings\": {}}}",
                ground.best_ms,
                ground.mean_ms,
                fix.best_ms,
                fix.mean_ms,
                ground.samples,
                report.stage_total_ms(Stage::GroundPhase1),
                report.stage_total_ms(Stage::Eval) / fix.samples as f64,
                engine.metrics().counter_value(Counter::GroundMergeNanos) as f64 / 1e6,
                engine.metrics().counter_value(Counter::RuleFirings) / fix.samples as u64,
            ));
            // Per-worker shard statistics of the largest instance at the
            // host's own core count: how the grounding divided its work.
            if (n, m) == (1000, 4000) && t == 2 {
                shard_rows = report
                    .shards
                    .iter()
                    .map(|((stage, worker), a)| {
                        format!(
                            "{{\"stage\": \"{}\", \"worker\": {worker}, \"calls\": {}, \
                             \"busy_ms\": {:.3}, \"tasks\": {}, \"produced\": {}, \
                             \"steals\": {}}}",
                            stage.name(),
                            a.calls,
                            a.busy_nanos as f64 / 1e6,
                            a.tasks,
                            a.produced,
                            a.steals,
                        )
                    })
                    .collect();
            }
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"parallel_joins\",\n  \"program\": \"transitive_closure\",\n  \
         \"semiring\": \"tropical, unit weights\",\n  \
         \"timer\": \"best and mean of 3 per stage; stage_ms from the engine's telemetry\",\n  \
         \"cores\": {cores},\n  \"agree\": true,\n  \"shards_2threads\": [\n    {}\n  ],\n  \
         \"rows\": [\n    {}\n  ]\n}}\n",
        shard_rows.join(",\n    "),
        rows.join(",\n    ")
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("   trajectory written to BENCH_parallel.json"),
        Err(e) => println!("   could not write BENCH_parallel.json: {e}"),
    }
    println!(
        "   reading: groundings and fixpoint outcomes agree at every thread \
         count; the fixpoint runs the same sequential code at each parallelism"
    );
}

/// Engine-as-a-service: serving throughput of the session server — the
/// perf-trajectory experiment behind `BENCH_serving.json`.
///
/// One resident session holds the frozen grounding; clients hammer it with
/// transitive-closure queries over the wire. Two effects are measured:
/// worker-pool scaling (more connections answered concurrently, each
/// reader on its own `Arc<Engine>` snapshot) and batch amortization (a
/// `BATCH` of same-semiring queries pays for ONE fixpoint instead of one
/// per query). Every query carries the same `VALUATION perfact` weight
/// table; the session never caches a perfact fixpoint, so each single
/// query pays its own fixpoint and each batch pays one.
fn serving() {
    use server::client::Client;
    use server::{Server, ServerConfig};
    use std::collections::BTreeSet;
    use std::time::Instant;

    header(
        "E-serving · engine-as-a-service throughput",
        "ground once, serve forever: snapshot readers share one frozen grounding; BATCH amortizes one fixpoint across N same-semiring queries",
    );
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("   available cores: {cores}");

    // Workload: transitive closure on gnm(60,240); goals are edge
    // endpoints, so every query is derivable and actually evaluates.
    let g = generators::gnm(60, 240, &["E"], 13);
    let fact_lines: Vec<String> = g
        .edges()
        .iter()
        .map(|&(u, v, _)| format!("E n{u} n{v}"))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let goals: Vec<(u32, u32)> = {
        let mut seen = BTreeSet::new();
        g.edges()
            .iter()
            .filter(|&&(u, v, _)| seen.insert((u, v)))
            .map(|&(u, v, _)| (u, v))
            .take(32)
            .collect()
    };
    let query_line =
        |&(u, v): &(u32, u32)| format!("QUERY T n{u} n{v} SEMIRING tropical VALUATION perfact");
    // The one WEIGHT line every query carries (a perfact valuation is
    // never cached, so no query is answered from the session's cache).
    let weight_line = format!("WEIGHT E n{} n{} 2", goals[0].0, goals[0].1);
    let weights = [weight_line.as_str()];
    const SINGLES_PER_CLIENT: usize = 32;
    const BATCHES_PER_CLIENT: usize = 2;
    let batch_payload: Vec<String> = goals
        .iter()
        .flat_map(|goal| [query_line(goal), weight_line.clone()])
        .collect();
    let batch_size = goals.len();

    let worker_counts = [1usize, 4, 8];
    let mut rows: Vec<String> = Vec::new();
    let mut single_qps_by_workers: Vec<(usize, f64)> = Vec::new();
    let mut amortization_at_1 = 0.0f64;
    println!(
        "   {:>7} {:>7} | {:>8} {:>10} {:>10} | {:>8} {:>10} {:>10} | {:>6}",
        "workers",
        "clients",
        "queries",
        "single_s",
        "single_qps",
        "queries",
        "batch_s",
        "batch_qps",
        "amort"
    );
    for &workers in &worker_counts {
        let handle = Server::bind(ServerConfig::default().addr("127.0.0.1:0").workers(workers))
            .expect("server binds");
        let addr = handle.addr();

        // One admin connection sets up the shared session: program + facts
        // ground exactly once; every client attaches to the same snapshot.
        let mut admin = Client::connect(addr).expect("admin connects");
        let open = admin.roundtrip("SESSION OPEN").expect("session opens");
        let sid: u64 = open
            .strip_prefix("OK SESSION ")
            .expect("OK SESSION reply")
            .parse()
            .expect("session id");
        let program = ["T(X,Y) :- E(X,Y).", "T(X,Y) :- T(X,Z), E(Z,Y)."];
        assert!(
            admin
                .send_block("LOAD PROGRAM", &program)
                .expect("program loads")
                .is_ok(),
            "LOAD PROGRAM accepted"
        );
        let fact_refs: Vec<&str> = fact_lines.iter().map(String::as_str).collect();
        assert!(
            admin
                .send_block("LOAD FACTS", &fact_refs)
                .expect("facts load")
                .is_ok(),
            "LOAD FACTS accepted"
        );
        // Warm the snapshot (grounding + classification) outside the timer.
        let warm = admin
            .send_block(&query_line(&goals[0]), &weights)
            .expect("warm query")
            .status;
        assert!(warm.starts_with("OK VALUE"), "warm query answers: {warm}");
        // Release the admin's worker before timing: a thread-per-connection
        // pool dedicates one worker per live connection, and at 1 worker an
        // idle admin would starve every benchmark client (the session
        // itself stays resident in the registry).
        let _ = admin.roundtrip("QUIT");
        drop(admin);

        let clients = workers;
        let attach = format!("SESSION ATTACH {sid}");

        // Mode 1: one-at-a-time queries, each paying its own fixpoint.
        let single_total = clients * SINGLES_PER_CLIENT;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let attach = &attach;
                let goals = &goals;
                let query_line = &query_line;
                let weights = &weights;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    assert!(
                        client
                            .roundtrip(attach)
                            .expect("attach")
                            .starts_with("OK SESSION"),
                        "client attaches"
                    );
                    for q in 0..SINGLES_PER_CLIENT {
                        let goal = &goals[(c + q) % goals.len()];
                        let reply = client
                            .send_block(&query_line(goal), weights)
                            .expect("query")
                            .status;
                        assert!(reply.starts_with("OK VALUE"), "query answers: {reply}");
                    }
                });
            }
        });
        let single_s = start.elapsed().as_secs_f64();
        let single_qps = single_total as f64 / single_s;

        // Mode 2: the same queries in BATCH frames — one group (same
        // semiring and weight table), so one fixpoint per frame.
        let batch_total = clients * BATCHES_PER_CLIENT * batch_size;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let attach = &attach;
                let batch_payload = &batch_payload;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    assert!(
                        client
                            .roundtrip(attach)
                            .expect("attach")
                            .starts_with("OK SESSION"),
                        "client attaches"
                    );
                    let payload: Vec<&str> = batch_payload.iter().map(String::as_str).collect();
                    for _ in 0..BATCHES_PER_CLIENT {
                        let reply = client.send_block("BATCH", &payload).expect("batch");
                        assert!(reply.is_ok(), "batch answers: {}", reply.status);
                        assert_eq!(reply.body.len(), batch_size, "one row per item");
                        for row in &reply.body {
                            assert!(
                                row.split_ascii_whitespace().nth(1) == Some("OK"),
                                "batch row ok: {row}"
                            );
                        }
                    }
                });
            }
        });
        let batch_s = start.elapsed().as_secs_f64();
        let batch_qps = batch_total as f64 / batch_s;
        let amortization = batch_qps / single_qps;

        handle.shutdown();
        handle.wait().expect("server drains");

        if workers == 1 {
            amortization_at_1 = amortization;
        }
        single_qps_by_workers.push((workers, single_qps));
        println!(
            "   {workers:>7} {clients:>7} | {single_total:>8} {single_s:>10.3} {single_qps:>10.1} | {batch_total:>8} {batch_s:>10.3} {batch_qps:>10.1} | {amortization:>5.1}x"
        );
        rows.push(format!(
            "{{\"workers\": {workers}, \"clients\": {clients},              \"single_queries\": {single_total}, \"single_s\": {single_s:.4},              \"single_qps\": {single_qps:.1}, \"batch_queries\": {batch_total},              \"batch_s\": {batch_s:.4}, \"batch_qps\": {batch_qps:.1},              \"amortization\": {amortization:.2}}}"
        ));
    }

    let bulk_load = serving_bulk_load();
    let json = format!(
        "{{\n  \"experiment\": \"serving\",\n  \"program\": \"transitive_closure\",\n           \"semiring\": \"tropical, perfact weights (never cached)\",\n           \"workload\": \"gnm(60,240); {SINGLES_PER_CLIENT} single queries/client;          {BATCHES_PER_CLIENT} batches of {batch_size}/client; clients = workers\",\n           \"cores\": {cores},\n  \"batch_size\": {batch_size},\n  \"rows\": [\n    {}\n  ],\n  \"bulk_load\": [\n    {bulk_load}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    match std::fs::write("BENCH_serving.json", &json) {
        Ok(()) => println!("   trajectory written to BENCH_serving.json"),
        Err(e) => println!("   could not write BENCH_serving.json: {e}"),
    }

    println!(
        "   reading: batch amortization {amortization_at_1:.1}x at 1 worker          [one fixpoint per batch group vs one per query]"
    );
    // Amortization is algorithmic (fixpoints skipped, not cores added), so
    // it must show on any host. Worker scaling needs physical cores: gate
    // only on ≥4, and loosely — this is a smoke tripwire, the committed
    // trajectory records the real curve.
    assert!(
        amortization_at_1 >= 1.2,
        "batch amortization collapsed: {amortization_at_1:.2}x at 1 worker"
    );
    if cores >= 4 {
        let qps1 = single_qps_by_workers[0].1;
        let qps4 = single_qps_by_workers[1].1;
        assert!(
            qps4 >= qps1,
            "4 workers slower than 1 on {cores} cores: {qps4:.1} vs {qps1:.1} qps"
        );
    }
}

/// The bulk-load row of `BENCH_serving.json`: over the wire, `LOAD FACTS`
/// of a 400-edge batch onto a TC session of 1,600 edges whose tropical
/// fixpoint is cached, then the next read of that fixpoint. The edges are
/// gnm(400,2000) in generation order: the first 1,600 are the base, the
/// rest the batch. Each repetition runs on a fresh server; the row
/// reports the median and minimum of each timing, and the read must
/// answer like a session that loaded all 2,000 edges at once.
fn serving_bulk_load() -> String {
    use server::client::Client;
    use server::{Server, ServerConfig};
    use std::time::Instant;

    const BASE: usize = 1600;
    const REPS: usize = 5;
    let g = generators::gnm(400, 2000, &["E"], 29);
    let lines: Vec<String> = g
        .edges()
        .iter()
        .map(|&(u, v, _)| format!("E n{u} n{v}"))
        .collect();
    let (base, batch) = lines.split_at(BASE);
    let goal = {
        let (u, _, _) = g.edges()[0];
        let (_, v, _) = g.edges()[lines.len() - 1];
        format!("QUERY T n{u} n{v} SEMIRING tropical VALUATION unit:1")
    };
    let program = ["T(X,Y) :- E(X,Y).", "T(X,Y) :- T(X,Z), E(Z,Y)."];
    // One fresh server session with `loads` applied in order, each load
    // followed by the goal; returns the per-load and per-read times
    // and the last answer.
    let session = |loads: &[&[String]]| -> (Vec<f64>, Vec<f64>, String) {
        let handle = Server::bind(ServerConfig::default().addr("127.0.0.1:0").workers(1))
            .expect("server binds");
        let mut c = Client::connect(handle.addr()).expect("client connects");
        c.roundtrip("SESSION OPEN").expect("session opens");
        assert!(c
            .send_block("LOAD PROGRAM", &program)
            .expect("program")
            .is_ok());
        let (mut load_ms, mut read_ms, mut answer) = (Vec::new(), Vec::new(), String::new());
        for facts in loads {
            let facts: Vec<&str> = facts.iter().map(String::as_str).collect();
            let t = Instant::now();
            assert!(c.send_block("LOAD FACTS", &facts).expect("facts").is_ok());
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            answer = c.roundtrip(&goal).expect("read");
            read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(
                answer.starts_with("OK VALUE"),
                "bulk-load read answers: {answer}"
            );
        }
        let _ = c.roundtrip("QUIT");
        handle.shutdown();
        handle.wait().expect("server drains");
        (load_ms, read_ms, answer)
    };
    let (_, _, want) = session(&[&lines]);
    let (mut load_ms, mut read_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (loads, reads, got) = session(&[base, batch]);
        assert_eq!(
            got, want,
            "the bulk load answers like one load of every edge"
        );
        load_ms.push(loads[1]);
        read_ms.push(reads[1]);
    }
    let stats = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        (xs[xs.len() / 2], xs[0])
    };
    let (load_med, load_min) = stats(&mut load_ms);
    let (read_med, read_min) = stats(&mut read_ms);
    println!(
        "   bulk load: {} edges onto {BASE} with a cached tropical fixpoint: \
         load {load_med:.1} ms (min {load_min:.1}), next read {read_med:.2} ms (min {read_min:.2}), median of {REPS}",
        batch.len()
    );
    format!(
        "{{\"build\": \"this tree\", \"base_edges\": {BASE}, \"batch_edges\": {},              \"reps\": {REPS}, \"load_ms\": {load_med:.1}, \"load_ms_min\": {load_min:.1},              \"read_ms\": {read_med:.2}, \"read_ms_min\": {read_min:.2}}}",
        batch.len()
    )
}

/// Incremental maintenance: cost-per-update of insert/retract against the
/// resident engine vs re-grounding + re-evaluating from scratch — the
/// perf-trajectory experiment behind `BENCH_incremental.json`.
///
/// Each update is *complete*: the grounding is maintained in place
/// (`Engine::insert_fact` / `retract_fact`) **and** the tropical fixpoint
/// is repaired (`MaintainedFixpoint`), so the per-update cost is what a
/// serving write actually pays. The baseline is what a non-incremental
/// engine pays per update: one full grounding plus one full semi-naive
/// fixpoint.
fn incremental() {
    use incremental::MaintainedFixpoint;
    use std::time::Instant;

    header(
        "E-incremental · insert/retract maintenance vs re-grounding",
        "a single-fact delta touches O(|cone|) rules, not O(|grounding|): maintained updates beat full recompute by orders of magnitude on TC",
    );
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("   available cores: {cores}");
    let tc = programs::transitive_closure();
    let unit = UnitWeights::new(Tropical::new(1));
    const UPDATES: usize = 24;
    const BATCH: usize = 8;
    let mut rows: Vec<String> = Vec::new();
    let mut smoke_500: Option<f64> = None; // batched-insert speedup on the small row
    let mut headline_1k: Option<(f64, f64)> = None; // (full_ms, single-insert per-update)
    println!(
        "   {:>5} {:>6} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8}",
        "n",
        "m",
        "rules",
        "full_ms",
        "ins1_ms",
        "insB_ms",
        "del1_ms",
        "delB_ms",
        "ins1.spd",
        "insB.spd"
    );
    for (n, m) in [(500usize, 2000usize), (1000, 4000)] {
        let g = generators::gnm(n, m, &["E"], 13);
        // A pool of fresh edges absent from g, spread across the node
        // space so the deltas are not all local to one vertex.
        let existing: std::collections::BTreeSet<(u32, u32)> =
            g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        let mut pool: Vec<(usize, usize)> = Vec::new();
        let mut i = 1usize;
        while pool.len() < 2 * UPDATES {
            let (u, v) = ((i * 37) % n, (i * 53 + 11) % n);
            if u != v && !existing.contains(&(u as u32, v as u32)) && !pool.contains(&(u, v)) {
                pool.push((u, v));
            }
            i += 1;
        }
        let singles = &pool[..UPDATES];
        let batched = &pool[UPDATES..];

        // Baseline: one full re-ground + semi-naive fixpoint — the price a
        // non-incremental engine pays for EVERY update.
        let mut p = tc.clone();
        let (db, _) = datalog::Database::from_graph(&mut p, &g);
        let (full_ms, _) = bench::time_best_ms(3, || {
            let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
            datalog::semi_naive_eval::<Tropical, _>(&gp, &unit, datalog::default_budget(&gp))
        });

        // Resident engine + maintained fixpoint, warmed outside the timers.
        let warm = |engine: &provcirc::Engine| {
            let gp = engine.grounding().expect("grounds");
            MaintainedFixpoint::start(&datalog::semi_naive_eval::<Tropical, _>(
                gp,
                &unit,
                engine.budget().expect("budget"),
            ))
        };
        let build = || {
            provcirc::Engine::builder()
                .program(tc.clone())
                .graph(&g)
                .build()
                .expect("engine builds")
        };
        let edge_name = |&(u, v): &(usize, usize)| (format!("v{u}"), format!("v{v}"));

        // Mode 1: single-fact inserts, then single-fact retracts.
        let mut engine = build();
        let mut mf = warm(&engine);
        let rules0 = engine.grounding().unwrap().rules.len();
        let t0 = Instant::now();
        for e in singles {
            let (su, sv) = edge_name(e);
            let out = engine.insert_fact("E", &[&su, &sv]).expect("insert");
            let budget = engine.budget().expect("budget");
            let gp = engine.grounding().expect("maintained grounding");
            mf.apply_insert(gp, &unit, out.base_rules, budget, &telemetry::Noop);
        }
        let ins1_ms = t0.elapsed().as_secs_f64() * 1e3 / UPDATES as f64;
        // Exactness spot-check: the maintained values equal a from-scratch
        // fixpoint over the maintained grounding.
        let check = datalog::semi_naive_eval::<Tropical, _>(engine.grounding().unwrap(), &unit, {
            engine.budget().unwrap()
        });
        assert_eq!(check.values, *mf.values(), "insert maintenance drifted");
        let t0 = Instant::now();
        for e in singles {
            let (su, sv) = edge_name(e);
            let out = engine.retract_fact("E", &[&su, &sv]).expect("retract");
            let budget = engine.budget().expect("budget");
            let gp = engine.grounding().expect("maintained grounding");
            mf.apply_retract(gp, &unit, &out.roots, budget, &telemetry::Noop);
        }
        let del1_ms = t0.elapsed().as_secs_f64() * 1e3 / UPDATES as f64;
        let check = datalog::semi_naive_eval::<Tropical, _>(engine.grounding().unwrap(), &unit, {
            engine.budget().unwrap()
        });
        assert_eq!(check.values, *mf.values(), "retract maintenance drifted");
        let report = engine.metrics_report();
        assert_eq!(report.cache.groundings, 1, "updates must not reground");

        // Mode 2: the same volume in batches of `BATCH` facts.
        let mut engine = build();
        let mut mf = warm(&engine);
        let t0 = Instant::now();
        for chunk in batched.chunks(BATCH) {
            let named: Vec<(String, String)> = chunk.iter().map(edge_name).collect();
            let facts: Vec<(&str, Vec<&str>)> = named
                .iter()
                .map(|(u, v)| ("E", vec![u.as_str(), v.as_str()]))
                .collect();
            let facts: Vec<(&str, &[&str])> =
                facts.iter().map(|(p, t)| (*p, t.as_slice())).collect();
            let out = engine.insert_facts(&facts).expect("batch insert");
            let budget = engine.budget().expect("budget");
            let gp = engine.grounding().expect("maintained grounding");
            mf.apply_insert(gp, &unit, out.base_rules, budget, &telemetry::Noop);
        }
        let ins_b_ms = t0.elapsed().as_secs_f64() * 1e3 / UPDATES as f64;
        let t0 = Instant::now();
        for chunk in batched.chunks(BATCH) {
            let named: Vec<(String, String)> = chunk.iter().map(edge_name).collect();
            let facts: Vec<(&str, Vec<&str>)> = named
                .iter()
                .map(|(u, v)| ("E", vec![u.as_str(), v.as_str()]))
                .collect();
            let facts: Vec<(&str, &[&str])> =
                facts.iter().map(|(p, t)| (*p, t.as_slice())).collect();
            let out = engine.retract_facts(&facts).expect("batch retract");
            let budget = engine.budget().expect("budget");
            let gp = engine.grounding().expect("maintained grounding");
            mf.apply_retract(gp, &unit, &out.roots, budget, &telemetry::Noop);
        }
        let del_b_ms = t0.elapsed().as_secs_f64() * 1e3 / UPDATES as f64;
        let check = datalog::semi_naive_eval::<Tropical, _>(engine.grounding().unwrap(), &unit, {
            engine.budget().unwrap()
        });
        assert_eq!(check.values, *mf.values(), "batched maintenance drifted");

        let (spd1, spd_b) = (full_ms / ins1_ms, full_ms / ins_b_ms);
        if (n, m) == (500, 2000) {
            smoke_500 = Some(spd_b);
        }
        if (n, m) == (1000, 4000) {
            headline_1k = Some((full_ms, ins1_ms));
        }
        println!(
            "   {n:>5} {m:>6} {rules0:>9} {full_ms:>9.2} | {ins1_ms:>9.3} {ins_b_ms:>9.3} {del1_ms:>9.3} {del_b_ms:>9.3} | {spd1:>7.1}x {spd_b:>7.1}x"
        );
        rows.push(format!(
            "{{\"n\": {n}, \"m\": {m}, \"grounded_rules\": {rules0}, \
             \"updates\": {UPDATES}, \"batch_size\": {BATCH}, \
             \"full_ms\": {full_ms:.3}, \
             \"insert_single_ms\": {ins1_ms:.4}, \"insert_batched_ms\": {ins_b_ms:.4}, \
             \"retract_single_ms\": {del1_ms:.4}, \"retract_batched_ms\": {del_b_ms:.4}, \
             \"speedup_insert_single\": {spd1:.1}, \"speedup_insert_batched\": {spd_b:.1}}}"
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"incremental_maintenance\",\n  \
         \"program\": \"transitive_closure\",\n  \
         \"semiring\": \"tropical, unit weights\",\n  \
         \"workload\": \"per-update = maintained grounding + maintained fixpoint; \
         baseline = full ground + semi-naive eval (best of 3)\",\n  \
         \"cores\": {cores},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    match std::fs::write("BENCH_incremental.json", &json) {
        Ok(()) => println!("   trajectory written to BENCH_incremental.json"),
        Err(e) => println!("   could not write BENCH_incremental.json: {e}"),
    }
    let (full_1k, ins1_1k) = headline_1k.expect("gnm(1000,4000) row ran");
    println!(
        "   reading: gnm(1000,4000) single-fact insert {ins1_1k:.3}ms/update vs full recompute \
         {full_1k:.2}ms [target: maintained < full]"
    );
    // CI smoke gates. The batched gate is deliberately far below the
    // measured margin (typically 100x+): a noisy shared runner must not
    // flake, and the committed trajectory records the real number.
    assert!(
        full_1k > ins1_1k,
        "single-fact insert no cheaper than full recompute on gnm(1000,4000)"
    );
    let smoke = smoke_500.expect("gnm(500,2000) row ran");
    assert!(
        smoke >= 5.0,
        "batched insert must be ≥5x a full recompute on gnm(500,2000): {smoke:.1}x"
    );
}

/// Theorem 3.5: the layered graph *is* the circuit.
fn layered() {
    header(
        "E-layered · Thm 3.5 (and the Thm 3.4 contrast)",
        "st-connectivity provenance on a layered graph: linear-size, linear-depth circuits (while *depth-optimal* circuits need Θ(log² n), Thm 3.4)",
    );
    println!(
        "   {:>6} {:>8} {:>9} {:>7} {:>9} {:>12}",
        "width", "layers", "gates", "depth", "gates/m", "sq.depth"
    );
    for (w, l) in [(3usize, 4usize), (4, 8), (5, 16), (6, 32)] {
        let (g, s, t) = generators::layered(w, l, 0.8, "E", 2);
        let c = circuit::dag_path_circuit_graph(&g, s, t).unwrap();
        let st = circuit::stats(&c);
        let sq = circuit::squaring_graph(&g).circuit_for(s, t);
        let sq_depth = circuit::stats(&sq).depth;
        // Compare through the tropical semiring: the Sorp polynomial has
        // exponentially many monomials on wide layered graphs.
        let wt = from_fn(|e: u32| Tropical::new((e as u64 % 7) + 1));
        assert!(c.eval(&wt).sr_eq(&sq.eval(&wt)));
        println!(
            "   {:>6} {:>8} {:>9} {:>7} {:>9.3} {:>12}",
            w,
            l,
            st.num_gates,
            st.depth,
            st.num_gates as f64 / g.num_edges() as f64,
            sq_depth,
        );
    }
    println!("   reading: Thm 3.5 linear size & linear depth; squaring trades a size blow-up for polylog depth.");
}

/// §2.3: p-stability and convergence.
fn stability() {
    header(
        "E-stability · §2.3 (p-stable semirings)",
        "absorptive = 0-stable (converges); Trop_k is (k-1)-stable (converges later); counting is not p-stable (diverges on cycles)",
    );
    let tc = programs::transitive_closure();
    println!(
        "   {:>5} | {:>10} {:>10} {:>10} {:>12}",
        "n", "Bool", "Trop", "Trop_3", "Counting"
    );
    for n in [3usize, 5, 8] {
        let g = generators::cycle(n, "E");
        let (_, _, gp) = ground_on_graph(&tc, &g);
        let budget = datalog::default_budget(&gp).max(120);
        let b = datalog::naive_eval::<Bool, _>(&gp, &AllOnes, budget);
        let t =
            datalog::naive_eval::<Tropical, _>(&gp, &UnitWeights::new(Tropical::new(1)), budget);
        let t3 =
            datalog::naive_eval::<TropK<3>, _>(&gp, &UnitWeights::new(TropK::single(1)), budget);
        let c = datalog::naive_eval::<Counting, _>(&gp, &UnitWeights::new(Counting::new(1)), 120);
        let show = |iters: usize, conv: bool| {
            if conv {
                format!("{iters} it")
            } else {
                "diverges".to_owned()
            }
        };
        println!(
            "   {:>5} | {:>10} {:>10} {:>10} {:>12}",
            n,
            show(b.iterations, b.converged),
            show(t.iterations, t.converged),
            show(t3.iterations, t3.converged),
            show(c.iterations, c.converged),
        );
    }
}

/// Thm 5.6 vs Thm 5.7: the size/depth trade-off across densities.
fn crossover() {
    header(
        "E-crossover · Thm 5.6 vs Thm 5.7",
        "Bellman–Ford never loses on size (O(mn) ≤ O(n³ log n)) but pays Θ(n log n) depth; squaring pays a log-factor in size on dense graphs to win exponentially in depth",
    );
    println!(
        "   {:>5} {:>9} | {:>10} {:>7} | {:>10} {:>7} | {:>10} {:>10}",
        "n", "density", "BF.gates", "BF.dep", "SQ.gates", "SQ.dep", "size ratio", "depth ratio"
    );
    for n in [12usize, 24] {
        for (dname, m) in [("sparse", 2 * n), ("dense", n * (n - 1) / 2)] {
            let g = generators::gnm(n, m, &["E"], 17);
            let (src, dst) = bench::best_long_pair(&g).expect("has edges");
            let bf = circuit::stats(&circuit::bellman_ford_graph(&g, src, dst));
            let sq = circuit::stats(&circuit::squaring_graph(&g).circuit_for(src, dst));
            println!(
                "   {:>5} {:>9} | {:>10} {:>7} | {:>10} {:>7} | {:>10.2} {:>10.2}",
                n,
                dname,
                bf.num_gates,
                bf.depth,
                sq.num_gates,
                sq.depth,
                sq.num_gates as f64 / bf.num_gates as f64,
                bf.depth as f64 / sq.depth as f64,
            );
        }
    }
    println!("   reading: the parallelization dividend (depth ratio) grows with n; the size premium stays a polylog factor on dense inputs.");
}

/// The committed `BENCH_seminaive.json` must record the tentpole's ≥2x
/// speedup on the gnm(200,800)-scale row, and `BENCH_parallel.json` must
/// record value-agreement plus — when measured on a host with ≥4 physical
/// cores — a ≥2.5x 4-thread speedup on the gnm(2000,8000) row.
#[cfg(test)]
mod tests {
    /// Extract a numeric JSON field from a flat `"key": value` line.
    fn field(line: &str, key: &str) -> f64 {
        line.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|s| s.split(&[',', '}', '\n'][..]).next())
            .unwrap_or_else(|| panic!("field {key} present in {line}"))
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("field {key} parses in {line}"))
    }

    #[test]
    fn committed_trajectory_meets_speedup_target() {
        let json = include_str!("../../../../BENCH_seminaive.json");
        let row = json
            .lines()
            .find(|l| l.contains("\"n\": 200"))
            .expect("gnm(200,800) row present");
        let speedup = field(row, "speedup");
        assert!(speedup >= 2.0, "committed trajectory records {speedup}x");
    }

    #[test]
    fn committed_parallel_trajectory_is_coherent() {
        let json = include_str!("../../../../BENCH_parallel.json");
        assert!(
            json.contains("\"agree\": true"),
            "parallel runs must record agreement with 1 thread"
        );
        let cores = field(
            json.lines()
                .find(|l| l.contains("\"cores\":"))
                .expect("cores recorded"),
            "cores",
        ) as usize;
        assert!(cores >= 1, "cores field must record the measuring host");
        // Every size carries a row per thread count, each with sane
        // per-stage timings and the telemetry stage breakdown.
        for n in [500, 1000] {
            for t in [1, 2, 4] {
                let row = json
                    .lines()
                    .find(|l| {
                        l.contains(&format!("\"n\": {n},"))
                            && l.contains(&format!("\"threads\": {t},"))
                    })
                    .unwrap_or_else(|| panic!("row n={n} threads={t} present"));
                for key in ["ground_speedup", "fixpoint_speedup"] {
                    assert!(field(row, key) > 0.0, "n={n} t={t}: {key}");
                }
                assert!(row.contains("\"stage_ms\":"), "n={n} t={t}: stage_ms");
            }
        }
        // The schema carries the scheduler's per-worker stealing
        // attribution.
        let shard = json
            .lines()
            .find(|l| l.contains("\"steals\":"))
            .expect("per-worker shard rows carry steal counts");
        assert!(field(shard, "steals") >= 0.0);
    }

    #[test]
    fn committed_incremental_trajectory_is_coherent() {
        let json = include_str!("../../../../BENCH_incremental.json");
        // The honest-hardware field the acceptance bar asks for.
        let cores = field(
            json.lines()
                .find(|l| l.contains("\"cores\":"))
                .expect("cores recorded"),
            "cores",
        ) as usize;
        assert!(cores >= 1, "cores field must record the measuring host");
        // The tentpole's headline: maintained single-fact inserts beat a
        // full re-ground + re-eval per update on gnm(1000,4000) TC. This
        // is algorithmic (O(cone) vs O(grounding) work), so it holds on
        // any host — no core gate.
        let row = json
            .lines()
            .find(|l| l.contains("\"n\": 1000"))
            .expect("gnm(1000,4000) row present");
        let (full, single) = (field(row, "full_ms"), field(row, "insert_single_ms"));
        assert!(
            single < full,
            "committed trajectory records single-insert {single}ms vs full {full}ms"
        );
        // Batched amortization holds with margin on the small row too.
        let small = json
            .lines()
            .find(|l| l.contains("\"n\": 500"))
            .expect("gnm(500,2000) row present");
        assert!(field(small, "speedup_insert_batched") >= 5.0);
        for key in [
            "retract_single_ms",
            "retract_batched_ms",
            "insert_batched_ms",
        ] {
            assert!(field(row, key) > 0.0, "{key} recorded");
        }
    }

    #[test]
    fn committed_serving_trajectory_is_coherent() {
        let json = include_str!("../../../../BENCH_serving.json");
        let cores = field(
            json.lines()
                .find(|l| l.contains("\"cores\":"))
                .expect("cores recorded"),
            "cores",
        ) as usize;
        let row = |workers: usize| {
            json.lines()
                .find(|l| l.contains(&format!("\"workers\": {workers},")))
                .unwrap_or_else(|| panic!("{workers}-worker row present"))
                .to_owned()
        };
        // Batch amortization is algorithmic — one fixpoint per frame group
        // instead of one per query — so it must hold on any host.
        for workers in [1usize, 4, 8] {
            let r = row(workers);
            assert!(
                field(&r, "amortization") >= 1.2,
                "batch amortization collapsed in the {workers}-worker row"
            );
            assert!(field(&r, "single_qps") > 0.0 && field(&r, "batch_qps") > 0.0);
        }
        // The bulk-load row records both timings of every build it lists.
        let bulk: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"base_edges\":"))
            .collect();
        assert!(!bulk.is_empty(), "bulk-load row present");
        for r in bulk {
            assert!(
                field(r, "load_ms") > 0.0 && field(r, "read_ms") >= 0.0,
                "{r}"
            );
        }
        // Worker-pool throughput scaling needs physical cores; the
        // trajectory records the host's count so the gate arms exactly
        // when it is meaningful (a 1-core container time-slices workers).
        if cores >= 4 {
            assert!(
                field(&row(4), "single_qps") >= field(&row(1), "single_qps"),
                "committed serving trajectory lost throughput going 1 → 4 workers on {cores} cores"
            );
        }
    }
}
