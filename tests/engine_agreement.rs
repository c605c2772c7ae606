//! Cross-semiring agreement through the `Engine` facade: on the paper's
//! Figure 1 graph, `engine.query(…).eval::<S>(…)` must match both direct
//! `Circuit::eval` of the compiled circuit and `naive_eval` over the same
//! grounded program — for `Bool`, `Tropical`, `Counting` (the instance is a
//! DAG, so counting converges), and `Sorp` — plus property tests that the
//! semi-naive and naive fixpoints compute identical values on random `gnm`
//! graphs, that the **parallel** pipeline is indistinguishable from the
//! sequential one (bit-identical `par_ground`, and the full `EvalOutcome`
//! of `Engine::fixpoint` equal at `parallelism(1)` and `parallelism(4)`),
//! and
//! that `TropK` satisfies the semiring laws at its boundary parameters
//! (`K = 1`, duplicate weights, `u64::MAX` saturation).

use datalog_circuits::datalog::{self, programs};
use datalog_circuits::graphgen::{generators, LabeledDigraph};
use datalog_circuits::provcirc::prelude::*;
use datalog_circuits::semiring::{prelude::*, properties};
// Selective import: proptest's prelude would shadow `provcirc::Strategy`
// with its generator trait of the same name.
use proptest::{
    any, collection, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig,
    Strategy as PropStrategy, TestCaseError,
};

/// The paper's Figure 1 graph: s=0, u1=1, u2=2, v1=3, v2=4, t=5. Acyclic.
fn figure1() -> LabeledDigraph {
    let mut g = LabeledDigraph::new(6);
    for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)] {
        g.add_edge(u, v, "E");
    }
    g
}

fn figure1_engine() -> Engine {
    Engine::builder()
        .program(programs::transitive_closure())
        .graph(&figure1())
        .build()
        .unwrap()
}

/// Facade evaluation ≡ compiled-circuit evaluation ≡ naive evaluation of
/// the identical grounding, for every node pair and semiring.
fn assert_agreement<S: Semiring, V: Valuation<S>>(engine: &Engine, valuation: &V) {
    let gp = engine.grounding().unwrap();
    let naive = datalog::naive_eval::<S, _>(gp, valuation, datalog::default_budget(gp));
    assert!(naive.converged, "{} must converge on Figure 1", S::NAME);
    for src in 0..6u32 {
        for dst in 0..6u32 {
            let q = engine.node_query(src, dst).unwrap();
            let via_engine: S = q.eval(valuation).unwrap();
            let via_circuit: S = q
                .circuit(Strategy::GroundedFixpoint)
                .unwrap()
                .circuit
                .eval(valuation);
            let via_naive = match q.fact_index().unwrap() {
                Some(f) => naive.values[f].clone(),
                None => S::zero(),
            };
            assert!(
                via_engine.sr_eq(&via_circuit),
                "{} ({src},{dst}): engine {via_engine:?} vs circuit {via_circuit:?}",
                S::NAME
            );
            assert!(
                via_engine.sr_eq(&via_naive),
                "{} ({src},{dst}): engine {via_engine:?} vs naive {via_naive:?}",
                S::NAME
            );
        }
    }
}

#[test]
fn bool_agreement_on_figure1() {
    assert_agreement::<Bool, _>(&figure1_engine(), &AllOnes);
}

#[test]
fn tropical_agreement_on_figure1() {
    let engine = figure1_engine();
    assert_agreement::<Tropical, _>(&engine, &UnitWeights::new(Tropical::new(1)));
    // Distinct edge weights through the session's edge-fact alignment.
    let weighted =
        FromEdgeWeights::from_fn(engine.edge_facts(), |i| Tropical::new(i as u64 % 4 + 1));
    assert_agreement::<Tropical, _>(&engine, &weighted);
}

#[test]
fn counting_agreement_on_figure1() {
    // Figure 1 is a DAG, so path counting converges: s→t has 3 paths.
    let engine = figure1_engine();
    assert_agreement::<Counting, _>(&engine, &AllOnes);
    let st: Counting = engine.node_query(0, 5).unwrap().eval(&AllOnes).unwrap();
    assert_eq!(st, Counting::new(3));
}

#[test]
fn sorp_agreement_on_figure1() {
    let engine = figure1_engine();
    assert_agreement::<Sorp, _>(&engine, &VarTags);
    // The facade's provenance accessor is the same polynomial.
    for (src, dst) in [(0u32, 5u32), (1, 5), (0, 4)] {
        let q = engine.node_query(src, dst).unwrap();
        let via_eval: Sorp = q.eval(&VarTags).unwrap();
        assert_eq!(q.provenance().unwrap(), via_eval, "({src},{dst})");
    }
    // Paper Figure 1: three source-to-target paths, each a 3-edge monomial.
    let st = engine.node_query(0, 5).unwrap().provenance().unwrap();
    assert_eq!(st.len(), 3);
    assert!(st.monomials().iter().all(|m| m.degree() == 3));
}

/// Naive and semi-naive agree on every value — asserted per semiring so a
/// failure names the algebra that broke.
fn assert_strategies_agree<S: Semiring, V: Valuation<S>>(
    gp: &datalog::GroundedProgram,
    valuation: &V,
) -> Result<(), TestCaseError> {
    let budget = datalog::default_budget(gp);
    let naive = datalog::naive_eval::<S, _>(gp, valuation, budget);
    let semi = datalog::semi_naive_eval::<S, _>(gp, valuation, budget);
    prop_assert_eq!(naive.converged, semi.converged, "{} convergence", S::NAME);
    prop_assert_eq!(naive.values.len(), semi.values.len());
    for (i, (a, b)) in naive.values.iter().zip(&semi.values).enumerate() {
        prop_assert!(
            a.sr_eq(b),
            "{} fact {}: naive {:?} vs semi-naive {:?}",
            S::NAME,
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `EvalOutcome.values` is identical across the two strategies for
    /// Bool, Tropical, TropK and Sorp on random gnm transitive closures
    /// (cycles included — all four are ⊕-idempotent, so the delta path
    /// really runs).
    #[test]
    fn seminaive_matches_naive_on_random_gnm(
        n in 4usize..9,
        m in 6usize..20,
        seed in any::<u64>(),
    ) {
        let g = generators::gnm(n, m, &["E"], seed);
        let mut p = programs::transitive_closure();
        let (db, _) = datalog::Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db).unwrap();
        assert_strategies_agree::<Bool, _>(&gp, &AllOnes)?;
        assert_strategies_agree::<Tropical, _>(&gp, &UnitWeights::new(Tropical::new(1)))?;
        assert_strategies_agree::<Tropical, _>(
            &gp,
            &from_fn(|f| Tropical::new(f as u64 % 5 + 1)),
        )?;
        assert_strategies_agree::<TropK<3>, _>(
            &gp,
            &UnitWeights::new(TropK::<3>::single(1)),
        )?;
        assert_strategies_agree::<Sorp, _>(&gp, &VarTags)?;
    }

    /// Counting is not ⊕-idempotent: `semi_naive_eval` must fall back to
    /// naive and therefore behave *identically* — same values and same
    /// iteration count on DAGs, same divergence on cyclic instances — and
    /// the outcome must *record* the downgrade as its effective strategy.
    #[test]
    fn counting_falls_back_identically(
        n in 4usize..9,
        m in 6usize..20,
        seed in any::<u64>(),
    ) {
        let g = generators::gnm(n, m, &["E"], seed);
        let mut p = programs::transitive_closure();
        let (db, _) = datalog_circuits::datalog::Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db).unwrap();
        let unit = UnitWeights::new(Counting::new(1));
        let budget = datalog::default_budget(&gp).min(60);
        let naive = datalog::naive_eval::<Counting, _>(&gp, &unit, budget);
        let semi = datalog::semi_naive_eval::<Counting, _>(&gp, &unit, budget);
        prop_assert_eq!(naive.converged, semi.converged);
        prop_assert_eq!(naive.iterations, semi.iterations, "fallback must be naive itself");
        prop_assert_eq!(naive.values, semi.values);
        prop_assert_eq!(naive.strategy, EvalStrategy::Naive);
        prop_assert_eq!(
            semi.strategy,
            EvalStrategy::Naive,
            "the SemiNaive request must record its effective (fallen-back) strategy"
        );
    }

    /// The parallel pipeline is indistinguishable from the sequential
    /// one: `par_ground` produces a bit-identical `GroundedProgram` (same
    /// `FactId` order), and `Engine::fixpoint` returns an equal full
    /// `EvalOutcome` — values, `iterations`, `rule_firings`, `converged`,
    /// and `strategy` — at `parallelism(1)` and `parallelism(4)`, under
    /// both strategies and under a tight `eval_budget` as well as the
    /// default one. Bool/Tropical/Sorp run on `gnm` graphs, Counting on
    /// DAGs; the programs put the recursive atom at different body
    /// positions.
    #[test]
    fn parallel_pipeline_matches_sequential(
        n in 4usize..9,
        m in 6usize..20,
        seed in any::<u64>(),
        threads in 2usize..9,
        which in 0usize..3,
        naive in any::<bool>(),
        tight in 1usize..4,
    ) {
        let program = || match which {
            0 => programs::transitive_closure(),
            // Non-linear TC: two IDB atoms — delta positions 0 and 1.
            1 => datalog::parse_program(
                "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).",
            ).unwrap(),
            // Example 4.2: the recursive atom is *second* in the body.
            _ => programs::bounded_example(),
        };
        let g = generators::gnm(n, m, &["E"], seed);
        let mut p = program();
        let (mut db, _) = datalog::Database::from_graph(&mut p, &g);
        if let Some(a) = p.preds.get("A") {
            let v0 = db.node_const(0).unwrap();
            db.insert(a, vec![v0]);
        }
        let gp = datalog::ground(&p, &db).unwrap();
        let gp_par = datalog::par_ground(&p, &db, threads).unwrap();
        prop_assert_eq!(&gp.idb_facts, &gp_par.idb_facts, "FactId order must be bit-identical");
        prop_assert_eq!(&gp.rules, &gp_par.rules, "grounded-rule order must be bit-identical");

        let strategy = if naive { EvalStrategy::Naive } else { EvalStrategy::SemiNaive };
        let dag = generators::random_dag(n, 0.4, "E", seed);
        for budget in [None, Some(tight)] {
            let engines = |g: &LabeledDigraph| {
                let mk = |t: usize| {
                    let mut b = Engine::builder()
                        .program(program())
                        .graph(g)
                        .eval_strategy(strategy)
                        .parallelism(t);
                    if which == 2 {
                        b = b.fact("A", &["v0"]);
                    }
                    if let Some(k) = budget {
                        b = b.eval_budget(k);
                    }
                    b.build().unwrap()
                };
                (mk(1), mk(4))
            };
            let (seq, par) = engines(&g);
            assert_fixpoint_thread_invariant::<Bool, _>(&seq, &par, &AllOnes)?;
            assert_fixpoint_thread_invariant::<Tropical, _>(
                &seq, &par, &UnitWeights::new(Tropical::new(1)),
            )?;
            assert_fixpoint_thread_invariant::<Sorp, _>(&seq, &par, &VarTags)?;
            let (seq, par) = engines(&dag);
            assert_fixpoint_thread_invariant::<Counting, _>(
                &seq, &par, &UnitWeights::new(Counting::new(1)),
            )?;
        }
    }

    /// `TropK` semiring laws at the boundary parameters: `K = 1` (the
    /// degenerate tropical case), duplicate weights (the distinct-value
    /// merge), and `u64::MAX` (saturating `⊗`).
    #[test]
    fn tropk_laws_hold_at_boundary_parameters(
        a in tropk_weights(),
        b in tropk_weights(),
        c in tropk_weights(),
    ) {
        check_tropk_laws::<1>(&a, &b, &c)?;
        check_tropk_laws::<2>(&a, &b, &c)?;
        check_tropk_laws::<3>(&a, &b, &c)?;
    }
}

/// Weight vectors biased toward the interesting boundaries: duplicates
/// (small range) and saturation (`u64::MAX` and neighbors).
fn tropk_weights() -> impl PropStrategy<Value = Vec<u64>> {
    collection::vec(
        prop_oneof![
            4 => 0u64..6,
            1 => Just(u64::MAX),
            1 => Just(u64::MAX - 1),
        ],
        0..5,
    )
}

fn check_tropk_laws<const K: usize>(a: &[u64], b: &[u64], c: &[u64]) -> Result<(), TestCaseError> {
    let (a, b, c) = (
        TropK::<K>::from_weights(a.to_vec()),
        TropK::<K>::from_weights(b.to_vec()),
        TropK::<K>::from_weights(c.to_vec()),
    );
    if let Err(e) = properties::check_semiring_laws(&a, &b, &c) {
        return Err(TestCaseError::fail(format!("K={K}: {e}")));
    }
    if let Err(e) = properties::check_add_idempotent(&a) {
        return Err(TestCaseError::fail(format!("K={K}: {e}")));
    }
    // Saturating ⊗ stays within the invariant: sorted, distinct, ≤ K.
    let prod = a.mul(&b);
    prop_assert!(prod.weights().len() <= K, "K={}: {:?}", K, prod);
    prop_assert!(
        prod.weights().windows(2).all(|w| w[0] < w[1]),
        "K={}: {:?} not strictly increasing",
        K,
        prod
    );
    Ok(())
}

/// `Engine::fixpoint` at `parallelism(1)` and `parallelism(4)` returns
/// an equal full `EvalOutcome`: the fixpoint is sequential at every
/// thread count, so not even the counts or the convergence verdict under
/// a tight budget may differ.
fn assert_fixpoint_thread_invariant<S: Semiring, V: Valuation<S>>(
    seq: &Engine,
    par: &Engine,
    valuation: &V,
) -> Result<(), TestCaseError> {
    let a = seq.fixpoint::<S, _>(valuation).unwrap();
    let b = par.fixpoint::<S, _>(valuation).unwrap();
    prop_assert_eq!(
        a,
        b,
        "{} outcome differs between parallelism 1 and 4",
        S::NAME
    );
    Ok(())
}

/// The `Engine` default (semi-naive) answers exactly like a naive session
/// on Figure 1, across the full battery.
#[test]
fn engine_default_matches_naive_strategy_session() {
    let semi = figure1_engine();
    assert_eq!(semi.eval_strategy(), EvalStrategy::SemiNaive);
    let naive = Engine::builder()
        .program(programs::transitive_closure())
        .graph(&figure1())
        .eval_strategy(EvalStrategy::Naive)
        .build()
        .unwrap();
    for src in 0..6u32 {
        for dst in 0..6u32 {
            let unit = UnitWeights::new(Tropical::new(1));
            let a: Tropical = semi.node_query(src, dst).unwrap().eval(&unit).unwrap();
            let b: Tropical = naive.node_query(src, dst).unwrap().eval(&unit).unwrap();
            assert_eq!(a, b, "({src},{dst})");
            let ap: Sorp = semi.node_query(src, dst).unwrap().eval(&VarTags).unwrap();
            let bp: Sorp = naive.node_query(src, dst).unwrap().eval(&VarTags).unwrap();
            assert_eq!(ap, bp, "({src},{dst})");
        }
    }
}

/// Build the three-pipeline engine triple over one graph: the
/// materialized engine is the oracle, the fused and magic engines are
/// the systems under test. A finite eval budget keeps the deliberate
/// counting divergences cheap.
fn pipeline_triple(g: &LabeledDigraph, threads: usize) -> (Engine, Engine, Engine) {
    let mk = |p: Pipeline| {
        Engine::builder()
            .program(programs::transitive_closure())
            .graph(g)
            .parallelism(threads)
            .pipeline(p)
            .eval_budget(60)
            .build()
            .unwrap()
    };
    (
        mk(Pipeline::Materialized),
        mk(Pipeline::Fused),
        mk(Pipeline::Magic),
    )
}

/// Every node pair, one semiring: the alternate pipeline must agree with
/// the materialized oracle on both the value and convergence. The one
/// sanctioned asymmetry: a *demand-driven* (magic) evaluation may
/// converge where the full fixpoint diverges, when the query cone
/// excludes the cycle — `cone_may_converge` whitelists exactly that
/// (the cone-contains-the-cycle direction is pinned by the corpus case
/// `tc_cycle_counting_diverges`).
fn assert_pipeline_agrees<S: Semiring, V: Valuation<S>>(
    oracle: &Engine,
    alt: &Engine,
    nodes: usize,
    valuation: &V,
    label: &str,
    cone_may_converge: bool,
    stale_may_diverge: bool,
) -> Result<(), TestCaseError> {
    for src in 0..nodes as u32 {
        for dst in 0..nodes as u32 {
            let a: Result<S, _> = oracle.node_query(src, dst).unwrap().eval(valuation);
            let b: Result<S, _> = alt.node_query(src, dst).unwrap().eval(valuation);
            match (&a, &b) {
                (Ok(x), Ok(y)) => {
                    prop_assert!(x.sr_eq(y), "{label} ({src},{dst}): oracle {x:?} vs {y:?}")
                }
                (Err(Error::Diverged { .. }), Err(Error::Diverged { .. })) => {}
                (Err(Error::Diverged { .. }), Ok(_)) if cone_may_converge => {}
                // After a retraction, the oracle's incrementally
                // maintained grounding can keep a now-unsupported goal
                // fact; under global divergence the oracle then errors
                // on a goal that a fresh grounding (fused/magic
                // re-derive per call) doesn't even contain and answers
                // with 0. Only that direction, only the zero value.
                (Err(Error::Diverged { .. }), Ok(y))
                    if stale_may_diverge && y.sr_eq(&S::zero()) => {}
                _ => prop_assert!(false, "{label} ({src},{dst}): oracle {a:?} vs {b:?}"),
            }
        }
    }
    Ok(())
}

/// Run the full semiring battery of one pipeline against the oracle.
fn assert_pipeline_battery(
    oracle: &Engine,
    alt: &Engine,
    nodes: usize,
    label: &str,
    cone_may_converge: bool,
    stale_may_diverge: bool,
) -> Result<(), TestCaseError> {
    assert_pipeline_agrees::<Bool, _>(oracle, alt, nodes, &AllOnes, label, false, false)?;
    assert_pipeline_agrees::<Tropical, _>(
        oracle,
        alt,
        nodes,
        &UnitWeights::new(Tropical::new(1)),
        label,
        false,
        false,
    )?;
    assert_pipeline_agrees::<TropK<3>, _>(
        oracle,
        alt,
        nodes,
        &UnitWeights::new(TropK::<3>::single(1)),
        label,
        false,
        false,
    )?;
    assert_pipeline_agrees::<Sorp, _>(oracle, alt, nodes, &VarTags, label, false, false)?;
    // Counting is the non-idempotent stressor: divergence behaviour is
    // part of the contract (see the whitelists above).
    assert_pipeline_agrees::<Counting, _>(
        oracle,
        alt,
        nodes,
        &AllOnes,
        label,
        cone_may_converge,
        stale_may_diverge,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ISSUE 9 cross-path oracle: on random gnm graphs (cycles included),
    /// the fused streaming pipeline and the magic demand-driven pipeline
    /// answer point queries bit-identically to the materialized oracle —
    /// values *and* convergence — across Bool/Tropical/TropK₃/Sorp/
    /// Counting, at parallelism 1 and 4, and the agreement survives a
    /// round of incremental `insert_facts`/`retract_facts` interleaved
    /// between query batteries.
    #[test]
    fn fused_and_magic_pipelines_match_materialized(
        n in 4usize..8,
        m in 6usize..16,
        seed in any::<u64>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let g = generators::gnm(n, m, &["E"], seed);
        let (mut oracle, mut fused, mut magic) = pipeline_triple(&g, threads);

        // The fused stream must reproduce the materialized grounding's
        // fact list bit-for-bit (same FactIds, same interning order) —
        // the invariant that makes value comparison meaningful at all.
        let fused_out = fused
            .fused_fixpoint::<Tropical, _>(&UnitWeights::new(Tropical::new(1)))
            .unwrap();
        prop_assert_eq!(
            &fused_out.gp.idb_facts,
            &oracle.grounding().unwrap().idb_facts,
            "fused fact discovery order diverged from the materialized grounder"
        );

        assert_pipeline_battery(&oracle, &fused, n, "fused", false, false)?;
        assert_pipeline_battery(&oracle, &magic, n, "magic", true, false)?;

        // Interleave incremental writes: retract a real edge, insert a
        // fresh one (new constant included), identically on all three
        // engines, then re-run the battery. The fused and magic paths
        // re-derive from the maintained database, the oracle from its
        // incrementally-maintained grounding — they must still agree.
        let &(u, v, _) = g.edges().first().expect("gnm(n>=4, m>=6) has edges");
        let (du, dv) = (format!("v{u}"), format!("v{v}"));
        let retraction: [(&str, &[&str]); 1] = [("E", &[du.as_str(), dv.as_str()])];
        let insertion: [(&str, &[&str]); 2] =
            [("E", &["v0", "w0"]), ("E", &["w0", "v1"])];
        for engine in [&mut oracle, &mut fused, &mut magic] {
            engine.retract_facts(&retraction).unwrap();
            engine.insert_facts(&insertion).unwrap();
        }
        assert_pipeline_battery(&oracle, &fused, n, "fused after writes", false, true)?;
        assert_pipeline_battery(&oracle, &magic, n, "magic after writes", true, true)?;
    }
}

/// The whole battery above reuses ONE grounding and ONE classification —
/// the facade's core caching contract, asserted by counting `ground()`
/// invocations across many queries, evaluations, and compilations.
#[test]
fn agreement_battery_grounds_once() {
    let engine = figure1_engine();
    assert_agreement::<Bool, _>(&engine, &AllOnes);
    assert_agreement::<Tropical, _>(&engine, &UnitWeights::new(Tropical::new(1)));
    assert_agreement::<Counting, _>(&engine, &AllOnes);
    assert_agreement::<Sorp, _>(&engine, &VarTags);
    let stats = engine.cache_stats();
    assert_eq!(stats.groundings, 1, "{stats:?}");
    assert_eq!(stats.classifications, 1, "{stats:?}");
    // 36 node pairs × 4 batteries, but each derivable fact's circuit is
    // compiled exactly once and served from cache afterwards.
    assert!(stats.circuit_cache_hits > stats.circuits_built, "{stats:?}");
}

/// A fused run stopped by its budget holds an incomplete fact list: a goal
/// missing from it is not proven underivable. The fused answer must be the
/// materialized value or `Diverged` — never 0 — and `is_derivable` must
/// agree with it.
fn assert_fused_budget_stop_agrees<S: Semiring, V: Valuation<S>>(valuation: &V) {
    let engine = |pipeline: Pipeline| {
        Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(8, "E"))
            .eval_budget(2)
            .pipeline(pipeline)
            .build()
            .unwrap()
    };
    let (materialized, fused) = (engine(Pipeline::Materialized), engine(Pipeline::Fused));
    let want: S = materialized
        .query("T", &["v0", "v6"])
        .unwrap()
        .eval(valuation)
        .unwrap();
    assert!(
        !want.sr_eq(&S::zero()),
        "{}: T(v0,v6) is derivable",
        S::NAME
    );
    let q = fused.query("T", &["v0", "v6"]).unwrap();
    match (q.eval::<S, _>(valuation), q.is_derivable()) {
        (Ok(got), Ok(derivable)) => {
            assert!(
                got.sr_eq(&want),
                "{}: fused {got:?}, want {want:?}",
                S::NAME
            );
            assert!(
                derivable,
                "{}: is_derivable disagrees with {got:?}",
                S::NAME
            );
        }
        (Err(Error::Diverged { .. }), Err(Error::Diverged { .. })) => {}
        other => panic!("{}: fused answer and is_derivable: {other:?}", S::NAME),
    }
}

#[test]
fn fused_budget_stop_answers_the_materialized_value_or_diverges() {
    assert_fused_budget_stop_agrees::<Bool, _>(&AllOnes);
    assert_fused_budget_stop_agrees::<Tropical, _>(&UnitWeights::new(Tropical::new(1)));
}
