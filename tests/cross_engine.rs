//! Cross-engine agreement: the specialized CFL-reachability solver, the
//! generic Datalog grounding engine, and the product-automaton route must
//! derive exactly the same facts (Proposition 5.2 / Definition 5.1).

use datalog_circuits::datalog::{self, programs, Database, Exec};
use datalog_circuits::grammar::{self, CflOptions, Cnf, Dfa, Regex};
use datalog_circuits::graphgen::{generators, LabeledDigraph};

/// Translate graph labels into grammar terminal ids by name.
fn graph_edges_for(cnf: &Cnf, g: &LabeledDigraph) -> Vec<(u32, u32, u32)> {
    g.edges()
        .iter()
        .filter_map(|&(u, v, t)| cnf.alphabet.get(g.alphabet.name(t)).map(|tt| (u, v, tt)))
        .collect()
}

#[test]
fn cfl_reachability_matches_datalog_grounding_on_tc() {
    let cfg = grammar::Cfg::transitive_closure();
    let cnf = Cnf::from_cfg(&cfg);
    for seed in 0..5u64 {
        let g = generators::gnm(8, 20, &["E"], seed);
        let res = grammar::cflreach::solve(
            &cnf,
            g.num_nodes(),
            &graph_edges_for(&cnf, &g),
            CflOptions::default(),
        );
        let mut p = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let t = p.preds.get("T").unwrap();
        for u in 0..g.num_nodes() as u32 {
            for v in 0..g.num_nodes() as u32 {
                let via_cfl = res.holds(cnf.start, u, v);
                let via_datalog = gp
                    .fact(
                        t,
                        &[
                            db.node_const(u as usize).unwrap(),
                            db.node_const(v as usize).unwrap(),
                        ],
                    )
                    .is_some();
                assert_eq!(via_cfl, via_datalog, "seed {seed} ({u},{v})");
            }
        }
    }
}

#[test]
fn cfl_reachability_matches_datalog_on_dyck() {
    let cnf = Cnf::from_cfg(&grammar::Cfg::dyck1());
    for seed in 0..4u64 {
        let g = generators::dyck_path(5, seed);
        let res = grammar::cflreach::solve(
            &cnf,
            g.num_nodes(),
            &graph_edges_for(&cnf, &g),
            CflOptions::default(),
        );
        let mut p = programs::dyck1();
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let s = p.preds.get("S").unwrap();
        for u in 0..g.num_nodes() as u32 {
            for v in 0..g.num_nodes() as u32 {
                assert_eq!(
                    res.holds(cnf.start, u, v),
                    gp.fact(
                        s,
                        &[
                            db.node_const(u as usize).unwrap(),
                            db.node_const(v as usize).unwrap()
                        ]
                    )
                    .is_some(),
                    "seed {seed} ({u},{v})"
                );
            }
        }
    }
}

#[test]
fn product_automaton_matches_grounding_for_two_label_rpq() {
    // L = (a b)+ over a two-label alphabet.
    let text = "T(X,Y) :- A(X,Z), B(Z,Y).\nT(X,Y) :- T(X,W), A(W,Z), B(Z,Y).";
    let program = datalog::parse_program(text).unwrap();
    for seed in 0..4u64 {
        let mut g = generators::gnm(7, 18, &["A", "B"], seed);
        let dfa = Dfa::compile(&Regex::parse("(A B)+").unwrap(), &mut g.alphabet);
        let mut p = program.clone();
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let t = p.preds.get("T").unwrap();
        let prod = datalog_circuits::graphgen::product_with_dfa(&g, &dfa);
        // BFS on the product.
        let mut adj = vec![Vec::new(); prod.num_nodes];
        for &(u, v) in &prod.edges {
            adj[u as usize].push(v);
        }
        for src in 0..g.num_nodes() as u32 {
            let mut seen = vec![false; prod.num_nodes];
            let start = prod.node(src, dfa.start);
            seen[start as usize] = true;
            let mut stack = vec![start];
            while let Some(x) = stack.pop() {
                for &y in &adj[x as usize] {
                    if !seen[y as usize] {
                        seen[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            for dst in 0..g.num_nodes() as u32 {
                // (A B)+ never accepts ε, so no empty-path special case.
                let via_product = (0..dfa.num_states)
                    .any(|q| dfa.accepting[q] && seen[prod.node(dst, q) as usize]);
                let via_datalog = gp
                    .fact(
                        t,
                        &[
                            db.node_const(src as usize).unwrap(),
                            db.node_const(dst as usize).unwrap(),
                        ],
                    )
                    .is_some();
                assert_eq!(via_product, via_datalog, "seed {seed} ({src},{dst})");
            }
        }
    }
}

#[test]
fn cfl_derivation_counts_match_proof_tree_counts_on_paths() {
    // On a word path the number of grounded derivations of the start fact
    // equals the datalog grounding's rule count for that fact's predicate
    // family — a structural cross-check of the derivation collector.
    let cnf = Cnf::from_cfg(&grammar::Cfg::transitive_closure());
    let g = generators::path(5, "E");
    let res = grammar::cflreach::solve(
        &cnf,
        g.num_nodes(),
        &graph_edges_for(&cnf, &g),
        CflOptions {
            collect_derivations: true,
        },
    );
    let mut p = programs::transitive_closure();
    let (db, _) = Database::from_graph(&mut p, &g);
    let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
    // Both engines derive the same number of facts for the start/target.
    let t = p.preds.get("T").unwrap();
    let datalog_facts = gp.facts_of(t).len();
    let cfl_facts = res.pairs_of(cnf.start).len();
    assert_eq!(datalog_facts, cfl_facts);
    // Every CFL fact has at least one derivation recorded.
    for i in 0..res.facts.len() {
        assert!(res.derivations.iter().any(|d| d.head == i));
    }
}

#[test]
fn magic_rewriting_equivalence_on_random_graphs() {
    let p = programs::transitive_closure();
    for seed in 10..14u64 {
        let g = generators::gnm(9, 24, &["E"], seed);
        let rewritten = datalog::magic_rewrite(&p, "v0").unwrap().program;
        let mut orig = p.clone();
        let (dbo, _) = Database::from_graph(&mut orig, &g);
        let gpo = datalog::ground(&orig, &dbo, &Exec::default()).unwrap();
        let mut magic = rewritten.clone();
        let (dbm, _) = Database::from_graph(&mut magic, &g);
        let gpm = datalog::ground(&magic, &dbm, &Exec::default()).unwrap();
        let t = orig.preds.get("T").unwrap();
        let ts = magic.preds.get("T_s").unwrap();
        for y in 0..g.num_nodes() {
            let lhs = gpo
                .fact(t, &[dbo.node_const(0).unwrap(), dbo.node_const(y).unwrap()])
                .is_some();
            let rhs = gpm.fact(ts, &[dbm.node_const(y).unwrap()]).is_some();
            assert_eq!(lhs, rhs, "seed {seed} y={y}");
        }
    }
}
