//! End-to-end integration: programs × strategies × semirings, verified
//! against the proof-tree definition of provenance (paper Def 2.2, §2.4).

use datalog_circuits::circuit::{self, verify};
use datalog_circuits::datalog::{self, programs, Database, Exec};
use datalog_circuits::graphgen::generators;
use datalog_circuits::provcirc::prelude::*;
use datalog_circuits::semiring::prelude::*;

/// Every graph strategy computes the same polynomial for TC facts, and the
/// full verification bundle (proof trees + naive eval + polynomial eval)
/// passes over the tropical semiring.
#[test]
fn tc_all_strategies_fully_verified() {
    let p = programs::transitive_closure();
    for seed in 0..3u64 {
        let g = generators::gnm(6, 14, &["E"], seed);
        let mut p2 = p.clone();
        let (db, _) = Database::from_graph(&mut p2, &g);
        let gp = datalog::ground(&p2, &db, &Exec::default()).unwrap();
        let t = p2.preds.get("T").unwrap();
        for src in 0..2u32 {
            for dst in 2..5u32 {
                let fact = gp.fact(
                    t,
                    &[
                        db.node_const(src as usize).unwrap(),
                        db.node_const(dst as usize).unwrap(),
                    ],
                );
                for strat in [
                    Strategy::GroundedFixpoint,
                    Strategy::ProductBellmanFord,
                    Strategy::ProductSquaring,
                    Strategy::UllmanVanGelder,
                    Strategy::Auto,
                ] {
                    let c = compile_graph_fact(&p, &g, src, dst, strat).unwrap();
                    match fact {
                        Some(f) => verify::verify_circuit(
                            &c.circuit,
                            &gp,
                            f,
                            &from_fn(|v| Tropical::new((v as u64 % 5) + 1)),
                            200_000,
                        )
                        .unwrap_or_else(|e| panic!("seed {seed} ({src},{dst}) {strat:?}: {e}")),
                        None => assert!(
                            c.circuit.polynomial().is_empty(),
                            "seed {seed} ({src},{dst}) {strat:?}: expected 0"
                        ),
                    }
                }
            }
        }
    }
}

/// The same compiled circuit evaluates consistently across five absorptive
/// semirings (values agree with naive Datalog evaluation in each).
#[test]
fn semiring_sweep_agreement() {
    let p = programs::transitive_closure();
    let g = generators::gnm(7, 18, &["E"], 9);
    let mut p2 = p.clone();
    let (db, _) = Database::from_graph(&mut p2, &g);
    let gp = datalog::ground(&p2, &db, &Exec::default()).unwrap();
    let t = p2.preds.get("T").unwrap();
    let budget = datalog::default_budget(&gp);
    let c = compile_graph_fact(&p, &g, 0, 6, Strategy::ProductSquaring).unwrap();
    let Some(fact) = gp.fact(t, &[db.node_const(0).unwrap(), db.node_const(6).unwrap()]) else {
        assert!(c.circuit.polynomial().is_empty());
        return;
    };

    macro_rules! check {
        ($S:ty, $assign:expr) => {{
            let assign = from_fn($assign);
            let direct = c.circuit.eval(&assign);
            let naive = datalog::naive_eval::<$S, _>(&gp, &assign, budget);
            assert!(naive.converged);
            assert!(
                direct.sr_eq(&naive.values[fact]),
                "{} mismatch: {:?} vs {:?}",
                <$S as Semiring>::NAME,
                direct,
                naive.values[fact]
            );
        }};
    }
    check!(Bool, |_| Bool(true));
    check!(Tropical, |v: u32| Tropical::new((v as u64 % 7) + 1));
    check!(Fuzzy, |v: u32| Fuzzy::new(0.3 + (v % 7) as f64 / 10.0));
    check!(Bottleneck, |v: u32| Bottleneck::new((v as u64 % 9) + 1));
    check!(Viterbi, |v: u32| Viterbi::new(0.5 + (v % 5) as f64 / 10.0));
}

/// Dyck-1 (Example 6.4): grounded and UvG circuits agree with proof-tree
/// enumeration on random balanced words.
#[test]
fn dyck_end_to_end() {
    for seed in 0..3u64 {
        let g = generators::dyck_path(4, seed);
        let mut p = programs::dyck1();
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let s = p.preds.get("S").unwrap();
        let fact = gp
            .fact(
                s,
                &[
                    db.node_const(0).unwrap(),
                    db.node_const(g.num_nodes() - 1).unwrap(),
                ],
            )
            .expect("balanced word spans the path");
        let grounded = circuit::grounded_circuit(&gp, None).circuit_for(fact);
        let uvg = circuit::uvg_circuit(&gp, None).circuit_for(fact);
        verify::check_against_proof_trees(&grounded, &gp, fact, 100_000).unwrap();
        assert!(verify::equivalent(&grounded, &uvg), "seed {seed}");
    }
}

/// Monadic linear connected program end-to-end (Theorem 6.5's fragment).
#[test]
fn monadic_reachability_end_to_end() {
    let mut p = programs::monadic_reachability();
    let g = generators::gnm(8, 18, &["E"], 4);
    let (mut db, _) = Database::from_graph(&mut p, &g);
    let a = p.preds.get("A").unwrap();
    let v7 = db.node_const(7).unwrap();
    db.insert(a, &[v7]);
    let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
    let u = p.preds.get("U").unwrap();
    for node in 0..8usize {
        if let Some(fact) = gp.fact(u, &[db.node_const(node).unwrap()]) {
            let c = circuit::uvg_circuit(&gp, None).circuit_for(fact);
            verify::verify_circuit(
                &c,
                &gp,
                fact,
                &from_fn(|v| Fuzzy::new(0.2 + (v % 8) as f64 / 10.0)),
                100_000,
            )
            .unwrap();
        }
    }
}

/// Formula expansion (Prop 3.3) preserves semantics for compiled circuits.
#[test]
fn formula_expansion_preserves_semantics() {
    let p = programs::transitive_closure();
    let g = generators::gnm(6, 12, &["E"], 2);
    let c = compile_graph_fact(&p, &g, 0, 5, Strategy::ProductSquaring).unwrap();
    if let Ok(f) = circuit::expand(&c.circuit, 5_000_000) {
        let assign = from_fn(|v: u32| Tropical::new((v as u64 % 4) + 1));
        assert!(f.eval(&assign).sr_eq(&c.circuit.eval(&assign)));
        assert_eq!(f.depth(), c.stats.depth);
        assert_eq!(f.size(), c.stats.formula_size);
    }
}
