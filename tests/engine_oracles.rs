//! Engine-level oracle tests: the Datalog engine against independent
//! textbook algorithms (BFS reachability, path-counting DP, Dijkstra-free
//! unit-weight shortest paths) on random DAGs and digraphs.

use datalog_circuits::datalog::{self, programs, Database, Exec};
use datalog_circuits::graphgen::{generators, LabeledDigraph};
use datalog_circuits::semiring::prelude::*;
use proptest::prelude::*;

/// Count simple u→v paths in a DAG by topological DP (oracle for the
/// counting semiring on acyclic inputs).
fn dag_path_counts(g: &LabeledDigraph, src: u32) -> Vec<u64> {
    // random_dag guarantees edges go from lower to higher ids.
    let mut counts = vec![0u64; g.num_nodes()];
    counts[src as usize] = 1;
    let mut edges: Vec<(u32, u32)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    edges.sort();
    for (u, v) in edges {
        counts[v as usize] += counts[u as usize];
    }
    counts[src as usize] = 0; // E⁺ paths need at least one edge
    counts
}

fn tc_grounding(g: &LabeledDigraph) -> (datalog::Program, Database, datalog::GroundedProgram) {
    let mut p = programs::transitive_closure();
    let (db, _) = Database::from_graph(&mut p, g);
    let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
    (p, db, gp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Boolean semantics ⇔ BFS reachability (with ≥1 edge).
    #[test]
    fn boolean_is_reachability(n in 4usize..10, m in 6usize..24, seed in any::<u64>()) {
        let g = generators::gnm(n, m, &["E"], seed);
        let (p, db, gp) = tc_grounding(&g);
        let t = p.preds.get("T").unwrap();
        for src in 0..n as u32 {
            // BFS from each out-neighbor (E⁺ = at least one edge).
            let mut reach = vec![false; n];
            for &(u, v, _) in g.edges() {
                if u == src {
                    for (i, r) in g.reachable_from(v).iter().enumerate() {
                        reach[i] |= r;
                    }
                }
            }
            for dst in 0..n as u32 {
                let derived = gp.fact(t, &[
                    db.node_const(src as usize).unwrap(),
                    db.node_const(dst as usize).unwrap(),
                ]).is_some();
                prop_assert_eq!(derived, reach[dst as usize], "({},{})", src, dst);
            }
        }
    }

    /// Counting semantics on DAGs ⇔ the path-counting DP.
    #[test]
    fn counting_is_path_dp_on_dags(n in 4usize..9, density in 0.2f64..0.7, seed in any::<u64>()) {
        let g = generators::random_dag(n, density, "E", seed);
        let (p, db, gp) = tc_grounding(&g);
        let t = p.preds.get("T").unwrap();
        let out = datalog::naive_eval::<Counting, _>(&gp, &from_fn(|_| Counting::new(1)), 64);
        prop_assert!(out.converged);
        for src in 0..n as u32 {
            let oracle = dag_path_counts(&g, src);
            for dst in 0..n as u32 {
                let count = gp.fact(t, &[
                    db.node_const(src as usize).unwrap(),
                    db.node_const(dst as usize).unwrap(),
                ]).map(|f| out.values[f].0).unwrap_or(0);
                prop_assert_eq!(count, oracle[dst as usize], "({},{})", src, dst);
            }
        }
    }

    /// Tropical semantics with unit weights ⇔ BFS hop distance.
    #[test]
    fn tropical_is_bfs_distance(n in 4usize..10, m in 6usize..24, seed in any::<u64>()) {
        let g = generators::gnm(n, m, &["E"], seed);
        let (p, db, gp) = tc_grounding(&g);
        let t = p.preds.get("T").unwrap();
        let out = datalog::naive_eval::<Tropical, _>(&gp, &from_fn(|_| Tropical::new(1)),
            datalog::default_budget(&gp));
        prop_assert!(out.converged);
        for src in 0..n as u32 {
            let dist = g.bfs_distances(src);
            for dst in 0..n as u32 {
                if src == dst { continue; }
                if let Some(f) = gp.fact(t, &[
                    db.node_const(src as usize).unwrap(),
                    db.node_const(dst as usize).unwrap(),
                ]) {
                    prop_assert_eq!(
                        out.values[f],
                        Tropical::new(dist[dst as usize].unwrap()),
                        "({},{})", src, dst
                    );
                }
            }
        }
    }

    /// Trop_1 degenerates to the tropical semiring exactly.
    #[test]
    fn trop1_equals_tropical(n in 4usize..8, m in 6usize..18, seed in any::<u64>()) {
        let g = generators::gnm(n, m, &["E"], seed);
        let (_, _, gp) = tc_grounding(&g);
        let budget = datalog::default_budget(&gp);
        let t1 = datalog::naive_eval::<TropK<1>, _>(&gp, &from_fn(|f| TropK::single(f as u64 % 5 + 1)), budget);
        let tr = datalog::naive_eval::<Tropical, _>(&gp, &from_fn(|f| Tropical::new(f as u64 % 5 + 1)), budget);
        prop_assert!(t1.converged && tr.converged);
        for (a, b) in t1.values.iter().zip(tr.values.iter()) {
            prop_assert_eq!(a.best(), b.finite());
        }
    }

    /// Łukasiewicz provenance is bounded by Fuzzy provenance pointwise
    /// (⊗_Ł ≤ min), and both booleanize identically (positivity).
    #[test]
    fn lukasiewicz_below_fuzzy(n in 4usize..8, m in 6usize..18, seed in any::<u64>()) {
        let g = generators::gnm(n, m, &["E"], seed);
        let (_, _, gp) = tc_grounding(&g);
        let budget = datalog::default_budget(&gp);
        let assign_l = from_fn(|f: u32| Lukasiewicz::new(0.8 + (f % 3) as f64 / 15.0));
        let assign_f = from_fn(|f: u32| Fuzzy::new(0.8 + (f % 3) as f64 / 15.0));
        let l = datalog::naive_eval::<Lukasiewicz, _>(&gp, &assign_l, budget);
        let f = datalog::naive_eval::<Fuzzy, _>(&gp, &assign_f, budget);
        prop_assert!(l.converged && f.converged);
        for (lv, fv) in l.values.iter().zip(f.values.iter()) {
            prop_assert!(lv.value() <= fv.value() + 1e-9);
        }
    }
}

/// Divergence detection: counting over any graph with a cycle reachable
/// from a derivable fact must report non-convergence, never loop forever.
#[test]
fn divergence_is_detected_not_hung() {
    for n in [2usize, 3, 5, 9] {
        let g = generators::cycle(n, "E");
        let (_, _, gp) = tc_grounding(&g);
        let start = std::time::Instant::now();
        let out = datalog::naive_eval::<Counting, _>(&gp, &from_fn(|_| Counting::new(1)), 100);
        assert!(!out.converged);
        assert!(start.elapsed().as_secs() < 30);
    }
}

/// TropicalZ (ℤ, not absorptive): converges on DAGs, including with
/// negative weights — but naive evaluation on negative cycles diverges,
/// which the budget catches.
#[test]
fn tropical_z_negative_weights() {
    let g = generators::random_dag(8, 0.4, "E", 3);
    let (_, _, gp) = tc_grounding(&g);
    let out = datalog::naive_eval::<TropicalZ, _>(
        &gp,
        &from_fn(|f| TropicalZ::new((f as i64 % 5) - 2)),
        64,
    );
    assert!(out.converged, "DAGs converge even without absorption");

    let g2 = generators::cycle(3, "E");
    let (_, _, gp2) = tc_grounding(&g2);
    let out2 = datalog::naive_eval::<TropicalZ, _>(&gp2, &from_fn(|_| TropicalZ::new(-1)), 100);
    assert!(!out2.converged, "negative cycle must not converge");
}
