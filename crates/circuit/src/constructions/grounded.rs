//! The layered fixpoint circuit over the grounded program
//! (Theorem 3.1 / Deutch et al., and Theorem 4.3 for bounded programs).
//!
//! Layer `k` encodes the `k`-th naive-evaluation iteration: the gate of
//! fact `α` at layer `k` is the ⊕-sum over grounded rules with head `α` of
//! the ⊗-product of the body gates at layer `k-1` and the rule's EDB
//! variables. Sums and products are balanced, so each layer adds only
//! O(log m) depth. Hash-consing detects the structural fixpoint: for a
//! bounded program it is reached after O(1) layers on every input, which is
//! exactly Theorem 4.3's log-depth circuit; in general at most
//! `#IDB facts + 1` layers suffice over any absorptive semiring.

use datalog::GroundedProgram;

use crate::arena::CircuitBuilder;
use crate::constructions::MultiOutput;

/// Build the layered circuit. `max_layers = None` runs to the structural
/// fixpoint (capped at `#IDB facts + 1`).
pub fn grounded_circuit(gp: &GroundedProgram, max_layers: Option<usize>) -> MultiOutput {
    let n = gp.num_idb_facts();
    let cap = max_layers.unwrap_or(n + 1);
    let mut b = CircuitBuilder::new();
    let zero = b.zero();
    let mut vals = vec![zero; n];
    let mut layers = 0;
    for _ in 0..cap {
        let mut next = vec![zero; n];
        for (fact, slot) in next.iter_mut().enumerate() {
            let mut summands = Vec::with_capacity(gp.rules_by_head.of(fact).len());
            for &ri in gp.rules_by_head.of(fact) {
                let ri = ri as usize;
                let (body_idb, body_edb) = (gp.rules.body_idb(ri), gp.rules.body_edb(ri));
                let mut factors = Vec::with_capacity(body_idb.len() + body_edb.len());
                for &i in body_idb {
                    factors.push(vals[i as usize]);
                }
                for &f in body_edb {
                    factors.push(b.input(f));
                }
                summands.push(b.mul_many(&factors));
            }
            *slot = b.add_many(&summands);
        }
        layers += 1;
        if next == vals {
            break;
        }
        vals = next;
    }
    MultiOutput::new(b, vals, layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::Exec;
    use datalog::{programs, Database};
    use graphgen::generators;
    use semiring::prelude::*;

    fn tc_grounded(g: &graphgen::LabeledDigraph) -> (datalog::Program, Database, GroundedProgram) {
        let mut p = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        (p, db, gp)
    }

    #[test]
    fn circuit_matches_proof_tree_polynomial_on_figure1() {
        let mut g = graphgen::LabeledDigraph::new(6);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)] {
            g.add_edge(u, v, "E");
        }
        let (p, db, gp) = tc_grounded(&g);
        let mo = grounded_circuit(&gp, None);
        let t = p.preds.get("T").unwrap();
        let fact = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(5).unwrap()])
            .unwrap();
        let circuit = mo.circuit_for(fact);
        let expected = datalog::provenance_polynomial(&gp, fact, 10_000).unwrap();
        assert_eq!(circuit.polynomial(), expected);
    }

    #[test]
    fn circuit_matches_naive_eval_on_random_graphs() {
        for seed in 0..4u64 {
            let g = generators::gnm(7, 14, &["E"], seed);
            let (_, _, gp) = tc_grounded(&g);
            let mo = grounded_circuit(&gp, None);
            let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
            assert!(out.converged);
            for fact in 0..gp.num_idb_facts() {
                assert_eq!(
                    mo.circuit_for(fact).polynomial(),
                    out.values[fact],
                    "seed {seed}, fact {fact}"
                );
            }
        }
    }

    #[test]
    fn tropical_values_agree_with_direct_eval() {
        let g = generators::gnm(8, 20, &["E"], 9);
        let (_, _, gp) = tc_grounded(&g);
        let mo = grounded_circuit(&gp, None);
        let assign = semiring::from_fn(|f: u32| Tropical::new((f as u64 % 4) + 1));
        let direct = datalog::naive_eval(&gp, &assign, datalog::default_budget(&gp));
        for fact in 0..gp.num_idb_facts() {
            assert_eq!(mo.circuit_for(fact).eval(&assign), direct.values[fact]);
        }
    }

    #[test]
    fn bounded_program_needs_constant_layers() {
        // Theorem 4.3: for a *bounded* program, the number of semantic
        // fixpoint iterations is O(1), so the layered circuit truncated at
        // that constant is already exact. (The builder's structural
        // fixpoint can lag the semantic one, which is why the theorem's
        // construction takes the boundedness constant as input.)
        let mut p = programs::bounded_example();
        for n in [4usize, 8, 16] {
            let g = generators::path(n, "E");
            let (mut db, _) = Database::from_graph(&mut p, &g);
            let a = p.preds.get("A").unwrap();
            let v0 = db.node_const(0).unwrap();
            db.insert(a, &[v0]);
            let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
            let probe = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
            assert!(probe.converged);
            assert!(
                probe.iterations <= 4,
                "bounded program took {} iterations at n={n}",
                probe.iterations
            );
            // Truncating at the semantic constant yields the exact
            // provenance for every fact.
            let mo = grounded_circuit(&gp, Some(probe.iterations));
            for fact in 0..gp.num_idb_facts() {
                assert_eq!(
                    mo.circuit_for(fact).polynomial(),
                    probe.values[fact],
                    "n={n} fact={fact}"
                );
            }
        }
    }

    #[test]
    fn unbounded_tc_layers_grow() {
        let mut layer_counts = Vec::new();
        for n in [4usize, 8, 16] {
            let g = generators::path(n, "E");
            let (_, _, gp) = tc_grounded(&g);
            let mo = grounded_circuit(&gp, None);
            layer_counts.push(mo.layers);
        }
        assert!(layer_counts[0] < layer_counts[1] && layer_counts[1] < layer_counts[2]);
    }

    #[test]
    fn truncated_layers_underapproximate() {
        // With only 2 layers, long paths are missing: the polynomial at
        // T(0,4) on a 4-path must be 0 (path needs 4 iterations).
        let g = generators::path(4, "E");
        let (p, db, gp) = tc_grounded(&g);
        let mo = grounded_circuit(&gp, Some(2));
        let t = p.preds.get("T").unwrap();
        let fact = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(4).unwrap()])
            .unwrap();
        assert!(mo.circuit_for(fact).polynomial().is_empty());
    }

    #[test]
    fn dyck_program_provenance_matches() {
        let mut p = programs::dyck1();
        let g = generators::dyck_path(4, 3);
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let mo = grounded_circuit(&gp, None);
        let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
        assert!(out.converged);
        for fact in 0..gp.num_idb_facts() {
            assert_eq!(mo.circuit_for(fact).polynomial(), out.values[fact]);
        }
        let _ = db;
    }
}
