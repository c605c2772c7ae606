//! The Bellman–Ford circuit for transitive-closure provenance
//! (Theorem 5.6): size O(mn), depth O(n log n), over any absorptive
//! semiring.
//!
//! `f^k_j` computes the ⊕-sum over walks of length ≤ k from the source to
//! `j` of the ⊗-product of their edge variables; walks that are not paths
//! are absorbed by their path sub-monomials (the proof of Thm 5.6). The
//! recursion is `f^k_j = f^{k-1}_j ⊕ ⊕_{(i,j)∈E} f^{k-1}_i ⊗ x_{i,j}`, run
//! for `n-1` layers (hash-consing stops earlier when the layers stabilize).

use graphgen::{LabeledDigraph, NodeId};
use semiring::VarId;

use crate::arena::{Circuit, CircuitBuilder, GateId};
use crate::constructions::MultiOutput;

/// Build Bellman–Ford gates for all targets from source `s`; output `j` is
/// the provenance of "some path with ≥ 1 edge from `s` to `j`".
pub fn bellman_ford_all(
    num_nodes: usize,
    edges: &[(NodeId, NodeId)],
    vars: &[VarId],
    s: NodeId,
) -> MultiOutput {
    assert_eq!(edges.len(), vars.len());
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for (e, &(_, v)) in edges.iter().enumerate() {
        in_edges[v as usize].push(e);
    }
    let mut b = CircuitBuilder::new();
    let zero = b.zero();

    // f^1_j = ⊕ of variables of edges (s, j).
    let mut f: Vec<GateId> = vec![zero; num_nodes];
    for (j, slot) in f.iter_mut().enumerate() {
        let direct: Vec<GateId> = in_edges[j]
            .iter()
            .filter(|&&e| edges[e].0 == s)
            .map(|&e| b.input(vars[e]))
            .collect();
        *slot = b.add_many(&direct);
    }

    // n-1 layers cover all simple paths (s ≠ t); running to layer n also
    // covers simple cycles through s, so self-facts T(s,s) are exact too.
    let mut layers = 1;
    for _ in 2..=num_nodes {
        let mut next = vec![zero; num_nodes];
        for (j, slot) in next.iter_mut().enumerate() {
            let mut summands = Vec::with_capacity(in_edges[j].len() + 1);
            summands.push(f[j]);
            for &e in &in_edges[j] {
                let (i, _) = edges[e];
                let x = b.input(vars[e]);
                summands.push(b.mul(f[i as usize], x));
            }
            *slot = b.add_many(&summands);
        }
        layers += 1;
        if next == f {
            break;
        }
        f = next;
    }
    MultiOutput::new(b, f, layers)
}

/// The Theorem 5.6 circuit for a single fact `T(s, t)`.
pub fn bellman_ford_circuit(
    num_nodes: usize,
    edges: &[(NodeId, NodeId)],
    vars: &[VarId],
    s: NodeId,
    t: NodeId,
) -> Circuit {
    let mo = bellman_ford_all(num_nodes, edges, vars, s);
    mo.circuit_for(t as usize)
}

/// Wrapper for a [`LabeledDigraph`] (labels ignored; edge ids are the
/// provenance variables).
pub fn bellman_ford_graph(g: &LabeledDigraph, s: NodeId, t: NodeId) -> Circuit {
    let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    let vars: Vec<VarId> = (0..g.num_edges() as VarId).collect();
    bellman_ford_circuit(g.num_nodes(), &edges, &vars, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use datalog::Exec;
    use datalog::{programs, Database};
    use graphgen::generators;
    use semiring::{Semiring, Tropical, UnitWeights};

    fn tc_oracle(g: &graphgen::LabeledDigraph, s: usize, t: usize) -> Option<semiring::Sorp> {
        let mut p = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let tpred = p.preds.get("T").unwrap();
        gp.fact(
            tpred,
            &[db.node_const(s).unwrap(), db.node_const(t).unwrap()],
        )
        .map(|f| {
            let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
            out.values[f].clone()
        })
    }

    #[test]
    fn matches_tc_provenance_on_random_graphs() {
        for seed in 0..4u64 {
            let g = generators::gnm(7, 15, &["E"], seed);
            for (s, t) in [(0usize, 6usize), (1, 5), (2, 2)] {
                let circuit = bellman_ford_graph(&g, s as NodeId, t as NodeId);
                match tc_oracle(&g, s, t) {
                    Some(poly) => {
                        assert_eq!(circuit.polynomial(), poly, "seed {seed} ({s},{t})")
                    }
                    None => assert!(circuit.polynomial().is_empty(), "seed {seed} ({s},{t})"),
                }
            }
        }
    }

    #[test]
    fn works_on_cyclic_graphs() {
        let g = generators::cycle(4, "E");
        let circuit = bellman_ford_graph(&g, 0, 0);
        // Provenance of T(0,0): the full 4-cycle.
        let poly = circuit.polynomial();
        assert_eq!(poly.len(), 1);
        assert_eq!(poly.degree(), 4);
    }

    #[test]
    fn tropical_value_is_shortest_path() {
        let g = generators::gnm(10, 30, &["E"], 11);
        for t in 1..6u32 {
            let circuit = bellman_ford_graph(&g, 0, t);
            let val = circuit.eval(&UnitWeights::new(Tropical::new(1)));
            match g.bfs_distances(0)[t as usize] {
                Some(d) if d > 0 => assert_eq!(val, Tropical::new(d)),
                _ => assert!(val.is_zero()),
            }
        }
    }

    #[test]
    fn size_scales_as_m_times_n() {
        // Dense graph: size should grow ~ n·m; depth ~ n log n.
        let mut sizes = Vec::new();
        for n in [6usize, 12] {
            let g = generators::complete(n, "E");
            let circuit = bellman_ford_graph(&g, 0, (n - 1) as NodeId);
            sizes.push(stats(&circuit).num_gates as f64);
        }
        // m·n grows 16× from n=6 to n=12 (m ~ n²); allow slack but demand
        // clearly superquadratic growth (> 6×).
        assert!(sizes[1] / sizes[0] > 6.0, "sizes: {sizes:?}");
    }

    #[test]
    fn depth_grows_linearly_with_n_on_paths() {
        let mut depths = Vec::new();
        for n in [8usize, 16, 32] {
            let g = generators::path(n, "E");
            let circuit = bellman_ford_graph(&g, 0, n as NodeId);
            depths.push(stats(&circuit).depth as f64);
        }
        assert!(depths[1] / depths[0] > 1.6, "depths: {depths:?}");
        assert!(depths[2] / depths[1] > 1.6, "depths: {depths:?}");
    }
}
