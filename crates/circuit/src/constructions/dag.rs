//! Linear-size circuits for reachability provenance on DAGs
//! (Theorem 3.5: "the graph itself is a circuit").
//!
//! For an acyclic graph, the gate of a vertex `v` is the ⊕-sum over incoming
//! edges `(u, v)` of `gate(u) ⊗ x_{(u,v)}`, with `gate(s) = 1`. The output
//! `gate(t)` computes the sum over all `s → t` paths of the product of their
//! edge variables — linear size, depth linear in the longest path (times a
//! log factor for fan-in-2 sums). On an `(ℓ, L)`-layered graph this is
//! exactly the paper's linear-size, linear-depth circuit, the counterpoint
//! to the Ω(log² n) *depth* lower bound of Theorem 3.4.

use graphgen::{LabeledDigraph, NodeId};
use provcirc_error::Error;
use semiring::VarId;

use crate::arena::{Circuit, CircuitBuilder};

/// Build the Theorem 3.5 circuit for `s → t` path provenance on an acyclic
/// edge list. `vars[e]` is the provenance variable of edge `e`.
///
/// Returns an error if the (live part of the) graph has a cycle.
pub fn dag_path_circuit(
    num_nodes: usize,
    edges: &[(NodeId, NodeId)],
    vars: &[VarId],
    s: NodeId,
    t: NodeId,
) -> Result<Circuit, Error> {
    assert_eq!(edges.len(), vars.len());
    // Kahn topological order.
    let mut indegree = vec![0usize; num_nodes];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    let mut out_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); num_nodes];
    for (e, &(u, v)) in edges.iter().enumerate() {
        indegree[v as usize] += 1;
        in_edges[v as usize].push(e);
        out_nodes[u as usize].push(v);
    }
    let mut order: Vec<NodeId> = Vec::with_capacity(num_nodes);
    let mut queue: Vec<NodeId> = (0..num_nodes as NodeId)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    while let Some(u) = queue.pop() {
        order.push(u);
        for &v in &out_nodes[u as usize] {
            indegree[v as usize] -= 1;
            if indegree[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    if order.len() != num_nodes {
        return Err(Error::unsupported(
            "graph has a cycle; Theorem 3.5 needs a DAG",
        ));
    }

    let mut b = CircuitBuilder::new();
    let zero = b.zero();
    let one = b.one();
    let mut gate = vec![zero; num_nodes];
    gate[s as usize] = one;
    for &v in &order {
        if v == s {
            continue; // the source contributes the empty path only
        }
        let summands: Vec<_> = in_edges[v as usize]
            .iter()
            .map(|&e| {
                let src_gate = gate[edges[e].0 as usize];
                let x = b.input(vars[e]);
                b.mul(src_gate, x)
            })
            .collect();
        gate[v as usize] = b.add_many(&summands);
    }
    Ok(b.finish(gate[t as usize]))
}

/// Wrapper for a [`LabeledDigraph`] with edge ids as provenance variables.
pub fn dag_path_circuit_graph(g: &LabeledDigraph, s: NodeId, t: NodeId) -> Result<Circuit, Error> {
    let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    let vars: Vec<VarId> = (0..g.num_edges() as VarId).collect();
    dag_path_circuit(g.num_nodes(), &edges, &vars, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use datalog::Exec;
    use datalog::{programs, Database};
    use graphgen::generators;
    use semiring::Semiring;
    use semiring::Tropical;
    use semiring::UnitWeights;

    #[test]
    fn matches_tc_provenance_on_layered_graphs() {
        for seed in 0..3u64 {
            let (g, s, t) = generators::layered(3, 3, 0.7, "E", seed);
            let circuit = dag_path_circuit_graph(&g, s, t).unwrap();
            // Oracle: grounded TC provenance of T(s,t).
            let mut p = programs::transitive_closure();
            let (db, _) = Database::from_graph(&mut p, &g);
            let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
            let tpred = p.preds.get("T").unwrap();
            let expected = gp
                .fact(
                    tpred,
                    &[
                        db.node_const(s as usize).unwrap(),
                        db.node_const(t as usize).unwrap(),
                    ],
                )
                .map(|f| datalog::provenance_polynomial(&gp, f, 100_000).unwrap());
            match expected {
                Some(poly) => assert_eq!(circuit.polynomial(), poly, "seed {seed}"),
                None => assert!(circuit.polynomial().is_empty(), "seed {seed}"),
            }
        }
    }

    #[test]
    fn size_is_linear_in_edges() {
        for (w, l) in [(3usize, 4usize), (4, 8), (5, 12)] {
            let (g, s, t) = generators::layered(w, l, 1.0, "E", 1);
            let circuit = dag_path_circuit_graph(&g, s, t).unwrap();
            let st = stats(&circuit);
            // ≤ 3 gates per edge (input, mul, share of adds) + constants.
            assert!(
                st.num_gates <= 3 * g.num_edges() + 3,
                "w={w} l={l}: {} gates for {} edges",
                st.num_gates,
                g.num_edges()
            );
        }
    }

    #[test]
    fn depth_is_linear_in_layers() {
        let mut depths = Vec::new();
        for l in [4usize, 8, 16] {
            let (g, s, t) = generators::layered(3, l, 1.0, "E", 1);
            let circuit = dag_path_circuit_graph(&g, s, t).unwrap();
            depths.push(stats(&circuit).depth);
        }
        // Depth grows linearly with the number of layers.
        let d0 = depths[0] as f64;
        assert!((depths[1] as f64) > 1.7 * d0);
        assert!((depths[2] as f64) > 3.4 * d0);
    }

    #[test]
    fn rejects_cycles() {
        let g = generators::cycle(3, "E");
        assert!(dag_path_circuit_graph(&g, 0, 1).is_err());
    }

    #[test]
    fn tropical_value_is_shortest_path() {
        let g = generators::random_dag(10, 0.5, "E", 4);
        if let Ok(circuit) = dag_path_circuit_graph(&g, 0, 9) {
            let val = circuit.eval(&UnitWeights::new(Tropical::new(1)));
            match g.bfs_distances(0)[9] {
                Some(d) => assert_eq!(val, Tropical::new(d)),
                None => assert!(val.is_zero()),
            }
        }
    }
}
