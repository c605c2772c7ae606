//! RPQ circuits via the product-graph reduction to TC (Theorem 5.9,
//! second direction).
//!
//! The RPQ over `G` becomes transitive closure over `G × DFA`: for each
//! accept state `q_f`, build a TC circuit from `(s, q₀)` to `(t, q_f)` and
//! ⊕-sum the results. Product edges carry the provenance variable of their
//! originating graph edge ("connecting the input variables based on its
//! projections to G"), so the resulting circuit directly computes the RPQ's
//! provenance polynomial — with the same size and depth as the underlying
//! TC construction, which is how the paper transfers both upper bounds.

use grammar::Dfa;
use graphgen::{product_with_dfa, LabeledDigraph, NodeId};
use semiring::VarId;

use crate::arena::{Circuit, CircuitBuilder};
use crate::constructions::bellman_ford::bellman_ford_all;
use crate::constructions::squaring::squaring_all;

/// Which TC construction to run on the product graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcStrategy {
    /// Theorem 5.6: size O(mn), depth O(n log n).
    BellmanFord,
    /// Theorem 5.7: size O(n³ log n), depth O(log² n).
    RepeatedSquaring,
}

/// Build the circuit for the RPQ fact `(src, dst)` with the given DFA
/// (compiled against the graph's alphabet).
///
/// Note: a `src = dst` query with `ε ∈ L` yields the constant 1 (the empty
/// path), mirroring the diagonal-1 convention of Theorem 5.7.
pub fn rpq_circuit(
    graph: &LabeledDigraph,
    dfa: &Dfa,
    src: NodeId,
    dst: NodeId,
    strategy: TcStrategy,
) -> Circuit {
    let prod = product_with_dfa(graph, dfa);
    let vars: Vec<VarId> = prod.edge_origin.iter().map(|&e| e as VarId).collect();
    let start = prod.node(src, dfa.start);
    let accepts: Vec<NodeId> = (0..dfa.num_states)
        .filter(|&q| dfa.accepting[q])
        .map(|q| prod.node(dst, q))
        .collect();

    match strategy {
        TcStrategy::BellmanFord => {
            let mo = bellman_ford_all(prod.num_nodes, &prod.edges, &vars, start);
            // ⊕-sum over accept states, plus the ε-path when applicable.
            merge_outputs(mo, &accepts, src == dst && dfa.accepting[dfa.start])
        }
        TcStrategy::RepeatedSquaring => {
            let sq = squaring_all(prod.num_nodes, &prod.edges, &vars);
            // The squaring matrix's diagonal 1 already covers the ε-path
            // when (src,q0) == (dst,qf).
            let circuits: Vec<Circuit> =
                accepts.iter().map(|&a| sq.circuit_for(start, a)).collect();
            sum_circuits(&circuits)
        }
    }
}

/// Merge several outputs of a [`super::MultiOutput`] into one ⊕-gate.
fn merge_outputs(mo: super::MultiOutput, outputs: &[NodeId], include_epsilon: bool) -> Circuit {
    // Clone the arena once and sum the chosen outputs within it.
    let circuits: Vec<Circuit> = outputs
        .iter()
        .map(|&o| mo.circuit_for(o as usize))
        .collect();
    let mut merged = sum_circuits(&circuits);
    if include_epsilon {
        // c ⊕ 1: over an absorptive semiring this is 1; keep it explicit so
        // the polynomial is faithful.
        let mut b = CircuitBuilder::new();
        let rebuilt = import(&mut b, &merged);
        let one = b.one();
        let out = b.add(rebuilt, one);
        merged = b.finish(out);
    }
    merged
}

/// ⊕-sum of independently built circuits (re-imported into one arena).
pub fn sum_circuits(circuits: &[Circuit]) -> Circuit {
    let mut b = CircuitBuilder::new();
    let outs: Vec<_> = circuits.iter().map(|c| import(&mut b, c)).collect();
    let out = b.add_many(&outs);
    b.finish(out)
}

/// Import a circuit into a builder, returning the mapped output gate.
/// Hash-consing deduplicates shared structure across imports.
pub fn import(b: &mut CircuitBuilder, c: &Circuit) -> crate::arena::GateId {
    use crate::arena::Gate;
    let mut map = Vec::with_capacity(c.gates().len());
    for gate in c.gates() {
        let id = match *gate {
            Gate::Zero => b.zero(),
            Gate::One => b.one(),
            Gate::Input(v) => b.input(v),
            Gate::Add(x, y) => {
                let (mx, my) = (map[x as usize], map[y as usize]);
                b.add(mx, my)
            }
            Gate::Mul(x, y) => {
                let (mx, my) = (map[x as usize], map[y as usize]);
                b.mul(mx, my)
            }
        };
        map.push(id);
    }
    map[c.output() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use datalog::Database;
    use datalog::Exec;
    use grammar::Regex;
    use graphgen::generators;
    use semiring::Semiring as _;

    /// Oracle: the chain-Datalog provenance of the RPQ via grounding.
    fn rpq_oracle(
        program_text: &str,
        g: &graphgen::LabeledDigraph,
        src: usize,
        dst: usize,
    ) -> Option<semiring::Sorp> {
        let mut p = datalog::parse_program(program_text).unwrap();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let t = p.target;
        gp.fact(
            t,
            &[db.node_const(src).unwrap(), db.node_const(dst).unwrap()],
        )
        .map(|f| {
            let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
            out.values[f].clone()
        })
    }

    #[test]
    fn tc_as_rpq_matches_datalog_for_both_strategies() {
        let tc_text = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";
        for seed in 0..3u64 {
            let mut g = generators::gnm(6, 12, &["E"], seed);
            let dfa = Dfa::compile(&Regex::parse("E E*").unwrap(), &mut g.alphabet);
            for (s, t) in [(0usize, 5usize), (1, 4)] {
                let oracle = rpq_oracle(tc_text, &g, s, t);
                for strat in [TcStrategy::BellmanFord, TcStrategy::RepeatedSquaring] {
                    let c = rpq_circuit(&g, &dfa, s as NodeId, t as NodeId, strat);
                    match &oracle {
                        Some(poly) => {
                            assert_eq!(&c.polynomial(), poly, "seed {seed} ({s},{t}) {strat:?}")
                        }
                        None => assert!(c.polynomial().is_empty()),
                    }
                }
            }
        }
    }

    #[test]
    fn two_label_rpq_matches_datalog() {
        // L = a b* — left-linear chain program:
        // T(x,y) :- A(x,y).  T(x,y) :- T(x,z), B(z,y).
        let text = "T(X,Y) :- A(X,Y).\nT(X,Y) :- T(X,Z), B(Z,Y).";
        for seed in 3..6u64 {
            let mut g = generators::gnm(6, 14, &["A", "B"], seed);
            let dfa = Dfa::compile(&Regex::parse("A B*").unwrap(), &mut g.alphabet);
            for (s, t) in [(0usize, 3usize), (2, 5)] {
                let oracle = rpq_oracle(text, &g, s, t);
                let c = rpq_circuit(&g, &dfa, s as NodeId, t as NodeId, TcStrategy::BellmanFord);
                match &oracle {
                    Some(poly) => {
                        assert_eq!(&c.polynomial(), poly, "seed {seed} ({s},{t})")
                    }
                    None => assert!(c.polynomial().is_empty(), "seed {seed} ({s},{t})"),
                }
            }
        }
    }

    #[test]
    fn squaring_strategy_keeps_polylog_depth() {
        let mut depths = Vec::new();
        for n in [8usize, 16, 32] {
            let mut g = generators::cycle(n, "E");
            let dfa = Dfa::compile(&Regex::parse("E E*").unwrap(), &mut g.alphabet);
            let c = rpq_circuit(&g, &dfa, 0, (n / 2) as NodeId, TcStrategy::RepeatedSquaring);
            depths.push(stats(&c).depth as f64);
        }
        assert!(depths[2] / depths[1] < 1.8, "{depths:?}");
    }

    #[test]
    fn epsilon_query_on_same_node() {
        let mut g = generators::path(2, "E");
        let dfa = Dfa::compile(&Regex::parse("E*").unwrap(), &mut g.alphabet);
        let c = rpq_circuit(&g, &dfa, 1, 1, TcStrategy::BellmanFord);
        // ε ∈ E*: the polynomial contains 1, which absorbs everything.
        assert!(c.polynomial().is_one());
    }
}
