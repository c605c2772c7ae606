//! Linear-size, O(log n)-depth circuits for finite RPQs (Theorem 5.8).
//!
//! For a left-linear chain program whose regular language is finite, the
//! magic-set rewriting bound to the query source makes every IDB unary; the
//! rewritten program has an O(m)-size grounding and reaches its fixpoint in
//! at most `longest word + 1` iterations, so the layered circuit has O(m)
//! size and O(log n) depth. This is the upper half of the Theorem 5.3
//! depth dichotomy.

use datalog::{classify, magic_rewrite, Database, Exec, Program};
use grammar::{CfgAnalysis, Cnf};
use graphgen::{LabeledDigraph, NodeId};
use provcirc_error::Error;

use crate::arena::Circuit;
use crate::constructions::grounded::grounded_circuit;

/// Outcome of the Theorem 5.8 construction.
#[derive(Clone, Debug)]
pub struct FiniteRpqCircuit {
    /// The circuit for the queried fact (constant 0 if not derivable).
    pub circuit: Circuit,
    /// Longest word of the (finite) language — the layer bound.
    pub longest_word: u64,
    /// Size of the rewritten program's grounding.
    pub grounding_size: usize,
    /// Total gates in the construction's shared arena (the circuit for the
    /// *whole* query, all targets at once) — the paper's O(m) object.
    pub arena_gates: usize,
}

/// Build the linear-size circuit for `target(src, dst)` of a left-linear
/// chain program with a finite language.
///
/// Errors if the program is not a left-linear chain program or its language
/// is infinite (then Theorem 5.9's Ω(log² n) lower bound applies instead).
pub fn finite_rpq_circuit(
    program: &Program,
    graph: &LabeledDigraph,
    src: NodeId,
    dst: NodeId,
) -> Result<FiniteRpqCircuit, Error> {
    if !classify(program).is_left_linear_chain {
        return Err(Error::unsupported(
            "Theorem 5.8 needs a left-linear chain program",
        ));
    }
    let cfg = datalog::chain_to_cfg(program)?;
    let cnf = Cnf::from_cfg(&cfg);
    let analysis = CfgAnalysis::new(&cnf);
    let longest_word = analysis
        .longest_word_len(&cnf)
        .ok_or_else(|| Error::unsupported("language is infinite: Theorem 5.8 does not apply"))?;

    let rewritten = magic_rewrite(program, &format!("v{src}"))?;
    let mut p = rewritten.program;
    let (db, _) = Database::from_graph(&mut p, graph);
    let gp = datalog::ground(&p, &db, &Exec::default())?;
    let mo = grounded_circuit(&gp, Some(longest_word as usize + 1));

    let target_name = format!("{}_s", program.preds.name(program.target));
    let tpred = p
        .preds
        .get(&target_name)
        .ok_or_else(|| Error::unsupported("rewritten target missing"))?;
    let circuit = match db
        .node_const(dst as usize)
        .and_then(|c| gp.fact(tpred, &[c]))
    {
        Some(fact) => mo.circuit_for(fact),
        None => {
            // Not derivable: the constant-0 circuit.
            let mut b = crate::arena::CircuitBuilder::new();
            let z = b.zero();
            b.finish(z)
        }
    };
    Ok(FiniteRpqCircuit {
        circuit,
        longest_word,
        grounding_size: gp.size(),
        arena_gates: mo.arena_size(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use datalog::programs;
    use graphgen::generators;

    /// A left-linear program for the finite language {E·E·E}.
    fn three_hop_left_linear() -> Program {
        datalog::parse_program(
            "P3(X,Y) :- P2(X,Z), E(Z,Y).\n\
             P2(X,Y) :- P1(X,Z), E(Z,Y).\n\
             P1(X,Y) :- E(X,Y).\n\
             @target P3",
        )
        .unwrap()
    }

    #[test]
    fn rejects_infinite_languages_and_non_chain() {
        let tc = programs::transitive_closure();
        let g = generators::path(3, "E");
        assert!(finite_rpq_circuit(&tc, &g, 0, 3)
            .unwrap_err()
            .to_string()
            .contains("infinite"));
        let monadic = programs::monadic_reachability();
        assert!(finite_rpq_circuit(&monadic, &g, 0, 3).is_err());
    }

    #[test]
    fn matches_tc_truncation_on_paths() {
        // P3(0, 3) on a 3-path: exactly one monomial (the full path).
        let p = three_hop_left_linear();
        let g = generators::path(3, "E");
        let out = finite_rpq_circuit(&p, &g, 0, 3).unwrap();
        assert_eq!(out.longest_word, 3);
        let poly = out.circuit.polynomial();
        assert_eq!(poly.len(), 1);
        assert_eq!(poly.degree(), 3);
        // And P3(0, 2) is empty.
        let out2 = finite_rpq_circuit(&p, &g, 0, 2).unwrap();
        assert!(out2.circuit.polynomial().is_empty());
    }

    #[test]
    fn matches_direct_grounding_provenance() {
        for seed in 0..3u64 {
            let p = three_hop_left_linear();
            let g = generators::gnm(7, 16, &["E"], seed);
            for dst in 1..5u32 {
                let out = finite_rpq_circuit(&p, &g, 0, dst).unwrap();
                // Oracle: ground the *original* program, read P3(v0, vdst).
                let mut po = three_hop_left_linear();
                let (db, _) = Database::from_graph(&mut po, &g);
                let gp = datalog::ground(&po, &db, &Exec::default()).unwrap();
                let t = po.preds.get("P3").unwrap();
                let expect = gp
                    .fact(
                        t,
                        &[
                            db.node_const(0).unwrap(),
                            db.node_const(dst as usize).unwrap(),
                        ],
                    )
                    .map(|f| datalog::provenance_polynomial(&gp, f, 100_000).unwrap());
                match expect {
                    Some(poly) => {
                        assert_eq!(out.circuit.polynomial(), poly, "seed {seed} dst {dst}")
                    }
                    None => assert!(out.circuit.polynomial().is_empty()),
                }
            }
        }
    }

    #[test]
    fn grounding_and_size_are_linear_in_m() {
        let p = three_hop_left_linear();
        let mut rows = Vec::new();
        for n in [16usize, 32, 64] {
            let g = generators::gnm(n, 3 * n, &["E"], 5);
            let out = finite_rpq_circuit(&p, &g, 0, (n - 1) as NodeId).unwrap();
            rows.push((g.num_edges(), out.grounding_size));
        }
        // Grounding size per edge stays bounded (linear-size witness).
        for &(m, gsize) in &rows {
            assert!(gsize <= 8 * m, "grounding {gsize} for m={m}");
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let p = three_hop_left_linear();
        let mut depths = Vec::new();
        for n in [16usize, 64] {
            let g = generators::gnm(n, 4 * n, &["E"], 9);
            let out = finite_rpq_circuit(&p, &g, 0, (n - 1) as NodeId).unwrap();
            depths.push(stats(&out.circuit).depth as f64);
        }
        // 4× the input should add only additive O(log) depth.
        assert!(depths[1] <= depths[0] + 8.0, "{depths:?}");
    }
}
