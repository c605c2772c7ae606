//! Compilation of Datalog facts into provenance circuits: strategy
//! selection and dispatch over the paper's constructions.
//!
//! The session-level entry point is [`crate::Engine`], which owns and
//! caches the grounding/classification these strategies share. The free
//! functions [`compile_fact`] and [`compile_graph_fact`] remain as thin
//! one-shot shims over a throwaway engine.

use circuit::{Circuit, CircuitStats};
use datalog::{Database, Program};
use grammar::{Cfg, Dfa};
use graphgen::{LabeledDigraph, NodeId};
use provcirc_error::Error;

use crate::boundedness::Verdict;
use crate::classify::Classification;
use crate::engine::Engine;

/// Which construction to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Pick based on [`crate::classify_program`].
    Auto,
    /// Theorem 3.1: layered circuit over the grounding, run to fixpoint.
    GroundedFixpoint,
    /// Theorem 4.3: layered circuit truncated at the boundedness constant
    /// (determined by a provenance probe when not supplied).
    BoundedLayered,
    /// Theorem 5.8: magic-set rewriting for finite left-linear RPQs
    /// (graph facts only).
    MagicFiniteRpq,
    /// Theorem 5.6 on the Theorem 5.9 product graph (graph facts only).
    ProductBellmanFord,
    /// Theorem 5.7 on the product graph (graph facts only).
    ProductSquaring,
    /// Theorem 6.2: the Ullman–Van Gelder O(log² m)-depth circuit.
    UllmanVanGelder,
}

/// A compiled fact.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The circuit computing the fact's provenance polynomial.
    pub circuit: Circuit,
    /// The strategy actually used (resolved from `Auto`).
    pub strategy: Strategy,
    /// Live-circuit metrics.
    pub stats: CircuitStats,
    /// The classification that drove `Auto` (always populated).
    pub classification: Classification,
}

/// Resolve `Auto` for a database-backed session (no graph strategies).
pub(crate) fn resolve_db_auto(c: &Classification) -> Strategy {
    if matches!(
        c.boundedness.verdict,
        Verdict::Bounded(_) | Verdict::LikelyBounded(_)
    ) || !c.syntax.is_recursive
    {
        Strategy::BoundedLayered
    } else if c.poly_fringe {
        Strategy::UllmanVanGelder
    } else {
        Strategy::GroundedFixpoint
    }
}

/// Resolve `Auto` for a graph-backed session.
pub(crate) fn resolve_graph_auto(c: &Classification) -> Strategy {
    if let Some(g) = &c.grammar {
        if g.regular {
            return if g.language == grammar::LanguageSize::Infinite {
                Strategy::ProductSquaring
            } else {
                Strategy::MagicFiniteRpq
            };
        }
    }
    resolve_db_auto(c)
}

/// Compile the provenance circuit of `pred(tuple…)` against a database.
///
/// One-shot shim over [`Engine`]: sessions with more than one query should
/// build the engine directly to reuse the grounding and classification.
/// Graph-specific strategies (`MagicFiniteRpq`, `Product*`) are rejected
/// here; use [`compile_graph_fact`] for chain programs over labeled graphs.
pub fn compile_fact(
    program: &Program,
    db: &Database,
    pred: &str,
    tuple: &[&str],
    strategy: Strategy,
) -> Result<Compiled, Error> {
    let engine = Engine::builder()
        .program(program.clone())
        .database(db.clone())
        .build()?;
    let compiled = engine.query(pred, tuple)?.circuit(strategy)?;
    drop(engine);
    Ok(std::sync::Arc::try_unwrap(compiled).unwrap_or_else(|rc| (*rc).clone()))
}

/// Compile `target(v_src, v_dst)` for a basic chain program over a labeled
/// graph, enabling the graph-specialized constructions.
///
/// One-shot shim over [`Engine`] (see [`compile_fact`]).
pub fn compile_graph_fact(
    program: &Program,
    graph: &LabeledDigraph,
    src: NodeId,
    dst: NodeId,
    strategy: Strategy,
) -> Result<Compiled, Error> {
    let engine = Engine::builder()
        .program(program.clone())
        .graph(graph)
        .build()?;
    let compiled = engine.node_query(src, dst)?.circuit(strategy)?;
    drop(engine);
    Ok(std::sync::Arc::try_unwrap(compiled).unwrap_or_else(|rc| (*rc).clone()))
}

/// The minimal DFA of a left-linear chain program, translated onto the
/// graph's alphabet ids.
pub fn chain_program_dfa(program: &Program, graph: &LabeledDigraph) -> Result<Dfa, Error> {
    let cfg: Cfg = datalog::chain_to_cfg(program)?;
    let dfa = grammar::left_linear_dfa(&cfg)
        .ok_or_else(|| Error::unsupported("program is not left-linear; no RPQ automaton"))?;
    // Translate terminal ids: cfg alphabet → graph alphabet (by name).
    let transitions: Vec<(usize, grammar::Terminal, usize)> = dfa
        .transitions()
        .filter_map(|(q, t, q2)| {
            graph
                .alphabet
                .get(cfg.alphabet.name(t))
                .map(|t2| (q, t2, q2))
        })
        .collect();
    Ok(Dfa::from_parts(
        dfa.num_states,
        dfa.start,
        dfa.accepting.clone(),
        graph.alphabet.len().max(1),
        &transitions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::programs;
    use datalog::Exec;
    use graphgen::generators;
    use semiring::{Tropical, UnitWeights};

    #[test]
    fn auto_picks_squaring_for_tc() {
        let p = programs::transitive_closure();
        let g = generators::gnm(6, 12, &["E"], 1);
        let c = compile_graph_fact(&p, &g, 0, 4, Strategy::Auto).unwrap();
        assert_eq!(c.strategy, Strategy::ProductSquaring);
    }

    #[test]
    fn auto_picks_magic_for_finite_rpq() {
        let p = datalog::parse_program(
            "P3(X,Y) :- P2(X,Z), E(Z,Y).\n\
             P2(X,Y) :- P1(X,Z), E(Z,Y).\n\
             P1(X,Y) :- E(X,Y).\n\
             @target P3",
        )
        .unwrap();
        let g = generators::path(3, "E");
        let c = compile_graph_fact(&p, &g, 0, 3, Strategy::Auto).unwrap();
        assert_eq!(c.strategy, Strategy::MagicFiniteRpq);
        assert_eq!(c.circuit.polynomial().len(), 1);
    }

    #[test]
    fn all_graph_strategies_agree_on_tc() {
        let p = programs::transitive_closure();
        for seed in 0..3u64 {
            let g = generators::gnm(6, 13, &["E"], seed);
            let reference = compile_graph_fact(&p, &g, 0, 5, Strategy::GroundedFixpoint)
                .unwrap()
                .circuit
                .polynomial();
            for strat in [
                Strategy::ProductBellmanFord,
                Strategy::ProductSquaring,
                Strategy::UllmanVanGelder,
                Strategy::Auto,
            ] {
                let c = compile_graph_fact(&p, &g, 0, 5, strat).unwrap();
                assert_eq!(c.circuit.polynomial(), reference, "seed {seed} {strat:?}");
            }
        }
    }

    #[test]
    fn compile_fact_on_non_graph_database() {
        // Monadic reachability with a seeded A fact.
        let mut p = programs::monadic_reachability();
        let g = generators::path(3, "E");
        let (mut db, _) = Database::from_graph(&mut p, &g);
        let a = p.preds.get("A").unwrap();
        let v3 = db.node_const(3).unwrap();
        db.insert(a, &[v3]);
        let c = compile_fact(&p, &db, "U", &["v0"], Strategy::Auto).unwrap();
        // U(v0): reached via the whole path; polynomial = a_{v3}·e01·e12·e23.
        assert_eq!(c.strategy, Strategy::UllmanVanGelder);
        let poly = c.circuit.polynomial();
        assert_eq!(poly.len(), 1);
        assert_eq!(poly.degree(), 4);
        // Tropical check: weight = sum of 4 unit weights.
        assert_eq!(
            c.circuit.eval(&UnitWeights::new(Tropical::new(1))),
            Tropical::new(4)
        );
    }

    #[test]
    fn graph_strategies_are_rejected_for_plain_databases() {
        let mut p = programs::transitive_closure();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        for strat in [Strategy::MagicFiniteRpq, Strategy::ProductSquaring] {
            let err = compile_fact(&p, &db, "T", &["v0", "v2"], strat).unwrap_err();
            assert!(matches!(err, Error::Unsupported(_)), "{err}");
            assert!(err.to_string().contains("graph"), "{err}");
        }
    }

    #[test]
    fn magic_strategy_rejected_for_infinite_language() {
        let p = programs::transitive_closure();
        let g = generators::path(3, "E");
        assert!(compile_graph_fact(&p, &g, 0, 3, Strategy::MagicFiniteRpq).is_err());
    }

    #[test]
    fn unknown_predicates_and_constants_error_cleanly() {
        let mut p = programs::transitive_closure();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        assert!(matches!(
            compile_fact(&p, &db, "Nope", &["v0", "v1"], Strategy::Auto).unwrap_err(),
            Error::UnknownPredicate(_)
        ));
        // Unknown constant: not an error, just the 0 circuit.
        let c = compile_fact(&p, &db, "T", &["v0", "nosuch"], Strategy::GroundedFixpoint).unwrap();
        assert!(c.circuit.polynomial().is_empty());
    }

    #[test]
    fn underivable_facts_compile_to_zero() {
        let p = programs::transitive_closure();
        let g = generators::path(2, "E");
        let c = compile_graph_fact(&p, &g, 2, 0, Strategy::GroundedFixpoint).unwrap();
        assert!(c.circuit.polynomial().is_empty());
        let c2 = compile_graph_fact(&p, &g, 2, 0, Strategy::ProductSquaring).unwrap();
        assert!(c2.circuit.polynomial().is_empty());
    }

    #[test]
    fn bounded_layered_strategy_for_bounded_example() {
        let mut p = programs::bounded_example();
        let g = generators::path(5, "E");
        let (mut db, _) = Database::from_graph(&mut p, &g);
        let a = p.preds.get("A").unwrap();
        let v0 = db.node_const(0).unwrap();
        db.insert(a, &[v0]);
        let c = compile_fact(&p, &db, "T", &["v0", "v3"], Strategy::Auto).unwrap();
        assert_eq!(c.strategy, Strategy::BoundedLayered);
        // Oracle agreement.
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let t = p.preds.get("T").unwrap();
        let f = gp.fact(t, &[v0, db.node_const(3).unwrap()]).unwrap();
        let expect = datalog::provenance_polynomial(&gp, f, 100_000).unwrap();
        assert_eq!(c.circuit.polynomial(), expect);
    }
}
