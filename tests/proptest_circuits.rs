//! Property-based integration tests: on random graphs, every construction
//! computes the same canonical provenance polynomial, evaluation is a
//! semiring homomorphism, and the reductions are exact.

use datalog_circuits::circuit;
use datalog_circuits::datalog::{self, programs, Database, Exec};
use datalog_circuits::graphgen::{generators, LabeledDigraph};
use datalog_circuits::semiring::prelude::*;
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = LabeledDigraph> {
    (4usize..8, 6usize..16, any::<u64>())
        .prop_map(|(n, m, seed)| generators::gnm(n, m, &["E"], seed))
}

fn tc_grounding(g: &LabeledDigraph) -> (datalog::Program, Database, datalog::GroundedProgram) {
    let mut p = programs::transitive_closure();
    let (db, _) = Database::from_graph(&mut p, g);
    let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
    (p, db, gp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four TC constructions produce identical Sorp polynomials for
    /// every derivable fact (hence agree over every absorptive semiring).
    #[test]
    fn constructions_agree_on_random_graphs(g in small_graph()) {
        let (_, _, gp) = tc_grounding(&g);
        let grounded = circuit::grounded_circuit(&gp, None);
        let uvg = circuit::uvg_circuit(&gp, None);
        for fact in 0..gp.num_idb_facts() {
            prop_assert_eq!(
                grounded.circuit_for(fact).polynomial(),
                uvg.circuit_for(fact).polynomial(),
                "fact {}", fact
            );
        }
    }

    /// Bellman–Ford over the graph equals the grounded provenance per pair.
    #[test]
    fn bellman_ford_matches_engine(g in small_graph()) {
        let (p, db, gp) = tc_grounding(&g);
        let t = p.preds.get("T").unwrap();
        let prov = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
        prop_assert!(prov.converged);
        for src in 0..g.num_nodes().min(3) as u32 {
            let mo = circuit::bellman_ford_all(
                g.num_nodes(),
                &g.edges().iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
                &(0..g.num_edges() as u32).collect::<Vec<_>>(),
                src,
            );
            for dst in 0..g.num_nodes() as u32 {
                let poly = mo.circuit_for(dst as usize).polynomial();
                match gp.fact(t, &[
                    db.node_const(src as usize).unwrap(),
                    db.node_const(dst as usize).unwrap(),
                ]) {
                    Some(f) => prop_assert_eq!(&poly, &prov.values[f], "({},{})", src, dst),
                    None => prop_assert!(poly.is_empty(), "({},{})", src, dst),
                }
            }
        }
    }

    /// Direct evaluation over the tropical semiring factors through the
    /// polynomial (evaluation is a homomorphism — §2.5 "computes").
    #[test]
    fn eval_factors_through_polynomial(g in small_graph(), w in 1u64..9) {
        let (_, _, gp) = tc_grounding(&g);
        let mo = circuit::grounded_circuit(&gp, None);
        let assign = from_fn(move |v: u32| Tropical::new((v as u64 % w) + 1));
        for fact in 0..gp.num_idb_facts() {
            let c = mo.circuit_for(fact);
            prop_assert_eq!(c.eval(&assign), c.polynomial().eval(&assign));
        }
    }

    /// Input substitution commutes with polynomial semantics: substituting
    /// x ↦ 1 in the circuit equals substituting in the polynomial.
    #[test]
    fn substitution_commutes(g in small_graph(), kill in 0u32..12) {
        let (_, _, gp) = tc_grounding(&g);
        let mo = circuit::grounded_circuit(&gp, None);
        for fact in 0..gp.num_idb_facts().min(6) {
            let c = mo.circuit_for(fact);
            let sub = c.substitute_inputs(&|v| if v == kill {
                circuit::InputSubst::One
            } else {
                circuit::InputSubst::Var(v)
            });
            // Evaluate original with x_kill = 1 over the tropical semiring.
            let assign_killed = from_fn(move |v: u32| if v == kill {
                Tropical::one()
            } else {
                Tropical::new((v as u64 % 5) + 1)
            });
            let assign_plain = from_fn(move |v: u32| Tropical::new((v as u64 % 5) + 1));
            prop_assert_eq!(c.eval(&assign_killed), sub.eval(&assign_plain));
        }
    }

    /// Naive evaluation converges within the default budget over the
    /// universal absorptive semiring on any small input (0-stability).
    #[test]
    fn sorp_eval_converges(g in small_graph()) {
        let (_, _, gp) = tc_grounding(&g);
        let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
        prop_assert!(out.converged);
        // Values booleanize to derivability.
        for (i, v) in out.values.iter().enumerate() {
            prop_assert!(!v.is_empty(), "fact {} derivable but 0", i);
        }
    }

    /// The Theorem 5.9 reduction is exact on random layered instances.
    #[test]
    fn tc_to_rpq_reduction_exact(seed in 0u64..200, width in 2usize..4, layers in 2usize..4) {
        let re = datalog_circuits::grammar::Regex::parse("a b* c").unwrap();
        let mut alphabet = datalog_circuits::grammar::Alphabet::new();
        let dfa = datalog_circuits::grammar::Dfa::compile(&re, &mut alphabet);
        let pumping = datalog_circuits::grammar::RegularPumping::from_dfa(&dfa).unwrap();
        let (g, s, t) = generators::layered(width, layers, 0.6, "E", seed);
        let inst = circuit::tc_to_rpq(&g, s, t, &pumping, &|tt| alphabet.name(tt).to_owned());
        let mut eg = inst.graph.clone();
        let dfa2 = datalog_circuits::grammar::Dfa::compile(&re, &mut eg.alphabet);
        let big = circuit::rpq_circuit(&eg, &dfa2, inst.src, inst.dst, circuit::TcStrategy::BellmanFord);
        let rewired = inst.rewire(&big);
        let (p, db, gp) = tc_grounding(&g);
        let expect = match datalog_circuits::datalog::ground(&p, &db, &Exec::default()).ok().and_then(|_| {
            gp.fact(p.preds.get("T").unwrap(), &[
                db.node_const(s as usize).unwrap(),
                db.node_const(t as usize).unwrap(),
            ])
        }) {
            Some(f) => datalog::provenance_eval(&gp, datalog::default_budget(&gp)).values[f].clone(),
            None => Sorp::zero(),
        };
        prop_assert_eq!(rewired.polynomial(), expect);
    }
}
