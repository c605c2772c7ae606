//! Depth- and size-preserving circuit reductions (Theorems 5.9, 5.11, 6.8).
//!
//! These are the gadgets that transfer the Karchmer–Wigderson Ω(log² n)
//! depth lower bound (Theorem 3.4) from transitive closure to every
//! unbounded chain program: an instance of TC is *expanded* (each edge
//! becomes a pumped-word path), a circuit for the harder program on the
//! expanded instance is taken, and its inputs are rewired — one designated
//! expansion edge carries the original edge variable, every other expansion
//! input is wired to the constant 1. The result is a circuit for TC of the
//! same size and depth, so a shallow circuit for the program would yield a
//! shallow circuit for TC, contradiction.

use grammar::{CfgPumping, RegularPumping, Terminal};
use graphgen::{EdgeId, LabeledDigraph, NodeId};
use provcirc_error::Error;
use semiring::VarId;

use crate::arena::{Circuit, InputSubst};

/// Where each edge of an expanded instance came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpandedEdgeOrigin {
    /// Carries the provenance variable of this original edge.
    Original(EdgeId),
    /// Scaffolding: wired to 1 in the circuit reduction.
    Scaffold,
}

/// An expanded instance plus the query endpoints and the edge-origin map.
#[derive(Clone, Debug)]
pub struct ExpandedInstance {
    /// The expanded graph.
    pub graph: LabeledDigraph,
    /// Query source in the expanded graph.
    pub src: NodeId,
    /// Query target in the expanded graph.
    pub dst: NodeId,
    /// Per-edge origin (aligned with `graph.edges()`).
    pub origins: Vec<ExpandedEdgeOrigin>,
}

impl ExpandedInstance {
    /// The input substitution implementing the paper's rewiring: expanded
    /// edge variable ↦ original edge variable or the constant 1.
    pub fn substitution(&self) -> impl Fn(VarId) -> InputSubst + '_ {
        move |v: VarId| match self.origins.get(v as usize) {
            Some(ExpandedEdgeOrigin::Original(e)) => InputSubst::Var(*e as VarId),
            Some(ExpandedEdgeOrigin::Scaffold) => InputSubst::One,
            None => InputSubst::One,
        }
    }

    /// Apply the rewiring to a circuit built for the expanded instance
    /// (inputs = expanded edge ids), producing a TC circuit over the
    /// original edge variables — same depth, ≤ same size.
    pub fn rewire(&self, circuit: &Circuit) -> Circuit {
        circuit.substitute_inputs(&self.substitution())
    }
}

/// Theorem 5.9 (first direction): expand a TC instance into an RPQ instance
/// for an infinite regular language, using a pumping decomposition
/// `x y* z`. Every original edge becomes a path spelling `y` (its first
/// edge carries the original variable); a path spelling `x` leads into
/// `src`, and a path spelling `z` leaves `dst`.
pub fn tc_to_rpq(
    g: &LabeledDigraph,
    src: NodeId,
    dst: NodeId,
    pumping: &RegularPumping,
    label_name: &dyn Fn(Terminal) -> String,
) -> ExpandedInstance {
    let mut out = LabeledDigraph::new(g.num_nodes());
    let mut origins = Vec::new();

    // Original vertices keep their ids; helper to append a labeled path.
    let add_word_path = |out: &mut LabeledDigraph,
                         origins: &mut Vec<ExpandedEdgeOrigin>,
                         from: NodeId,
                         to: NodeId,
                         word: &[Terminal],
                         carried: Option<EdgeId>| {
        debug_assert!(!word.is_empty());
        let mut cur = from;
        for (i, &t) in word.iter().enumerate() {
            let next = if i + 1 == word.len() {
                to
            } else {
                out.add_nodes(1)
            };
            out.add_edge(cur, next, &label_name(t));
            origins.push(match (i, carried) {
                (0, Some(e)) => ExpandedEdgeOrigin::Original(e),
                _ => ExpandedEdgeOrigin::Scaffold,
            });
            cur = next;
        }
    };

    // Each original edge (u, v) becomes a y-path carrying the edge var.
    for (e, &(u, v, _)) in g.edges().iter().enumerate() {
        add_word_path(&mut out, &mut origins, u, v, &pumping.y, Some(e));
    }
    // x-prefix into src, z-suffix out of dst (pure scaffolding).
    let s0 = if pumping.x.is_empty() {
        src
    } else {
        let s0 = out.add_nodes(1);
        add_word_path(&mut out, &mut origins, s0, src, &pumping.x, None);
        s0
    };
    let t_end = if pumping.z.is_empty() {
        dst
    } else {
        let t_end = out.add_nodes(1);
        add_word_path(&mut out, &mut origins, dst, t_end, &pumping.z, None);
        t_end
    };
    ExpandedInstance {
        graph: out,
        src: s0,
        dst: t_end,
        origins,
    }
}

/// Theorem 5.11: expand a **layered** TC instance (all `src → dst` paths
/// have the same length `path_len`) into an instance of an unbounded chain
/// program with CFG pumping `u v^i w x^i y`. Each edge becomes a `v`-path;
/// a `u`-path leads into `src`; a path spelling `w x^{path_len} y` leaves
/// `dst`, matching the number of pumped `v`'s.
pub fn tc_to_cfg(
    g: &LabeledDigraph,
    src: NodeId,
    dst: NodeId,
    path_len: usize,
    pumping: &CfgPumping,
    label_name: &dyn Fn(Terminal) -> String,
) -> Result<ExpandedInstance, Error> {
    if pumping.v.is_empty() {
        // WLOG of the paper's proof: if v is empty, swap roles by pumping on
        // x (expand edges with x and suffix with w only).
        return tc_to_cfg_on_x(g, src, dst, path_len, pumping, label_name);
    }
    let mut out = LabeledDigraph::new(g.num_nodes());
    let mut origins = Vec::new();
    let add_word_path = |out: &mut LabeledDigraph,
                         origins: &mut Vec<ExpandedEdgeOrigin>,
                         from: NodeId,
                         to: NodeId,
                         word: &[Terminal],
                         carried: Option<EdgeId>| {
        debug_assert!(!word.is_empty());
        let mut cur = from;
        for (i, &t) in word.iter().enumerate() {
            let next = if i + 1 == word.len() {
                to
            } else {
                out.add_nodes(1)
            };
            out.add_edge(cur, next, &label_name(t));
            origins.push(match (i, carried) {
                (0, Some(e)) => ExpandedEdgeOrigin::Original(e),
                _ => ExpandedEdgeOrigin::Scaffold,
            });
            cur = next;
        }
    };

    for (e, &(u, v, _)) in g.edges().iter().enumerate() {
        add_word_path(&mut out, &mut origins, u, v, &pumping.v, Some(e));
    }
    // Prefix u into src.
    let s0 = if pumping.u.is_empty() {
        src
    } else {
        let s0 = out.add_nodes(1);
        add_word_path(&mut out, &mut origins, s0, src, &pumping.u, None);
        s0
    };
    // Suffix w x^{path_len} y from dst.
    let mut suffix: Vec<Terminal> = pumping.w.clone();
    for _ in 0..path_len {
        suffix.extend_from_slice(&pumping.x);
    }
    suffix.extend_from_slice(&pumping.y);
    let t_end = if suffix.is_empty() {
        dst
    } else {
        let t_end = out.add_nodes(1);
        add_word_path(&mut out, &mut origins, dst, t_end, &suffix, None);
        t_end
    };
    Ok(ExpandedInstance {
        graph: out,
        src: s0,
        dst: t_end,
        origins,
    })
}

/// Variant of [`tc_to_cfg`] pumping on the `x` side (`v = ε`): edges spell
/// `x`, the prefix spells `u v^{path_len} w`, the suffix spells `y`.
fn tc_to_cfg_on_x(
    g: &LabeledDigraph,
    src: NodeId,
    dst: NodeId,
    path_len: usize,
    pumping: &CfgPumping,
    label_name: &dyn Fn(Terminal) -> String,
) -> Result<ExpandedInstance, Error> {
    if pumping.x.is_empty() {
        return Err(Error::unsupported(
            "pumping decomposition has empty v and x",
        ));
    }
    let mut out = LabeledDigraph::new(g.num_nodes());
    let mut origins = Vec::new();
    let add_word_path = |out: &mut LabeledDigraph,
                         origins: &mut Vec<ExpandedEdgeOrigin>,
                         from: NodeId,
                         to: NodeId,
                         word: &[Terminal],
                         carried: Option<EdgeId>| {
        debug_assert!(!word.is_empty());
        let mut cur = from;
        for (i, &t) in word.iter().enumerate() {
            let next = if i + 1 == word.len() {
                to
            } else {
                out.add_nodes(1)
            };
            out.add_edge(cur, next, &label_name(t));
            origins.push(match (i, carried) {
                (0, Some(e)) => ExpandedEdgeOrigin::Original(e),
                _ => ExpandedEdgeOrigin::Scaffold,
            });
            cur = next;
        }
    };
    for (e, &(u, v, _)) in g.edges().iter().enumerate() {
        add_word_path(&mut out, &mut origins, u, v, &pumping.x, Some(e));
    }
    let mut prefix: Vec<Terminal> = pumping.u.clone();
    for _ in 0..path_len {
        prefix.extend_from_slice(&pumping.v);
    }
    prefix.extend_from_slice(&pumping.w);
    let s0 = if prefix.is_empty() {
        src
    } else {
        let s0 = out.add_nodes(1);
        add_word_path(&mut out, &mut origins, s0, src, &prefix, None);
        s0
    };
    let t_end = if pumping.y.is_empty() {
        dst
    } else {
        let t_end = out.add_nodes(1);
        add_word_path(&mut out, &mut origins, dst, t_end, &pumping.y, None);
        t_end
    };
    Ok(ExpandedInstance {
        graph: out,
        src: s0,
        dst: t_end,
        origins,
    })
}

/// Theorem 6.8, instantiated: the lower-bound reduction for monadic
/// linear connected Datalog, for the paper's Example 2.1 reachability
/// program `U(x) :- A(x); U(x) :- U(y), E(x,y)`.
///
/// The general proof encodes each layered-graph edge as the canonical
/// database of the expansion word's `y`-part; for this program the
/// canonical database of one recursive-rule application *is* a single
/// `E`-edge, and the `zu`-part is the single fact `A(t)`. The reduction is
/// therefore: keep the layered graph's edges as `E`, set `A = {dst}`, and
/// query `U(src)`. Rewiring maps every `E`-fact variable to itself and the
/// `A`-fact to the constant 1, recovering the TC provenance of `(src, dst)`
/// at unchanged circuit depth — so an `o(log² n)`-depth circuit for `U`
/// would contradict Theorem 3.4.
pub fn tc_to_monadic_reachability(
    g: &LabeledDigraph,
    src: NodeId,
    dst: NodeId,
) -> Result<MonadicReductionInstance, Error> {
    let mut program = datalog::programs::monadic_reachability();
    let (mut db, edge_facts) = datalog::Database::from_graph(&mut program, g);
    let a = program
        .preds
        .get("A")
        .ok_or_else(|| Error::UnknownPredicate("A".into()))?;
    let dst_const = db
        .node_const(dst as usize)
        .ok_or_else(|| Error::BadQuery("dst outside the active domain".into()))?;
    let a_fact = db.insert(a, &[dst_const]);
    Ok(MonadicReductionInstance {
        program,
        db,
        query_node: src,
        a_fact,
        num_edge_facts: edge_facts.len() as u32,
    })
}

/// The Theorem 6.8 instance: a monadic-reachability database whose `U`
/// provenance encodes TC provenance.
#[derive(Clone, Debug)]
pub struct MonadicReductionInstance {
    /// The monadic linear connected program (Example 2.1).
    pub program: datalog::Program,
    /// The constructed database (graph edges + the seeded `A` fact).
    pub db: datalog::Database,
    /// Query `U(v_{query_node})`.
    pub query_node: NodeId,
    /// The fact id of the seeded `A` fact (wired to 1 by the rewiring).
    pub a_fact: datalog::FactId,
    /// Edge facts occupy variables `0..num_edge_facts`.
    pub num_edge_facts: u32,
}

impl MonadicReductionInstance {
    /// The grounded fact index of the query `U(v_src)`, if derivable.
    pub fn query_fact(&self, gp: &datalog::GroundedProgram) -> Option<usize> {
        let u = self.program.preds.get("U")?;
        let c = self.db.node_const(self.query_node as usize)?;
        gp.fact(u, &[c])
    }

    /// The paper's rewiring: edge variables stay, the `A` seed becomes 1.
    pub fn rewire(&self, circuit: &Circuit) -> Circuit {
        let a = self.a_fact;
        circuit.substitute_inputs(&move |v| {
            if v == a {
                InputSubst::One
            } else {
                InputSubst::Var(v)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::rpq::{rpq_circuit, TcStrategy};
    use crate::metrics::stats;
    use datalog::Exec;
    use datalog::{programs, Database};
    use grammar::{CfgAnalysis, Cnf, Dfa, Regex};
    use graphgen::generators;
    use semiring::Semiring as _;

    /// Oracle: TC provenance polynomial of (s, t) on g.
    fn tc_poly(g: &LabeledDigraph, s: usize, t: usize) -> semiring::Sorp {
        let mut p = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        let tp = p.preds.get("T").unwrap();
        match gp.fact(tp, &[db.node_const(s).unwrap(), db.node_const(t).unwrap()]) {
            Some(f) => {
                datalog::provenance_eval(&gp, datalog::default_budget(&gp)).values[f].clone()
            }
            None => semiring::Sorp::zero(),
        }
    }

    #[test]
    fn tc_to_rpq_rewiring_recovers_tc_provenance() {
        // Infinite RPQ: a b* c (pumped on b).
        let re = Regex::parse("a b* c").unwrap();
        for seed in 0..3u64 {
            let (g, s, t) = generators::layered(2, 3, 0.8, "E", seed);
            // Compile the DFA against the *expanded* alphabet: build with a
            // fresh alphabet and map terminals to names.
            let mut alphabet = grammar::Alphabet::new();
            let dfa = Dfa::compile(&re, &mut alphabet);
            let pumping = RegularPumping::from_dfa(&dfa).unwrap();
            let names = alphabet.clone();
            let inst = tc_to_rpq(&g, s, t, &pumping, &|t| names.name(t).to_owned());

            // Solve the RPQ on the expanded instance with both strategies.
            let mut eg = inst.graph.clone();
            let dfa2 = Dfa::compile(&re, &mut eg.alphabet);
            let expect = tc_poly(&g, s as usize, t as usize);
            for strat in [TcStrategy::BellmanFord, TcStrategy::RepeatedSquaring] {
                let big = rpq_circuit(&eg, &dfa2, inst.src, inst.dst, strat);
                let rewired = inst.rewire(&big);
                assert_eq!(rewired.polynomial(), expect, "seed {seed} {strat:?}");
                // Rewiring preserves depth and never grows size.
                assert!(stats(&rewired).depth <= stats(&big).depth);
                assert!(stats(&rewired).num_gates <= stats(&big).num_gates);
            }
        }
    }

    #[test]
    fn tc_to_cfg_rewiring_recovers_tc_provenance_via_dyck() {
        // Dyck-1 pumping: u v^i w x^i y with v = L…, x = R….
        let cnf = Cnf::from_cfg(&grammar::Cfg::dyck1());
        let analysis = CfgAnalysis::new(&cnf);
        let pumping = CfgPumping::from_cnf(&cnf, &analysis).unwrap();
        let names = cnf.alphabet.clone();

        for seed in 0..3u64 {
            let (g, s, t) = generators::layered(2, 2, 0.9, "E", seed);
            // Layered (ℓ=2 layers wide, 2 layers): all s-t paths have
            // length 3 (s → layer0 → layer1 → t).
            let inst = tc_to_cfg(&g, s, t, 3, &pumping, &|t| names.name(t).to_owned()).unwrap();

            // Solve Dyck reachability on the expanded instance by grounding.
            let mut p = programs::dyck1();
            let (db, edge_facts) = Database::from_graph(&mut p, &inst.graph);
            let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
            let spred = p.preds.get("S").unwrap();
            let expect = tc_poly(&g, s as usize, t as usize);
            let fact = gp.fact(
                spred,
                &[
                    db.node_const(inst.src as usize).unwrap(),
                    db.node_const(inst.dst as usize).unwrap(),
                ],
            );
            match fact {
                Some(f) => {
                    let big =
                        crate::constructions::grounded::grounded_circuit(&gp, None).circuit_for(f);
                    // Edge fact ids equal edge indices (from_graph aligns).
                    assert_eq!(edge_facts, (0..edge_facts.len() as u32).collect::<Vec<_>>());
                    let rewired = inst.rewire(&big);
                    assert_eq!(rewired.polynomial(), expect, "seed {seed}");
                }
                None => assert!(expect.is_empty(), "seed {seed}"),
            }
        }
    }

    #[test]
    fn monadic_reduction_recovers_tc_provenance() {
        for seed in 0..3u64 {
            let (g, s, t) = generators::layered(2, 3, 0.8, "E", seed);
            let inst = super::tc_to_monadic_reachability(&g, s, t).unwrap();
            let gp = datalog::ground(&inst.program, &inst.db, &Exec::default()).unwrap();
            let expect = tc_poly(&g, s as usize, t as usize);
            match inst.query_fact(&gp) {
                Some(f) => {
                    let big = crate::constructions::uvg::uvg_circuit(&gp, None).circuit_for(f);
                    let rewired = inst.rewire(&big);
                    assert_eq!(rewired.polynomial(), expect, "seed {seed}");
                    // Depth-preserving (rewiring can only shrink).
                    assert!(stats(&rewired).depth <= stats(&big).depth);
                }
                None => assert!(expect.is_empty(), "seed {seed}"),
            }
        }
    }

    #[test]
    fn expansion_blowup_is_constant_factor() {
        let re = Regex::parse("(a b)+").unwrap();
        let mut alphabet = grammar::Alphabet::new();
        let dfa = Dfa::compile(&re, &mut alphabet);
        let pumping = RegularPumping::from_dfa(&dfa).unwrap();
        let names = alphabet.clone();
        let (g, s, t) = generators::layered(3, 4, 1.0, "E", 0);
        let inst = tc_to_rpq(&g, s, t, &pumping, &|t| names.name(t).to_owned());
        let blowup = pumping.x.len() + pumping.y.len() + pumping.z.len();
        assert!(inst.graph.num_edges() <= g.num_edges() * pumping.y.len() + blowup);
        // Exactly one Original origin per source edge.
        let originals = inst
            .origins
            .iter()
            .filter(|o| matches!(o, ExpandedEdgeOrigin::Original(_)))
            .count();
        assert_eq!(originals, g.num_edges());
    }
}
