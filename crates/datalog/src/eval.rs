//! Fixpoint evaluation of grounded programs over semirings (paper §2.3).
//!
//! The immediate consequence operator (ICO) maps each IDB fact to the
//! ⊕-sum over its grounded rules of the ⊗-product of the rule's body
//! values. One kernel of two loops reaches its least fixpoint, for
//! from-scratch evaluation here and for write repairs in the
//! `incremental` crate alike:
//!
//! * [`rounds`] — naive (Jacobi) rounds over a set of rules, each round
//!   recomputing their heads from the previous round's values while every
//!   other fact stays frozen. Over the whole program the round count is
//!   the *boundedness* probe of §4 (a bounded program converges in O(1)
//!   rounds on every input).
//! * [`propagate`] — the ⊕-worklist: fire a seed of rules once, then
//!   re-fire only rules whose body strictly grew, ⊕-accumulating each
//!   product into its head. Accumulating without recomputing is sound
//!   exactly when `⊕` is idempotent ([`Semiring::ADD_IDEMPOTENT`]): a stale
//!   contribution `x` computed from smaller body values is dominated by
//!   the final one `y`, so `x ⊕ y = y` and it never inflates the result.
//!
//! Both multiply a rule body in one order: the rule's [`edb_factor`],
//! then its IDB body values in body-atom order.
//!
//! [`eval_with_strategy`] is the one instrumented dispatch every
//! from-scratch fixpoint of the `Engine` facade, its snapshots and magic
//! point queries goes through: [`EvalStrategy::SemiNaive`] runs
//! [`propagate`] seeded with every rule, or [`rounds`] on non-idempotent
//! semirings (e.g. [`semiring::Counting`], where re-added contributions
//! would double-count proof trees); [`EvalStrategy::Naive`] runs
//! [`rounds`]. [`EvalOutcome::strategy`] records which loop ran. The
//! fixpoint is always sequential: on a grounded program it is the cheap
//! part (grounding's join enumeration is what the facade's `parallelism`
//! knob shards), and one worklist keeps every [`EvalOutcome`] — values,
//! counts, and convergence under a tight budget — independent of the
//! thread count.

use std::collections::VecDeque;

use semiring::valuation::{Valuation, VarTags};
use semiring::{Semiring, Sorp};

use telemetry::{Counter, Recorder, RoundStats, Stage, NOOP};

use crate::ground::GroundedProgram;

/// Result of a fixpoint evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalOutcome<S> {
    /// Value per IDB fact (aligned with [`GroundedProgram::idb_facts`]).
    pub values: Vec<S>,
    /// A *strategy-relative* progress count: naive reports ICO
    /// applications (the §4 boundedness probe); semi-naive reports
    /// **equivalent full passes** — [`rule_firings`] over the number of
    /// grounded rules, rounded up. The two are NOT comparable across
    /// strategies; compare [`rule_firings`] instead.
    ///
    /// [`rule_firings`]: EvalOutcome::rule_firings
    pub iterations: usize,
    /// Raw number of grounded-rule firings performed — the
    /// strategy-independent work measure. Naive fires every grounded rule
    /// once per ICO application (`iterations × #rules`); semi-naive fires
    /// only frontier rules, so the ratio of the two counts is exactly the
    /// work its delta propagation saved.
    pub rule_firings: usize,
    /// Whether a fixpoint was reached within the iteration budget.
    pub converged: bool,
    /// The algorithm that **actually ran**. A [`EvalStrategy::SemiNaive`]
    /// request on a non-⊕-idempotent semiring falls back to naive; this
    /// field records the fallback so callers can observe it instead of
    /// trusting the requested strategy.
    pub strategy: EvalStrategy,
}

/// Rule `ri`'s EDB factor under `assign`: the ⊗-product of its EDB body
/// facts' values, in body-atom order.
pub fn edb_factor<S, V>(gp: &GroundedProgram, assign: &V, ri: usize) -> S
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let mut p = S::one();
    for &f in gp.rules.body_edb(ri) {
        p.mul_assign(&assign.value(f));
    }
    p
}

/// Rule `ri`'s ⊗-product: `edb(ri)`, then its IDB body values.
// Forced inline: left to the optimizer, the call per firing made write
// repairs (instantiated in the `incremental` crate) ~20% slower.
#[inline(always)]
fn product<S: Semiring>(
    gp: &GroundedProgram,
    edb: &impl Fn(usize) -> S,
    values: &[S],
    ri: usize,
) -> S {
    let mut prod = edb(ri);
    for &i in gp.rules.body_idb(ri) {
        prod.mul_assign(&values[i as usize]);
    }
    prod
}

/// The naive round loop. Each round recomputes every head of `rules`
/// (ascending rule ids) as the ⊕-sum of those rules' products over the
/// previous round's `values`; every other fact keeps its value. Over all
/// rules from all-0 that is the ICO iteration; over a cone's rules (the
/// rules deriving a set of facts closed under
/// [`GroundedProgram::dependents`], reset to 0 by the caller) it
/// re-derives the cone against its frozen boundary. `edb(ri)` is rule
/// `ri`'s EDB factor.
///
/// Runs until a round changes nothing or `max_rounds` rounds ran, and
/// returns the rounds run and whether the last changed nothing (no rules:
/// 0 rounds, a fixpoint whatever the budget). Reports into `rec`, under
/// `stage`, one [`RoundStats`] per round (frontier = `rules`; `delta` =
/// heads whose value strictly changed) and the [`Counter::RuleFirings`]
/// total.
pub fn rounds<S, F, I>(
    gp: &GroundedProgram,
    edb: F,
    values: &mut [S],
    rules: I,
    max_rounds: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> (usize, bool)
where
    S: Semiring,
    F: Fn(usize) -> S,
    I: ExactSizeIterator<Item = usize> + Clone,
{
    if rules.len() == 0 {
        return (0, true);
    }
    // Each head once, ascending.
    let mut is_head = vec![false; values.len()];
    for ri in rules.clone() {
        is_head[gp.rules.head(ri)] = true;
    }
    let heads: Vec<usize> = (0..values.len()).filter(|&h| is_head[h]).collect();
    let mut next = vec![S::zero(); values.len()];
    let fired = rules.len() as u64;
    for round in 0..max_rounds {
        for ri in rules.clone() {
            next[gp.rules.head(ri)].add_assign(&product(gp, &edb, values, ri));
        }
        let mut changed = 0u64;
        for &h in &heads {
            changed += u64::from(!next[h].sr_eq(&values[h]));
            std::mem::swap(&mut values[h], &mut next[h]);
        }
        // A pass of its own: fused into the loop above, the reset made
        // naive rounds ~10% slower.
        for &h in &heads {
            next[h] = S::zero();
        }
        if rec.enabled() {
            rec.counter(Counter::RuleFirings, fired);
            rec.round(
                stage,
                RoundStats {
                    round: round as u64,
                    frontier: fired,
                    delta: changed,
                    probes: 0,
                    firings: fired,
                    worklist: if changed == 0 { 0 } else { fired },
                },
            );
        }
        if changed == 0 {
            return (round + 1, true);
        }
    }
    (max_rounds, false)
}

/// The ⊕-worklist. Fires each `seed` rule once, in (ascending) order,
/// ⊕-accumulating its product — `edb(ri)`, then its IDB body values —
/// into its head, then re-fires from a FIFO queue the rules whose body
/// strictly grew. When a head grows, its dependent rules
/// ([`GroundedProgram::dependents`]) are enqueued unless already queued —
/// except, during the seed pass, dependents after the current seed rule:
/// every caller seeds with all the rules that can read a changed fact
/// (every rule, an appended suffix of rules, or a cone's rules), so those
/// are seeds still to fire, and they read the new value when their turn
/// comes. Sound only when `⊕` is idempotent (see the module docs).
///
/// Runs at most `max_firings` firings, seed included, and returns the
/// firings and whether the queue drained within them. Reports into `rec`,
/// under `stage`, the [`Counter::RuleFirings`] total and [`RoundStats`]
/// sampled at *equivalent passes* (every `seed.len()` firings): round 0
/// is the seed pass; each later sample carries the queue length (as both
/// `frontier` and `worklist`) and the head-value changes since the last.
pub fn propagate<S, F, I>(
    gp: &GroundedProgram,
    edb: F,
    values: &mut [S],
    seed: I,
    max_firings: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> (usize, bool)
where
    S: Semiring,
    F: Fn(usize) -> S,
    I: ExactSizeIterator<Item = usize>,
{
    let enabled = rec.enabled();
    let seeds = seed.len();
    let pass = seeds.max(1);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut pending = vec![false; gp.rules.len()];
    let (mut firings, mut changes) = (0usize, 0u64);
    // One firing of rule `ri`; `$fired(dep)` says whether `dep` needs a
    // queue entry to see the change (a rule that has not fired yet — or
    // is already queued — reads the newer value when its turn comes).
    macro_rules! fire {
        ($ri:expr, $fired:expr) => {{
            let ri = $ri;
            firings += 1;
            let prod = product(gp, &edb, values, ri);
            let head = gp.rules.head(ri);
            if !prod.is_zero() {
                let sum = values[head].add(&prod);
                if !sum.sr_eq(&values[head]) {
                    values[head] = sum;
                    changes += 1;
                    for &dep in gp.dependents.of(head) {
                        let d = dep as usize;
                        if $fired(d) && !pending[d] {
                            pending[d] = true;
                            queue.push_back(dep);
                        }
                    }
                }
            }
        }};
    }
    let sample = |round: usize, frontier: usize, delta: u64, firings: usize, queued: usize| {
        let stats = RoundStats {
            round: round as u64,
            frontier: frontier as u64,
            delta,
            probes: 0,
            firings: firings as u64,
            worklist: queued as u64,
        };
        rec.round(stage, stats);
    };
    for ri in seed.take(max_firings) {
        fire!(ri, |dep| dep <= ri);
    }
    if enabled && firings > 0 {
        sample(0, firings, changes, firings, queue.len());
    }
    let mut sampled = changes;
    let mut drained = firings == seeds;
    while drained {
        let Some(ri) = queue.pop_front() else { break };
        if firings == max_firings {
            drained = false;
            break;
        }
        pending[ri as usize] = false;
        fire!(ri as usize, |_| true);
        if enabled && firings.is_multiple_of(pass) {
            let queued = queue.len();
            sample(firings / pass, queued, changes - sampled, pass, queued);
            sampled = changes;
        }
    }
    if enabled {
        rec.counter(Counter::RuleFirings, firings as u64);
    }
    (firings, drained)
}

/// Naive evaluation: iterate the ICO from all-0 until a fixpoint or
/// `max_iters` rounds.
pub fn naive_eval<S, V>(gp: &GroundedProgram, assign: &V, max_iters: usize) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    eval_with_strategy(
        EvalStrategy::Naive,
        gp,
        assign,
        max_iters,
        &NOOP,
        Stage::Eval,
    )
}

/// Which fixpoint algorithm [`eval_with_strategy`] runs.
///
/// The two strategies compute identical values whenever both converge
/// (semi-naive falls back to naive where its delta propagation would be
/// unsound), but their `EvalOutcome::iterations` counters measure
/// different things: naive counts applications of the full immediate
/// consequence operator — the §4 boundedness probe — while semi-naive
/// counts frontier rounds, which can be fewer. Probes that *interpret*
/// the iteration count (boundedness, the Theorem 4.3 layering) must use
/// [`Naive`](EvalStrategy::Naive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalStrategy {
    /// The Jacobi-style naive fixpoint: every round re-fires every
    /// grounded rule against the previous round's values.
    Naive,
    /// Delta-driven evaluation: each round re-fires only the grounded
    /// rules whose body values changed, accumulating contributions with
    /// `⊕`. Sound on `⊕`-idempotent semirings
    /// ([`Semiring::ADD_IDEMPOTENT`]); silently equals `Naive` otherwise.
    #[default]
    SemiNaive,
}

/// Evaluate under the given [`EvalStrategy`] from all-0, reporting into a
/// telemetry [`Recorder`] — the single dispatch point every instrumented
/// fixpoint routes through. `stage` tags the per-round samples, letting
/// the caller attribute a run to [`Stage::Eval`] or [`Stage::Provenance`].
/// Disabled recorders (e.g. [`NOOP`]) run the same loops bit-identically.
/// The worklist takes each rule's [`edb_factor`] from a table computed
/// once per run; the rounds compute it per firing. The returned [`EvalOutcome::strategy`] records the algorithm that
/// actually ran, so the semi-naive → naive fallback on non-⊕-idempotent
/// semirings stays observable.
pub fn eval_with_strategy<S, V>(
    strategy: EvalStrategy,
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let num_rules = gp.rules.len();
    let all = 0..num_rules;
    let mut values = vec![S::zero(); gp.num_idb_facts()];
    let (iterations, rule_firings, converged, strategy) =
        if strategy == EvalStrategy::SemiNaive && S::ADD_IDEMPOTENT {
            let factors: Vec<S> = all.clone().map(|ri| edb_factor(gp, assign, ri)).collect();
            let edb = |ri: usize| factors[ri].clone();
            let max_firings = max_iters.saturating_mul(num_rules.max(1));
            let (firings, drained) = propagate(gp, edb, &mut values, all, max_firings, rec, stage);
            let passes = firings.div_ceil(num_rules.max(1));
            (passes, firings, drained, EvalStrategy::SemiNaive)
        } else {
            let edb = |ri| edb_factor(gp, assign, ri);
            let (ran, converged) = rounds(gp, edb, &mut values, all, max_iters, rec, stage);
            let firings = ran.saturating_mul(num_rules);
            (ran, firings, converged, EvalStrategy::Naive)
        };
    EvalOutcome {
        values,
        iterations,
        rule_firings,
        converged,
        strategy,
    }
}

/// Semi-naive (differential) evaluation: reach the same fixpoint as
/// [`naive_eval`] by [`propagate`] seeded with every rule in creation
/// order (a plain scan, as cache-friendly as one naive round). Total work
/// is proportional to the number of value *changes*, not `rounds × total
/// grounded rules` (see the `seminaive` bench experiment). When
/// `S::ADD_IDEMPOTENT` is `false` (e.g. [`semiring::Counting`]) this
/// **falls back to [`naive_eval`]**, so it is safe on any semiring;
/// divergent instances exhaust the budget and report `converged: false`.
///
/// `iterations` reports *equivalent full passes* — rule firings divided by
/// the number of grounded rules, rounded up — and the budget caps firings
/// at `max_iters × #rules`, mirroring naive's total work bound. Do not
/// feed the count to the §4 boundedness or layering probes (they
/// interpret naive ICO applications; use [`naive_eval`] there).
pub fn semi_naive_eval<S, V>(gp: &GroundedProgram, assign: &V, max_iters: usize) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    eval_with_strategy(
        EvalStrategy::SemiNaive,
        gp,
        assign,
        max_iters,
        &NOOP,
        Stage::Eval,
    )
}

/// Default iteration budget: `#IDB facts + 2` suffices for any absorptive
/// (0-stable) semiring, where each round strictly grows the set of facts at
/// their final value.
pub fn default_budget(gp: &GroundedProgram) -> usize {
    gp.num_idb_facts() + 2
}

/// The provenance polynomial of every IDB fact, computed by naive evaluation
/// over [`Sorp`] with each EDB fact tagged by its own variable.
///
/// By Proposition 2.4 this equals the tight-proof-tree polynomial of §2.4;
/// `prooftree::provenance_polynomial` cross-checks it by enumeration.
pub fn provenance_eval(gp: &GroundedProgram, max_iters: usize) -> EvalOutcome<Sorp> {
    naive_eval(gp, &VarTags, max_iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::ground::{ground, Exec};
    use crate::parser::parse_program;
    use graphgen::generators;
    use semiring::prelude::*;

    fn tc_on(g: &graphgen::LabeledDigraph) -> (crate::ast::Program, Database, GroundedProgram) {
        let mut p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        (p, db, gp)
    }

    #[test]
    fn boolean_eval_matches_reachability() {
        let g = generators::gnm(8, 20, &["E"], 3);
        let (p, db, gp) = tc_on(&g);
        let out = naive_eval::<Bool, _>(&gp, &AllOnes, default_budget(&gp));
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        // Every derivable fact evaluates to true (grounding keeps only
        // derivable facts), and matches BFS reachability.
        for (i, (pred, tuple)) in gp.idb_facts().enumerate() {
            if pred != t {
                continue;
            }
            assert!(out.values[i].is_one());
            let (u, v) = (tuple[0], tuple[1]);
            // Find graph node indices back from constants.
            let find = |c| {
                (0..g.num_nodes())
                    .find(|&i| db.node_const(i) == Some(c))
                    .unwrap()
            };
            let (ui, vi) = (find(u), find(v));
            // E+ reachability: at least one edge.
            let mut ok = false;
            for &(eu, ev, _) in g.edges() {
                if eu as usize == ui && g.reachable_from(ev)[vi] {
                    ok = true;
                }
            }
            assert!(ok, "derived T({ui},{vi}) not backed by reachability");
        }
    }

    #[test]
    fn tropical_eval_is_shortest_path_on_unit_weights() {
        let g = generators::gnm(9, 24, &["E"], 7);
        let (p, db, gp) = tc_on(&g);
        let out = naive_eval(
            &gp,
            &UnitWeights::new(Tropical::new(1)),
            default_budget(&gp),
        );
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        for src in 0..g.num_nodes() {
            let dist = g.bfs_distances(src as u32);
            for (dst, &dopt) in dist.iter().enumerate() {
                let key = [db.node_const(src).unwrap(), db.node_const(dst).unwrap()];
                if let Some(i) = gp.fact(t, &key) {
                    let d = dopt.expect("derivable implies reachable");
                    // E+ paths: for src==dst, BFS gives 0 but TC needs a
                    // cycle; skip the diagonal.
                    if src != dst {
                        assert_eq!(out.values[i], Tropical::new(d), "({src},{dst})");
                    }
                }
            }
        }
    }

    #[test]
    fn counting_diverges_on_cycles() {
        let g = generators::cycle(3, "E");
        let (_, _, gp) = tc_on(&g);
        let out = naive_eval(&gp, &UnitWeights::new(Counting::new(1)), 50);
        assert!(
            !out.converged,
            "counting semiring must not converge on a cycle"
        );
    }

    #[test]
    fn counting_counts_paths_on_dags() {
        // Diamond: 0→1→3, 0→2→3 — two paths.
        let mut g = graphgen::LabeledDigraph::new(4);
        g.add_edge(0, 1, "E");
        g.add_edge(0, 2, "E");
        g.add_edge(1, 3, "E");
        g.add_edge(2, 3, "E");
        let (p, db, gp) = tc_on(&g);
        let out = naive_eval(&gp, &UnitWeights::new(Counting::new(1)), 20);
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(3).unwrap()])
            .unwrap();
        assert_eq!(out.values[i], Counting::new(2));
    }

    #[test]
    fn tropk_converges_within_stability_budget() {
        let g = generators::cycle(4, "E");
        let (_, _, gp) = tc_on(&g);
        // Trop_2 is 1-stable: naive evaluation converges despite the cycle.
        let out = naive_eval(&gp, &UnitWeights::new(TropK::<2>::single(1)), 200);
        assert!(out.converged);
    }

    #[test]
    fn provenance_eval_on_figure1() {
        // The paper's Figure 1 graph.
        let mut g = graphgen::LabeledDigraph::new(6);
        // s=0, u1=1, u2=2, v1=3, v2=4, t=5
        let e_su1 = g.add_edge(0, 1, "E");
        let e_su2 = g.add_edge(0, 2, "E");
        let e_u1v1 = g.add_edge(1, 3, "E");
        let e_u1v2 = g.add_edge(1, 4, "E");
        let e_u2v2 = g.add_edge(2, 4, "E");
        let e_v1t = g.add_edge(3, 5, "E");
        let e_v2t = g.add_edge(4, 5, "E");
        let (p, db, gp) = tc_on(&g);
        let out = provenance_eval(&gp, default_budget(&gp));
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(5).unwrap()])
            .unwrap();
        // §2.4: x_{s,u1}x_{u1,v1}x_{v1,t} + x_{s,u1}x_{u1,v2}x_{v2,t}
        //       + x_{s,u2}x_{u2,v2}x_{v2,t}
        let m = |a: u32, b: u32, c: u32| semiring::Monomial::from_pairs([(a, 1), (b, 1), (c, 1)]);
        let expect = Sorp::from_monomials([
            m(e_su1 as u32, e_u1v1 as u32, e_v1t as u32),
            m(e_su1 as u32, e_u1v2 as u32, e_v2t as u32),
            m(e_su2 as u32, e_u2v2 as u32, e_v2t as u32),
        ]);
        assert_eq!(out.values[i], expect);
    }

    #[test]
    fn seminaive_matches_naive_across_semirings() {
        for seed in [1u64, 5, 9] {
            let g = generators::gnm(8, 20, &["E"], seed);
            let (_, _, gp) = tc_on(&g);
            let budget = default_budget(&gp);

            let nb = naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            let sb = semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            assert!(sb.converged && nb.converged);
            assert_eq!(nb.values, sb.values, "Bool seed={seed}");

            let unit = UnitWeights::new(Tropical::new(1));
            let nt = naive_eval::<Tropical, _>(&gp, &unit, budget);
            let st = semi_naive_eval::<Tropical, _>(&gp, &unit, budget);
            assert!(st.converged);
            assert_eq!(nt.values, st.values, "Tropical seed={seed}");
            assert!(
                st.iterations <= nt.iterations,
                "semi-naive rounds ({}) exceed naive iterations ({})",
                st.iterations,
                nt.iterations
            );

            let ns = naive_eval::<Sorp, _>(&gp, &VarTags, budget);
            let ss = semi_naive_eval::<Sorp, _>(&gp, &VarTags, budget);
            assert!(ss.converged);
            assert_eq!(ns.values, ss.values, "Sorp seed={seed}");
        }
    }

    #[test]
    fn seminaive_counting_falls_back_to_naive() {
        // Counting is not ⊕-idempotent: the delta path would double-count,
        // so semi_naive_eval must route through naive and agree exactly —
        // on the DAG it counts paths, on the cycle both diverge.
        let mut g = graphgen::LabeledDigraph::new(4);
        g.add_edge(0, 1, "E");
        g.add_edge(0, 2, "E");
        g.add_edge(1, 3, "E");
        g.add_edge(2, 3, "E");
        let (_, _, gp) = tc_on(&g);
        let unit = UnitWeights::new(Counting::new(1));
        let n = naive_eval::<Counting, _>(&gp, &unit, 20);
        let s = semi_naive_eval::<Counting, _>(&gp, &unit, 20);
        assert!(n.converged && s.converged);
        assert_eq!(n.values, s.values);
        assert_eq!(n.iterations, s.iterations, "fallback must be naive itself");

        let cyc = generators::cycle(3, "E");
        let (_, _, gp) = tc_on(&cyc);
        let s = semi_naive_eval::<Counting, _>(&gp, &unit, 50);
        assert!(!s.converged, "counting must still diverge on a cycle");
    }

    #[test]
    fn seminaive_tropk_converges_on_cycles() {
        // Trop_2 is ⊕-idempotent but only 1-stable: the frontier must
        // still drain (values stop changing) despite the cycle.
        let g = generators::cycle(4, "E");
        let (_, _, gp) = tc_on(&g);
        let unit = UnitWeights::new(TropK::<2>::single(1));
        let n = naive_eval::<TropK<2>, _>(&gp, &unit, 200);
        let s = semi_naive_eval::<TropK<2>, _>(&gp, &unit, 200);
        assert!(n.converged && s.converged);
        assert_eq!(n.values, s.values);
    }

    #[test]
    fn empty_program_and_zero_budget_converge_immediately() {
        // A program with zero grounded rules: the all-zero vector is the
        // fixpoint, whatever the budget — including a zero budget.
        let mut p = parse_program("R(Y) :- E(nosuch, Y).").unwrap();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        assert!(gp.rules.is_empty());
        for budget in [0usize, 1, 10] {
            let n = naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            assert!(n.converged, "naive budget={budget}");
            assert_eq!(n.iterations, 0);
            let s = semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            assert!(s.converged, "semi-naive budget={budget}");
            assert_eq!(s.iterations, 0);
            // The Counting fallback routes through naive and must agree.
            let c =
                semi_naive_eval::<Counting, _>(&gp, &UnitWeights::new(Counting::new(1)), budget);
            assert!(c.converged, "fallback budget={budget}");
            assert_eq!(c.strategy, EvalStrategy::Naive);
        }
    }

    #[test]
    fn zero_budget_on_nonempty_program_is_honest() {
        // With rules present, a zero budget cannot verify the fixpoint:
        // both algorithms report non-convergence without firing anything.
        let g = generators::path(3, "E");
        let (_, _, gp) = tc_on(&g);
        let n = naive_eval::<Bool, _>(&gp, &AllOnes, 0);
        assert!(!n.converged);
        assert_eq!(n.iterations, 0);
        let s = semi_naive_eval::<Bool, _>(&gp, &AllOnes, 0);
        assert!(!s.converged);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn outcome_records_the_effective_strategy() {
        let g = generators::path(3, "E");
        let (_, _, gp) = tc_on(&g);
        let budget = default_budget(&gp);
        assert_eq!(
            naive_eval::<Bool, _>(&gp, &AllOnes, budget).strategy,
            EvalStrategy::Naive
        );
        assert_eq!(
            semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget).strategy,
            EvalStrategy::SemiNaive
        );
        // The silent SemiNaive → Naive downgrade on non-idempotent
        // semirings is now visible in the outcome.
        let unit = UnitWeights::new(Counting::new(1));
        let fallback = eval_with_strategy::<Counting, _>(
            EvalStrategy::SemiNaive,
            &gp,
            &unit,
            20,
            &NOOP,
            Stage::Eval,
        );
        assert_eq!(fallback.strategy, EvalStrategy::Naive);
    }

    #[test]
    fn strategy_dispatch_routes_both_ways() {
        let g = generators::gnm(7, 16, &["E"], 2);
        let (_, _, gp) = tc_on(&g);
        let budget = default_budget(&gp);
        let unit = UnitWeights::new(Tropical::new(1));
        let run = |strategy| {
            eval_with_strategy::<Tropical, _>(strategy, &gp, &unit, budget, &NOOP, Stage::Eval)
        };
        let (naive, semi) = (run(EvalStrategy::Naive), run(EvalStrategy::SemiNaive));
        assert_eq!(naive.values, semi.values);
        assert_eq!(EvalStrategy::default(), EvalStrategy::SemiNaive);
    }

    #[test]
    fn bounded_program_converges_in_constant_iterations() {
        // Example 4.2: T(x,y) :- E(x,y); T(x,y) :- A(x), T(z,y) — bounded.
        let mut p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- A(X), T(Z,Y).").unwrap();
        for n in [3usize, 6, 10] {
            let g = generators::path(n, "E");
            let (mut db, _) = Database::from_graph(&mut p, &g);
            let a = p.preds.get("A").unwrap();
            let v0 = db.node_const(0).unwrap();
            db.insert(a, &[v0]);
            let gp = ground(&p, &db, &Exec::default()).unwrap();
            let out = naive_eval::<Bool, _>(&gp, &AllOnes, default_budget(&gp));
            assert!(out.converged);
            assert!(
                out.iterations <= 4,
                "bounded program took {} iterations at n={n}",
                out.iterations
            );
        }
    }

    #[test]
    fn unbounded_tc_iterations_grow_with_input() {
        let mut iters = Vec::new();
        for n in [4usize, 8, 16] {
            let g = generators::path(n, "E");
            let (_, _, gp) = tc_on(&g);
            let out = naive_eval::<Bool, _>(&gp, &AllOnes, default_budget(&gp));
            assert!(out.converged);
            iters.push(out.iterations);
        }
        assert!(iters[0] < iters[1] && iters[1] < iters[2]);
    }

    /// The DAG part of `g`: its edges `u → v` with `u < v`, so Counting
    /// converges on it.
    fn dag_of(g: &graphgen::LabeledDigraph) -> graphgen::LabeledDigraph {
        let mut d = graphgen::LabeledDigraph::with_alphabet(g.num_nodes(), g.alphabet.clone());
        for &(u, v, t) in g.edges() {
            if u < v {
                d.add_edge_t(u, v, t);
            }
        }
        d
    }

    /// One golden line per run: the strategy that ran, `iterations`,
    /// `rule_firings`, the recorded `RuleFirings` counter, `converged`,
    /// every value, and every recorded round as
    /// `round:frontier/delta/firings/worklist`. The recorded run must
    /// equal the un-instrumented entry point's outcome.
    fn golden_line<S, V>(
        gp: &GroundedProgram,
        assign: &V,
        strategy: EvalStrategy,
        budget: usize,
    ) -> String
    where
        S: Semiring + std::fmt::Display,
        V: Valuation<S>,
    {
        let metrics = telemetry::PipelineMetrics::new(true);
        let out = eval_with_strategy::<S, _>(strategy, gp, assign, budget, &metrics, Stage::Eval);
        let plain = match strategy {
            EvalStrategy::Naive => naive_eval::<S, _>(gp, assign, budget),
            EvalStrategy::SemiNaive => semi_naive_eval::<S, _>(gp, assign, budget),
        };
        assert_eq!(out, plain, "recording must not change the outcome");
        let values: Vec<String> = out.values.iter().map(ToString::to_string).collect();
        let rounds: Vec<String> = metrics
            .report()
            .rounds_of(Stage::Eval)
            .iter()
            .map(|r| {
                format!(
                    "{}:{}/{}/{}/{}",
                    r.round, r.frontier, r.delta, r.firings, r.worklist
                )
            })
            .collect();
        format!(
            "{:?} it={} fired={} counter={} conv={} [{}] rounds [{}]",
            out.strategy,
            out.iterations,
            out.rule_firings,
            metrics.counter_value(Counter::RuleFirings),
            out.converged,
            values.join(" "),
            rounds.join(" ")
        )
    }

    #[test]
    fn golden_outcomes_are_pinned() {
        // Three fixed instances: TC on a seeded gnm, Dyck-1, and a mutual
        // recursion. Tropical and Bool run on the graph, Counting on its
        // DAG part, each under the default budget; Tropical also under a
        // one-pass budget, which cuts both strategies short.
        let mutual = "A(X,Y) :- E(X,Y).\nA(X,Y) :- B(X,Z), E(Z,Y).\nB(X,Y) :- A(X,Z), F(Z,Y).";
        let instances = [
            (
                parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap(),
                generators::gnm(9, 24, &["E"], 3),
            ),
            (
                crate::programs::dyck1(),
                generators::gnm(9, 30, &["L", "R"], 4),
            ),
            (
                parse_program(mutual).unwrap(),
                generators::gnm(9, 24, &["E", "F"], 5),
            ),
        ];
        let tropical = semiring::valuation::from_fn(|f| Tropical::new(1 + f as u64 % 3));
        let counting = semiring::valuation::from_fn(|f| Counting::new(1 + f as u64 % 2));
        let mut lines = Vec::new();
        for (program, g) in instances {
            let mut p = program.clone();
            let (db, _) = Database::from_graph(&mut p, &g);
            let gp = ground(&p, &db, &Exec::default()).unwrap();
            let mut p = program;
            let (dag_db, _) = Database::from_graph(&mut p, &dag_of(&g));
            let dag = ground(&p, &dag_db, &Exec::default()).unwrap();
            let (budget, dag_budget) = (default_budget(&gp), default_budget(&dag));
            for strategy in [EvalStrategy::Naive, EvalStrategy::SemiNaive] {
                lines.push(golden_line::<Tropical, _>(&gp, &tropical, strategy, budget));
                lines.push(golden_line::<Bool, _>(&gp, &AllOnes, strategy, budget));
                lines.push(golden_line::<Counting, _>(
                    &dag, &counting, strategy, dag_budget,
                ));
                lines.push(golden_line::<Tropical, _>(&gp, &tropical, strategy, 1));
            }
        }
        let expected: &[&str] = &[
            "Naive it=5 fired=1200 counter=1200 conv=true [1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 2 3 4 3 4 5 4 2 4 4 3 5 3 4 3 5 4 3 2 4 2 2 3 3 3 6 5 6 3 4 6 4 4 5 3 6 4 7 5 6 5 3 5 4 4 4 5 5 4 6 6 8 7 7 6 8 7] rounds [0:240/24/240/240 1:240/37/240/240 2:240/18/240/240 3:240/3/240/240 4:240/0/240/0]",
            "Naive it=5 fired=1200 counter=1200 conv=true [true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true] rounds [0:240/24/240/240 1:240/37/240/240 2:240/17/240/240 3:240/3/240/240 4:240/0/240/0]",
            "Naive it=5 fired=125 counter=125 conv=true [3 2 7 2 1 6 13 2 1 2 1 6 15 4 4 2 2 4] rounds [0:25/11/25/25 1:25/10/25/25 2:25/5/25/25 3:25/1/25/25 4:25/0/25/0]",
            "Naive it=1 fired=240 counter=240 conv=false [1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞] rounds [0:240/24/240/240]",
            "SemiNaive it=2 fired=242 counter=242 conv=true [1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 2 3 4 3 4 5 4 2 4 4 3 5 3 4 3 5 4 3 2 4 2 2 3 3 3 6 5 6 3 4 6 4 4 5 3 6 4 7 5 6 5 3 5 4 4 4 5 5 4 6 6 8 7 7 6 8 7] rounds [0:240/89/240/2]",
            "SemiNaive it=1 fired=240 counter=240 conv=true [true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true] rounds [0:240/81/240/0]",
            "Naive it=5 fired=125 counter=125 conv=true [3 2 7 2 1 6 13 2 1 2 1 6 15 4 4 2 2 4] rounds [0:25/11/25/25 1:25/10/25/25 2:25/5/25/25 3:25/1/25/25 4:25/0/25/0]",
            "SemiNaive it=1 fired=240 counter=240 conv=false [1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 1 2 3 2 3 4 3 4 5 4 2 4 4 3 5 3 4 3 5 4 3 2 4 2 2 3 3 3 6 5 6 3 4 6 4 4 5 3 6 4 7 5 6 5 3 5 4 4 4 5 5 4 6 6 8 7 7 6 8 7] rounds [0:240/89/240/2]",
            "Naive it=5 fired=2595 counter=2595 conv=true [5 4 5 6 5 4 3 4 3 3 4 3 4 5 4 5 3 5 3 2 3 4 3 3 4 5 6 6 7 6 10 7 8 5 7 6 7 6 9 5 7 10 5 6 9 8 9 5 6 9 9 7 9 10 7 9] rounds [0:519/27/519/519 1:519/25/519/519 2:519/4/519/519 3:519/2/519/519 4:519/0/519/0]",
            "Naive it=4 fired=2076 counter=2076 conv=true [true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true] rounds [0:519/27/519/519 1:519/25/519/519 2:519/4/519/519 3:519/0/519/0]",
            "Naive it=2 fired=16 counter=16 conv=true [2 2 1 3 4 2 2] rounds [0:8/7/8/8 1:8/0/8/0]",
            "Naive it=1 fired=519 counter=519 conv=false [5 4 5 6 5 4 3 4 3 3 4 3 4 5 4 5 3 5 3 2 3 4 3 3 4 5 6 ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞] rounds [0:519/27/519/519]",
            "SemiNaive it=2 fired=539 counter=539 conv=true [5 4 5 6 5 4 3 4 3 3 4 3 4 5 4 5 3 5 3 2 3 4 3 3 4 5 6 6 7 6 10 7 8 5 7 6 7 6 9 5 7 10 5 6 9 8 9 5 6 9 9 7 9 10 7 9] rounds [0:519/70/519/20]",
            "SemiNaive it=1 fired=519 counter=519 conv=true [true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true] rounds [0:519/56/519/0]",
            "Naive it=2 fired=16 counter=16 conv=true [2 2 1 3 4 2 2] rounds [0:8/7/8/8 1:8/0/8/0]",
            "SemiNaive it=1 fired=519 counter=519 conv=false [5 4 5 6 5 4 3 4 3 3 4 3 4 5 4 5 3 5 3 2 3 4 3 3 4 5 6 6 7 6 10 7 8 5 7 6 7 6 9 5 7 10 5 6 9 8 9 5 6 9 9 7 9 10 7 9] rounds [0:519/70/519/20]",
            "Naive it=10 fired=1500 counter=1500 conv=true [1 2 3 1 3 1 1 3 3 1 3 2 3 1 3 5 3 4 2 5 2 3 3 5 5 5 2 5 5 3 8 7 5 5 8 8 5 4 5 7 6 5 5 6 7 6 6 8 7 10 10 7 5 8 10 7 7 10 8 11 11 10 10 12 10 10 8 8 11 10 10 10 10 13 11 11 13 12 12 15 12 12 10 12 12 12 13 16 16 14 18 14 13 14 18 17 17 17 20 20 20] rounds [0:150/15/150/150 1:150/15/150/150 2:150/17/150/150 3:150/12/150/150 4:150/17/150/150 5:150/11/150/150 6:150/7/150/150 7:150/4/150/150 8:150/3/150/150 9:150/0/150/0]",
            "Naive it=10 fired=1500 counter=1500 conv=true [true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true] rounds [0:150/15/150/150 1:150/15/150/150 2:150/17/150/150 3:150/12/150/150 4:150/17/150/150 5:150/11/150/150 6:150/7/150/150 7:150/4/150/150 8:150/3/150/150 9:150/0/150/0]",
            "Naive it=3 fired=27 counter=27 conv=true [1 2 1 2 1 1 4 2 2] rounds [0:9/6/9/9 1:9/3/9/9 2:9/0/9/0]",
            "Naive it=1 fired=150 counter=150 conv=false [1 2 3 1 3 1 1 3 3 1 3 2 3 1 3 ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞ ∞] rounds [0:150/15/150/150]",
            "SemiNaive it=1 fired=150 counter=150 conv=true [1 2 3 1 3 1 1 3 3 1 3 2 3 1 3 5 3 4 2 5 2 3 3 5 5 5 2 5 5 3 8 7 5 5 8 8 5 4 5 7 6 5 5 6 7 6 6 8 7 10 10 7 5 8 10 7 7 10 8 11 11 10 10 12 10 10 8 8 11 10 10 10 10 13 11 11 13 12 12 15 12 12 10 12 12 12 13 16 16 14 18 14 13 14 18 17 17 17 20 20 20] rounds [0:150/101/150/0]",
            "SemiNaive it=1 fired=150 counter=150 conv=true [true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true true] rounds [0:150/101/150/0]",
            "Naive it=3 fired=27 counter=27 conv=true [1 2 1 2 1 1 4 2 2] rounds [0:9/6/9/9 1:9/3/9/9 2:9/0/9/0]",
            "SemiNaive it=1 fired=150 counter=150 conv=true [1 2 3 1 3 1 1 3 3 1 3 2 3 1 3 5 3 4 2 5 2 3 3 5 5 5 2 5 5 3 8 7 5 5 8 8 5 4 5 7 6 5 5 6 7 6 6 8 7 10 10 7 5 8 10 7 7 10 8 11 11 10 10 12 10 10 8 8 11 10 10 10 10 13 11 11 13 12 12 15 12 12 10 12 12 12 13 16 16 14 18 14 13 14 18 17 17 17 20 20 20] rounds [0:150/101/150/0]",
        ];
        assert_eq!(lines.len(), expected.len());
        for (k, (line, want)) in lines.iter().zip(expected).enumerate() {
            assert_eq!(line, want, "golden line {k}");
        }
    }
}
