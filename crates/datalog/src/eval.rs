//! Fixpoint evaluation of grounded programs over semirings (paper §2.3):
//! naive and semi-naive.
//!
//! The immediate consequence operator maps each IDB fact to the ⊕-sum over
//! its grounded rules of the ⊗-product of the rule's body values. [`naive_eval`]
//! iterates it from all-0; on a p-stable semiring it converges, and
//! the number of iterations is the *boundedness* probe of §4 (a bounded
//! program converges in O(1) iterations on every input).
//!
//! [`semi_naive_eval`] reaches the same fixpoint *differentially*: it keeps
//! a frontier of grounded rules whose body values changed last round and
//! re-fires only those, accumulating each rule's fresh contribution into its
//! head with `⊕` instead of recomputing every head's full sum. Accumulation
//! is sound exactly when `⊕` is idempotent ([`Semiring::ADD_IDEMPOTENT`]):
//! a stale contribution `x` computed from earlier (smaller) body values is
//! dominated by the final one `y`, so `x ⊕ y = y` and it never inflates the
//! result. For non-idempotent semirings (e.g. [`semiring::Counting`], where
//! re-added contributions would double-count proof trees) it transparently
//! falls back to [`naive_eval`]. [`EvalStrategy`] names the choice; the
//! `Engine` facade defaults to [`EvalStrategy::SemiNaive`]. The outcome's
//! [`EvalOutcome::strategy`] records which algorithm actually ran.
//!
//! [`eval_with_strategy`] is the one instrumented dispatch: it reports
//! per-round series and [`Counter::RuleFirings`] into a telemetry
//! [`Recorder`] under the caller's [`Stage`], and every fixpoint the
//! `Engine` facade, its snapshots, and magic point queries run goes
//! through it. The fixpoint is always sequential: on a grounded program
//! it is the cheap part (grounding's join enumeration is where the work
//! is, and that is what the facade's `parallelism` knob shards), and a
//! single worklist keeps every [`EvalOutcome`] — values, counts, and
//! convergence under a tight budget — independent of the thread count.

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

/// One application of the immediate consequence operator.
pub fn ico<S, V>(gp: &GroundedProgram, assign: &V, current: &[S]) -> Vec<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let mut next = vec![S::zero(); current.len()];
    let rules = &gp.rules;
    for ri in 0..rules.len() {
        let mut prod = S::one();
        for &i in rules.body_idb(ri) {
            prod.mul_assign(&current[i as usize]);
        }
        for &f in rules.body_edb(ri) {
            prod.mul_assign(&assign.value(f));
        }
        next[rules.head(ri)].add_assign(&prod);
    }
    next
}

/// The naive round loop: iterate the ICO from all-0 until a fixpoint or
/// `max_iters` rounds, reporting into `rec` one [`RoundStats`] per ICO
/// application (frontier = every grounded rule; `delta` = heads whose
/// value strictly changed) and the [`Counter::RuleFirings`] total. With a
/// disabled recorder the convergence test keeps its short-circuit form
/// and nothing else runs.
fn naive_recorded<S, V>(
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
    let enabled = rec.enabled();
    let num_rules = gp.rules.len();
    let mut values = vec![S::zero(); gp.num_idb_facts()];
    // With no grounded rules the ICO is constantly 0: the all-zero vector
    // is already the fixpoint, whatever the budget — even a zero budget
    // (it used to report `converged: false` for `max_iters == 0`).
    if gp.rules.is_empty() {
        return EvalOutcome {
            values,
            iterations: 0,
            rule_firings: 0,
            converged: true,
            strategy: EvalStrategy::Naive,
        };
    }
    for iter in 0..max_iters {
        let next = ico(gp, assign, &values);
        let converged = if enabled {
            let changed = next
                .iter()
                .zip(values.iter())
                .filter(|(a, b)| !a.sr_eq(b))
                .count() as u64;
            rec.counter(Counter::RuleFirings, num_rules as u64);
            rec.round(
                stage,
                RoundStats {
                    round: iter as u64,
                    frontier: num_rules as u64,
                    delta: changed,
                    probes: 0,
                    firings: num_rules as u64,
                    worklist: if changed == 0 { 0 } else { num_rules as u64 },
                },
            );
            changed == 0
        } else {
            next.iter().zip(values.iter()).all(|(a, b)| a.sr_eq(b))
        };
        values = next;
        if converged {
            return EvalOutcome {
                values,
                iterations: iter + 1,
                rule_firings: (iter + 1) * num_rules,
                converged: true,
                strategy: EvalStrategy::Naive,
            };
        }
    }
    EvalOutcome {
        values,
        iterations: max_iters,
        rule_firings: max_iters.saturating_mul(num_rules),
        converged: false,
        strategy: EvalStrategy::Naive,
    }
}

/// Naive evaluation: iterate the ICO from all-0 until a fixpoint or
/// `max_iters` rounds.
pub fn naive_eval<S, V>(gp: &GroundedProgram, assign: &V, max_iters: usize) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    naive_recorded(gp, assign, max_iters, &NOOP, Stage::Eval)
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

/// Evaluate under the given [`EvalStrategy`], reporting into a telemetry
/// [`Recorder`] — the single dispatch point every instrumented fixpoint
/// routes through. `stage` tags the per-round samples, letting the caller
/// attribute a run to [`Stage::Eval`] or [`Stage::Provenance`]. Disabled
/// recorders (e.g. [`NOOP`]) take the un-instrumented loops
/// bit-identically. The returned [`EvalOutcome::strategy`] records the
/// algorithm that actually ran, so the semi-naive → naive fallback on
/// non-⊕-idempotent semirings stays observable.
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
    match strategy {
        EvalStrategy::Naive => naive_recorded(gp, assign, max_iters, rec, stage),
        EvalStrategy::SemiNaive => semi_naive_recorded(gp, assign, max_iters, rec, stage),
    }
}

/// Semi-naive (differential) evaluation: reach the same fixpoint as
/// [`naive_eval`] by propagating value changes along rule dependencies
/// instead of recomputing every fact every round.
///
/// The algorithm is a FIFO worklist over grounded rules. Every rule fires
/// once; when a firing `⊕`-accumulates a *strictly new* value into its
/// head, the rules reading that head are re-enqueued (unless already
/// pending — a pending rule reads the newer value when it fires, so one
/// queue entry absorbs any number of upstream changes). Total work is
/// proportional to the number of value *changes*, not
/// `rounds × total grounded rules` — on transitive closure over `gnm`
/// graphs this is several times faster than naive (see the `seminaive`
/// bench experiment). The fact → dependent-rules lists are the grounding's
/// own CSR index ([`GroundedProgram::dependents`], built once when
/// grounding finishes), so a run allocates only its value vector, the
/// EDB factors, and the worklist.
///
/// Accumulation without recomputation is sound exactly when `⊕` is
/// idempotent: within the idempotent order, body values only grow, `⊗` is
/// monotone, so every stale contribution is dominated by (and absorbed
/// into) the final one. When `S::ADD_IDEMPOTENT` is `false` (e.g.
/// [`semiring::Counting`]) this function **falls back to [`naive_eval`]**,
/// so it is safe to call on any semiring; divergent instances exhaust
/// the budget and report `converged: false` either way.
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
    semi_naive_recorded(gp, assign, max_iters, &NOOP, Stage::Eval)
}

/// The [`semi_naive_eval`] worklist, reporting into `rec`.
///
/// The worklist has no natural rounds, so the per-round series is
/// **sampled at equivalent-pass boundaries** (every `#rules` firings):
/// each [`RoundStats`] carries the queue length at the boundary (as both
/// `frontier` and `worklist`) and the head-value changes since the last
/// sample. Round 0 is the initial every-rule pass. [`Counter::RuleFirings`]
/// accumulates the exact total. Disabled recorders leave the worklist loop
/// bit-identical (the only residue is one dead branch per value change).
fn semi_naive_recorded<S, V>(
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
    if !S::ADD_IDEMPOTENT {
        return naive_recorded(gp, assign, max_iters, rec, stage);
    }
    let enabled = rec.enabled();
    let n = gp.num_idb_facts();
    let num_rules = gp.rules.len();
    let mut values = vec![S::zero(); n];
    let edb_factor = edb_factors(gp, assign);
    let deps = &gp.dependents;

    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut pending = vec![false; num_rules];
    let max_firings = max_iters.saturating_mul(num_rules.max(1));
    let mut firings = 0usize;
    let mut changes = 0u64;
    let mut sampled_changes = 0u64;
    let equivalent_passes = |firings: usize| firings.div_ceil(num_rules.max(1));
    macro_rules! finish {
        ($converged:expr) => {{
            if enabled {
                rec.counter(Counter::RuleFirings, firings as u64);
            }
            return EvalOutcome {
                values,
                iterations: equivalent_passes(firings),
                rule_firings: firings,
                converged: $converged,
                strategy: EvalStrategy::SemiNaive,
            };
        }};
    }

    // One firing of rule `ri`: ⊕-accumulate its product into the head and
    // re-enqueue the dependent rules that fired before this change (a rule
    // that has not fired yet — or is already queued — reads the newer value
    // when its turn comes, so it needs no entry).
    macro_rules! fire {
        ($ri:expr, $fired:expr) => {{
            let ri = $ri;
            let head = gp.rules.head(ri);
            let mut prod = edb_factor[ri].clone();
            for &i in gp.rules.body_idb(ri) {
                prod.mul_assign(&values[i as usize]);
            }
            if !prod.is_zero() {
                let sum = values[head].add(&prod);
                if !sum.sr_eq(&values[head]) {
                    values[head] = sum;
                    if enabled {
                        changes += 1;
                    }
                    for &dep in deps.of(head) {
                        let dep = dep as usize;
                        if $fired(dep) && !pending[dep] {
                            pending[dep] = true;
                            queue.push_back(dep as u32);
                        }
                    }
                }
            }
        }};
    }

    // Initial pass: every rule fires once, in creation order — a plain
    // scan, as cache-friendly as one naive round. Only rules at an earlier
    // position (already fired) can need a second look.
    for ri in 0..num_rules.min(max_firings) {
        firings += 1;
        fire!(ri, |dep| dep <= ri);
    }
    if enabled && firings > 0 {
        rec.round(
            stage,
            RoundStats {
                round: 0,
                frontier: firings as u64,
                delta: changes,
                probes: 0,
                firings: firings as u64,
                worklist: queue.len() as u64,
            },
        );
        sampled_changes = changes;
    }
    if num_rules > max_firings {
        finish!(false);
    }
    // Drain: by now every rule has fired, so any dependent of a change is
    // a re-fire candidate unless already queued.
    while let Some(ri) = queue.pop_front() {
        if firings == max_firings {
            finish!(false);
        }
        firings += 1;
        pending[ri as usize] = false;
        fire!(ri as usize, |_dep| true);
        if enabled && firings.is_multiple_of(num_rules.max(1)) {
            rec.round(
                stage,
                RoundStats {
                    round: (firings / num_rules.max(1)) as u64,
                    frontier: queue.len() as u64,
                    delta: changes - sampled_changes,
                    probes: 0,
                    firings: num_rules as u64,
                    worklist: queue.len() as u64,
                },
            );
            sampled_changes = changes;
        }
    }
    finish!(true);
}

/// Each rule's EDB factor is loop-invariant across a fixpoint run: the
/// ⊗-product of its EDB body facts' values, computed once. Public so the
/// incremental-maintenance layer can reuse it when seeding delta
/// propagation over an extended grounding.
pub fn edb_factors<S, V>(gp: &GroundedProgram, assign: &V) -> Vec<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    (0..gp.rules.len())
        .map(|ri| {
            let mut p = S::one();
            for &f in gp.rules.body_edb(ri) {
                p.mul_assign(&assign.value(f));
            }
            p
        })
        .collect()
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
        for (i, (pred, tuple)) in gp.idb_facts.iter().enumerate() {
            if *pred != t {
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
            db.insert(a, vec![v0]);
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
}
