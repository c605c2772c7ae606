//! Incremental maintenance of semiring fixpoints over a grounded program
//! (the delta layer behind `Engine::insert_facts` / `retract_facts`).
//!
//! A [`MaintainedFixpoint`] owns the value vector of one `(semiring,
//! valuation)` fixpoint and repairs it in place as the grounding changes,
//! instead of re-running the fixpoint from scratch:
//!
//! * **Inserts** ([`apply_insert`](MaintainedFixpoint::apply_insert)) —
//!   after `datalog::extend_grounding` appended the delta's grounded
//!   rules, the new rules seed a semi-naive worklist: each fires once,
//!   ⊕-accumulating its ⊗-product into its head, and heads that strictly
//!   grow re-enqueue their dependent rules through the grounding's
//!   fact → rules CSR index (`GroundedProgram::dependents`, maintained by
//!   the grounding itself, so a repair builds no index). This
//!   accumulation is sound exactly when ⊕ is idempotent
//!   ([`semiring::Semiring::ADD_IDEMPOTENT`]): stale contributions
//!   computed from smaller body values are dominated by the final ones.
//!   Non-idempotent semirings (e.g. `Counting`, where re-added
//!   contributions would double-count proof trees, and where the fix
//!   would need a ⊖ the semiring does not have) **fall back** to a full
//!   naive re-evaluation over the extended grounding — still exact, just
//!   not incremental; the fallback is the method's return value, so
//!   callers can count it.
//!
//! * **Retracts** ([`apply_retract`](MaintainedFixpoint::apply_retract))
//!   — semiring-generalized DRed. After
//!   `datalog::retract_facts_from_grounding` removed every grounded rule
//!   citing a retracted EDB fact, the *cone* — the upward closure of the
//!   removed rules' heads through the surviving rules' dependencies — is
//!   the exact set of facts whose values may change. Classical DRed would
//!   over-delete and re-derive with a ⊖-adjustment, which is only sound
//!   for idempotent ⊕; instead the cone restarts **from ⊥** and is
//!   re-derived against the frozen non-cone boundary. That restart is
//!   exact on *every* semiring: the cone is upward-closed, so no non-cone
//!   equation reads a cone value — the boundary is independently fixed —
//!   and the least fixpoint of the cone sub-system extended with the
//!   boundary is the restriction of the whole program's least fixpoint.
//!   No ⊖, no idempotence requirement, no fallback. *How* the cone is
//!   re-derived is chosen by the semiring's type, as in
//!   `datalog::semi_naive_eval`:
//!   - on ⊕-idempotent semirings, by the insert path's worklist, seeded
//!     with every rule deriving a cone fact (each fires once; afterwards
//!     only rules whose body grew re-fire). Its budget unit is
//!     *equivalent passes over the cone's rules*: `budget` caps the
//!     firings at `budget × #cone rules`, the work `budget` naive rounds
//!     would do;
//!   - otherwise by naive (Jacobi) rounds over the cone's rules, at most
//!     `budget` rounds — without idempotence a worklist's stale
//!     contributions would not be absorbed.
//!
//!   Either way `datalog::default_budget` is always sufficient on a
//!   p-stable semiring.
//!
//! Every repair reports which path ran (`repairs_worklist` /
//! `repairs_naive`) and, for retracts, the cone's size (`retract_cone_facts`
//! / `retract_cone_rules`) into its telemetry [`Recorder`].
//!
//! Retracted facts stay in `GroundedProgram::idb_facts` as *zombies*
//! (underivable facts pinned at value 0): keeping the fact indexing
//! prefix-stable is what lets the value vector, the circuits' output
//! numbering, and concurrent snapshot readers survive a delta. A zombie's
//! residual rules (if any) contribute `0 ⊗ … = 0`, which is ⊕-neutral, so
//! values are bit-identical to a from-scratch rebuild fact-for-fact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::time::Instant;

use datalog::{naive_eval, GroundedProgram};
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{Counter, Recorder, Stage};

/// A semiring fixpoint kept consistent with a changing grounding.
///
/// Start it from a converged [`datalog::EvalOutcome`] (or any value
/// vector known to be the least fixpoint of the current grounding), then
/// alternate `datalog::extend_grounding` / [`apply_insert`] and
/// `datalog::retract_facts_from_grounding` / [`apply_retract`] as the
/// database changes. [`values`] stays aligned with
/// `GroundedProgram::idb_facts` at every step.
///
/// [`apply_insert`]: MaintainedFixpoint::apply_insert
/// [`apply_retract`]: MaintainedFixpoint::apply_retract
/// [`values`]: MaintainedFixpoint::values
#[derive(Clone, Debug)]
pub struct MaintainedFixpoint<S> {
    values: Vec<S>,
    converged: bool,
}

impl<S: Semiring> MaintainedFixpoint<S> {
    /// Adopt the values of a completed fixpoint run.
    pub fn start(outcome: &datalog::EvalOutcome<S>) -> Self {
        MaintainedFixpoint {
            values: outcome.values.clone(),
            converged: outcome.converged,
        }
    }

    /// Adopt an owned value vector (`converged` says whether it is known
    /// to be the least fixpoint of the current grounding).
    pub fn from_values(values: Vec<S>, converged: bool) -> Self {
        MaintainedFixpoint { values, converged }
    }

    /// Value per IDB fact, aligned with `GroundedProgram::idb_facts`.
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Whether the maintained values are a (budget-respecting) fixpoint.
    /// `false` after any apply that exhausted its budget — treat the
    /// values as stale and re-evaluate from scratch.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Consume the handle, returning the value vector.
    pub fn into_values(self) -> Vec<S> {
        self.values
    }

    /// Repair the fixpoint after `datalog::extend_grounding` appended
    /// grounded rules `base_rules..` (and possibly new IDB facts) to
    /// `gp`. `assign` must value the extended fact-id space; `budget` is
    /// an iteration budget in *equivalent full passes* (same unit as
    /// `datalog::default_budget`).
    ///
    /// Returns `true` when the delta was applied incrementally
    /// (⊕-idempotent semirings: worklist propagation seeded by the new
    /// rules) and `false` on the documented fallback (non-idempotent ⊕
    /// without a ⊖: full naive re-evaluation over the extended
    /// grounding). The values are exact either way. Counts the repair
    /// into [`Counter::RepairsWorklist`] or [`Counter::RepairsNaive`].
    pub fn apply_insert<V>(
        &mut self,
        gp: &GroundedProgram,
        assign: &V,
        base_rules: usize,
        budget: usize,
        rec: &dyn Recorder,
    ) -> bool
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let enabled = rec.enabled();
        let span = enabled.then(Instant::now);
        self.values.resize(gp.num_idb_facts(), S::zero());
        let incremental = S::ADD_IDEMPOTENT;
        if !incremental {
            // Documented fallback criterion: without ⊕-idempotence a
            // re-fired rule's stale contribution is not absorbed, and
            // subtracting it would need a ⊖ the semiring lacks.
            let out = naive_eval(gp, assign, budget);
            self.values = out.values;
            self.converged = out.converged;
        } else if base_rules < gp.rules.len() {
            // Semi-naive ⊕-propagation seeded by the appended rules. Old
            // rules re-fire only when a body fact of theirs strictly
            // grows, exactly as in `datalog::semi_naive_eval`'s drain
            // phase (every old rule has already fired in the run that
            // produced the maintained values).
            let seed: Vec<u32> = (base_rules as u32..gp.rules.len() as u32).collect();
            let max_firings = budget.saturating_mul(gp.rules.len().max(1));
            let drained = self.propagate(gp, assign, &seed, max_firings, rec);
            self.converged = self.converged && drained;
        }
        if enabled {
            let repair = if incremental {
                Counter::RepairsWorklist
            } else {
                Counter::RepairsNaive
            };
            rec.counter(repair, 1);
        }
        if let Some(t0) = span {
            rec.stage_nanos(Stage::Maintain, t0.elapsed().as_nanos() as u64);
        }
        incremental
    }

    /// The ⊕-idempotent repair worklist, shaped like
    /// `datalog::semi_naive_eval`: a seed pass fires each `seed` rule
    /// once in ascending order, ⊕-accumulating its ⊗-product into its
    /// head; then a FIFO queue re-fires rules whose body strictly grew.
    /// When a head grows, its dependent rules
    /// (`GroundedProgram::dependents`) are enqueued unless already
    /// queued — except, during the seed pass, dependents after the
    /// current rule: both callers seed with every rule that can read a
    /// changed fact, so those are seeds still to fire, and they read the
    /// new value when their turn comes. Returns whether everything fired
    /// within `max_firings` firings (at least the seed).
    fn propagate<V>(
        &mut self,
        gp: &GroundedProgram,
        assign: &V,
        seed: &[u32],
        max_firings: usize,
        rec: &dyn Recorder,
    ) -> bool
    where
        V: Valuation<S> + ?Sized,
    {
        let mut pending = vec![false; gp.rules.len()];
        let mut queue: VecDeque<u32> = VecDeque::new();
        // One firing of rule `ri`; `$fired(dep)` says whether `dep` needs
        // a queue entry to see the change (it has fired already).
        macro_rules! fire {
            ($ri:expr, $fired:expr) => {{
                let ri = $ri;
                let head = gp.rules.head(ri);
                let mut prod = S::one();
                for &f in gp.rules.body_edb(ri) {
                    prod.mul_assign(&assign.value(f));
                }
                for &i in gp.rules.body_idb(ri) {
                    prod.mul_assign(&self.values[i as usize]);
                }
                if !prod.is_zero() {
                    let sum = self.values[head].add(&prod);
                    if !sum.sr_eq(&self.values[head]) {
                        self.values[head] = sum;
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
        let max_firings = max_firings.max(seed.len());
        let mut firings = seed.len();
        for &ri in seed {
            let ri = ri as usize;
            fire!(ri, |dep| dep <= ri);
        }
        let mut drained = true;
        while let Some(ri) = queue.pop_front() {
            if firings == max_firings {
                drained = false;
                break;
            }
            firings += 1;
            pending[ri as usize] = false;
            fire!(ri as usize, |_| true);
        }
        if rec.enabled() {
            rec.counter(Counter::RuleFirings, firings as u64);
        }
        drained
    }

    /// Repair the fixpoint after `datalog::retract_facts_from_grounding`
    /// removed the rules citing the retracted facts. `roots` is that
    /// call's return value — the heads of the removed rules.
    ///
    /// The *cone* — the upward closure of `roots` along
    /// `GroundedProgram::dependents` — is reset to ⊥ and re-derived
    /// against the frozen boundary (see the crate docs). On
    /// ⊕-idempotent semirings the re-derivation is the repair worklist,
    /// seeded by the cone's rules; `budget` then caps its firings at
    /// `budget` equivalent passes over the cone's rules. Otherwise it runs
    /// naive Jacobi rounds over the cone's rules and `budget` caps the
    /// rounds. `datalog::default_budget` suffices for both on a p-stable
    /// semiring. Counts the cone's facts and rules and the repair kind.
    ///
    /// Exact on **every** semiring — see the crate docs for why the
    /// restart-from-⊥ rederivation needs neither ⊖ nor ⊕-idempotence —
    /// so, unlike inserts, there is no fallback path. Returns `true` iff
    /// the cone re-derivation drained within the budget (also recorded in
    /// [`converged`](MaintainedFixpoint::converged)).
    pub fn apply_retract<V>(
        &mut self,
        gp: &GroundedProgram,
        assign: &V,
        roots: &[usize],
        budget: usize,
        rec: &dyn Recorder,
    ) -> bool
    where
        V: Valuation<S> + ?Sized,
    {
        let enabled = rec.enabled();
        let span = enabled.then(Instant::now);
        let n = gp.num_idb_facts();
        debug_assert_eq!(self.values.len(), n, "retract never changes the fact space");

        // Cone: upward closure of the removed rules' heads through the
        // surviving rules' fact → dependent-rule edges.
        let mut in_cone = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for &root in roots {
            if !in_cone[root] {
                in_cone[root] = true;
                stack.push(root);
            }
        }
        while let Some(i) = stack.pop() {
            for &ri in gp.dependents.of(i) {
                let h = gp.rules.head(ri as usize);
                if !in_cone[h] {
                    in_cone[h] = true;
                    stack.push(h);
                }
            }
        }
        // Cone facts and their rules, ascending: one scan of the rule
        // heads, the cheapest way to list the cone's rules in order when
        // the cone is a large part of the program.
        let cone_facts: Vec<usize> = (0..n).filter(|&i| in_cone[i]).collect();
        let cone_rules: Vec<u32> = (0..gp.rules.len() as u32)
            .filter(|&r| in_cone[gp.rules.head(r as usize)])
            .collect();

        // Restart the cone from ⊥; non-cone values are final.
        for &i in &cone_facts {
            self.values[i] = S::zero();
        }
        let (drained, repair) = if S::ADD_IDEMPOTENT {
            let max_firings = budget.saturating_mul(cone_rules.len().max(1));
            let drained = self.propagate(gp, assign, &cone_rules, max_firings, rec);
            (drained, Counter::RepairsWorklist)
        } else {
            let drained = self.naive_cone(gp, assign, &cone_facts, &cone_rules, budget, rec);
            (drained, Counter::RepairsNaive)
        };
        self.converged = self.converged && drained;
        if enabled {
            rec.counter(Counter::RetractConeFacts, cone_facts.len() as u64);
            rec.counter(Counter::RetractConeRules, cone_rules.len() as u64);
            rec.counter(repair, 1);
        }
        if let Some(t0) = span {
            rec.stage_nanos(Stage::Maintain, t0.elapsed().as_nanos() as u64);
        }
        drained
    }

    /// Re-derive the zeroed cone by naive (Jacobi) rounds over its rules
    /// against the frozen boundary — the retract repair for semirings
    /// whose ⊕ is not idempotent, where a worklist's stale contributions
    /// would not be absorbed. Returns whether the rounds drained within
    /// `budget`.
    fn naive_cone<V>(
        &mut self,
        gp: &GroundedProgram,
        assign: &V,
        cone_facts: &[usize],
        cone_rules: &[u32],
        budget: usize,
        rec: &dyn Recorder,
    ) -> bool
    where
        V: Valuation<S> + ?Sized,
    {
        let mut cone_pos = vec![usize::MAX; gp.num_idb_facts()];
        for (k, &i) in cone_facts.iter().enumerate() {
            cone_pos[i] = k;
        }
        let mut firings = 0usize;
        let mut drained = cone_rules.is_empty();
        for _ in 0..budget {
            let mut next: Vec<S> = vec![S::zero(); cone_facts.len()];
            for &ri in cone_rules {
                let ri = ri as usize;
                let mut prod = S::one();
                for &f in gp.rules.body_edb(ri) {
                    prod.mul_assign(&assign.value(f));
                }
                for &i in gp.rules.body_idb(ri) {
                    prod.mul_assign(&self.values[i as usize]);
                }
                firings += 1;
                next[cone_pos[gp.rules.head(ri)]].add_assign(&prod);
            }
            let mut changed = false;
            for (&i, v) in cone_facts.iter().zip(next) {
                if !v.sr_eq(&self.values[i]) {
                    changed = true;
                    self.values[i] = v;
                }
            }
            if !changed {
                drained = true;
                break;
            }
        }
        if rec.enabled() {
            rec.counter(Counter::RuleFirings, firings as u64);
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::{
        default_budget, extend_grounding, ground, parse_program, retract_facts_from_grounding,
        Database, Exec, GroundingIndex, Program,
    };
    use graphgen::generators;
    use semiring::valuation::{AllOnes, UnitWeights};
    use semiring::{Bool, Counting, Tropical};
    use telemetry::NOOP;

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    /// Build a db over the first `upto` edges of `g` (constants interned
    /// for every node so fact ids align with the full-graph database).
    fn db_prefix(p: &Program, g: &graphgen::LabeledDigraph, upto: usize) -> Database {
        let e = p.preds.get("E").unwrap();
        let mut db = Database::new();
        for i in 0..g.num_nodes() {
            db.constant(&format!("v{i}"));
        }
        for &(u, v, _) in &g.edges()[..upto] {
            db.insert(
                e,
                vec![
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ],
            );
        }
        db
    }

    fn assert_matches_rebuild<S: Semiring, V: semiring::valuation::Valuation<S> + ?Sized>(
        mf: &MaintainedFixpoint<S>,
        gp: &GroundedProgram,
        rebuilt: &GroundedProgram,
        assign: &V,
    ) {
        assert!(mf.converged());
        let reference = naive_eval::<S, _>(rebuilt, assign, default_budget(rebuilt));
        assert!(reference.converged);
        // Compare per (pred, tuple): the maintained grounding may hold
        // zombies (value 0) the rebuild does not.
        for (i, fact) in gp.idb_facts.iter().enumerate() {
            match rebuilt.fact(fact.0, &fact.1) {
                Some(j) => assert!(
                    mf.values()[i].sr_eq(&reference.values[j]),
                    "{fact:?}: {:?} != {:?}",
                    mf.values()[i],
                    reference.values[j]
                ),
                None => assert!(mf.values()[i].is_zero(), "zombie {fact:?} must be 0"),
            }
        }
        for (j, fact) in rebuilt.idb_facts.iter().enumerate() {
            if !reference.values[j].is_zero() {
                assert!(gp.fact(fact.0, &fact.1).is_some(), "missing {fact:?}");
            }
        }
    }

    #[test]
    fn insert_propagation_matches_rebuild_on_idempotent_semirings() {
        let mut p = tc();
        for seed in 0..3u64 {
            let g = generators::gnm(8, 18, &["E"], seed);
            let (db_full, _) = Database::from_graph(&mut p, &g);
            let rebuilt = ground(&p, &db_full, &Exec::default()).unwrap();
            let mut db = db_prefix(&p, &g, g.edges().len() - 4);
            let e = p.preds.get("E").unwrap();
            let mut gp = ground(&p, &db, &Exec::default()).unwrap();
            let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
            let unit = UnitWeights::new(Tropical::new(1));
            let mut mf = MaintainedFixpoint::start(&naive_eval::<Tropical, _>(
                &gp,
                &unit,
                default_budget(&gp),
            ));
            // Insert the held-back edges one at a time.
            for k in (g.edges().len() - 4)..g.edges().len() {
                let (u, v, _) = g.edges()[k];
                db.insert(
                    e,
                    vec![
                        db.node_const(u as usize).unwrap(),
                        db.node_const(v as usize).unwrap(),
                    ],
                );
                let base_rules = gp.rules.len();
                extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
                let incremental =
                    mf.apply_insert(&gp, &unit, base_rules, default_budget(&gp), &NOOP);
                assert!(incremental, "Tropical is ⊕-idempotent");
            }
            assert_matches_rebuild(&mf, &gp, &rebuilt, &unit);
        }
    }

    #[test]
    fn insert_falls_back_but_stays_exact_on_counting() {
        let mut p = tc();
        let g = generators::gnm(7, 14, &["E"], 9);
        let (db_full, _) = Database::from_graph(&mut p, &g);
        let rebuilt = ground(&p, &db_full, &Exec::default()).unwrap();
        let mut db = db_prefix(&p, &g, g.edges().len() - 2);
        let e = p.preds.get("E").unwrap();
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let unit = UnitWeights::new(Counting::new(1));
        let out = naive_eval::<Counting, _>(&gp, &unit, default_budget(&gp));
        if !out.converged {
            return; // cyclic instance: Counting diverges, nothing to maintain
        }
        let mut mf = MaintainedFixpoint::start(&out);
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        for &(u, v, _) in &g.edges()[g.edges().len() - 2..] {
            db.insert(
                e,
                vec![
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ],
            );
        }
        let base_rules = gp.rules.len();
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        let incremental = mf.apply_insert(&gp, &unit, base_rules, default_budget(&gp), &NOOP);
        assert!(!incremental, "Counting is not ⊕-idempotent");
        let reference = naive_eval::<Counting, _>(&rebuilt, &unit, default_budget(&rebuilt));
        if reference.converged {
            assert_matches_rebuild(&mf, &gp, &rebuilt, &unit);
        }
    }

    #[test]
    fn retract_rederives_the_cone_exactly() {
        let mut p = tc();
        for seed in 0..3u64 {
            let g = generators::gnm(8, 18, &["E"], seed);
            let (mut db, edge_facts) = Database::from_graph(&mut p, &g);
            let mut gp = ground(&p, &db, &Exec::default()).unwrap();
            let unit = UnitWeights::new(Tropical::new(1));
            let mut mf = MaintainedFixpoint::start(&naive_eval::<Tropical, _>(
                &gp,
                &unit,
                default_budget(&gp),
            ));
            // Retract two edges, one at a time.
            for &fid in &edge_facts[..2] {
                let (pred, tuple) = db.fact(fid);
                let tuple = tuple.to_vec();
                db.retract(pred, &tuple);
                let roots = retract_facts_from_grounding(&mut gp, &[fid]);
                assert!(mf.apply_retract(&gp, &unit, &roots, default_budget(&gp), &NOOP));
            }
            let rebuilt = ground(&p, &db, &Exec::default()).unwrap();
            assert_matches_rebuild(&mf, &gp, &rebuilt, &unit);
        }
    }

    #[test]
    fn retract_is_exact_on_non_idempotent_semirings() {
        // The restart-from-⊥ rederivation needs no ⊖ and no idempotence:
        // Counting on an acyclic instance must match the rebuild too.
        let mut p = tc();
        let g = generators::path(5, "E");
        let (mut db, edge_facts) = Database::from_graph(&mut p, &g);
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let unit = UnitWeights::new(Counting::new(1));
        let mut mf =
            MaintainedFixpoint::start(&naive_eval::<Counting, _>(&gp, &unit, default_budget(&gp)));
        let fid = edge_facts[2];
        let (pred, tuple) = db.fact(fid);
        let tuple = tuple.to_vec();
        db.retract(pred, &tuple);
        let roots = retract_facts_from_grounding(&mut gp, &[fid]);
        assert!(mf.apply_retract(&gp, &unit, &roots, default_budget(&gp), &NOOP));
        let rebuilt = ground(&p, &db, &Exec::default()).unwrap();
        assert_matches_rebuild(&mf, &gp, &rebuilt, &unit);
    }

    #[test]
    fn interleaved_inserts_and_retracts_match_rebuild() {
        let p = tc();
        let g = generators::gnm(9, 22, &["E"], 5);
        let e = p.preds.get("E").unwrap();
        // Mirror database so fact ids in the maintained run are our own.
        let mut db = db_prefix(&p, &g, g.edges().len() - 3);
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let mut mf =
            MaintainedFixpoint::start(&naive_eval::<Bool, _>(&gp, &AllOnes, default_budget(&gp)));
        // Script: insert one held-back edge, retract a live one, repeat.
        let held: Vec<(u32, u32)> = g.edges()[g.edges().len() - 3..]
            .iter()
            .map(|&(u, v, _)| (u, v))
            .collect();
        let retire: Vec<(u32, u32)> = g.edges()[..3].iter().map(|&(u, v, _)| (u, v)).collect();
        for k in 0..3 {
            let (u, v) = held[k];
            db.insert(
                e,
                vec![
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ],
            );
            let base_rules = gp.rules.len();
            extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
            assert!(mf.apply_insert(&gp, &AllOnes, base_rules, default_budget(&gp), &NOOP));
            let (u, v) = retire[k];
            let tuple = vec![
                db.node_const(u as usize).unwrap(),
                db.node_const(v as usize).unwrap(),
            ];
            if let Some(fid) = db.retract(e, &tuple) {
                let roots = retract_facts_from_grounding(&mut gp, &[fid]);
                index.retract(&db, &[fid]);
                assert!(mf.apply_retract(&gp, &AllOnes, &roots, default_budget(&gp), &NOOP));
            }
        }
        let rebuilt = ground(&p, &db, &Exec::default()).unwrap();
        assert_matches_rebuild(&mf, &gp, &rebuilt, &AllOnes);
    }
}
