//! Incremental maintenance of semiring fixpoints over a grounded program
//! (the delta layer behind `Engine::insert_facts` / `retract_facts`).
//!
//! A [`MaintainedFixpoint`] owns the value vector of one `(semiring,
//! valuation)` fixpoint and repairs it in place as the grounding changes,
//! instead of re-running the fixpoint from scratch. Every repair runs one
//! of the two loops of `datalog::eval`'s fixpoint kernel — the code
//! from-scratch evaluation runs:
//!
//! * **⊕-idempotent inserts**
//!   ([`apply_insert`](MaintainedFixpoint::apply_insert)): after
//!   `datalog::extend_grounding` appended the delta's grounded rules, the
//!   new rules seed the ⊕-worklist `datalog::propagate`, and heads that
//!   strictly grow re-enqueue their dependent rules through the
//!   grounding's own fact → rules index (`GroundedProgram::dependents`),
//!   so a repair builds no index. Stale contributions computed from
//!   smaller body values are absorbed by the final ones
//!   ([`semiring::Semiring::ADD_IDEMPOTENT`]).
//!
//! * **Every other write** — retracts
//!   ([`apply_retract`](MaintainedFixpoint::apply_retract)), and inserts on
//!   semirings whose ⊕ is not idempotent (e.g. `Counting`, where re-added
//!   contributions would double-count proof trees and subtracting them
//!   would need a ⊖) — repairs a *cone*: the upward closure, along the
//!   rules' dependencies, of the heads of the appended rules (insert) or
//!   of the rules `datalog::retract_facts_from_grounding` removed
//!   (retract) — exactly the facts whose values may change. Classical DRed
//!   would over-delete and re-derive with a ⊖-adjustment, sound only for
//!   idempotent ⊕; instead the cone restarts **from ⊥** and is re-derived
//!   against the frozen rest of the program. That is exact on *every*
//!   semiring: the cone is upward-closed, so no equation outside it reads
//!   a cone value — the boundary is independently fixed — and the least
//!   fixpoint of the cone sub-system extended with the boundary is the
//!   restriction of the whole program's. Over the same budget it never
//!   does more work than a whole-program run: the cone's rules are a
//!   subset of all rules, and the boundary starts at its final values.
//!   The cone is re-derived by `datalog::propagate` seeded with its rules
//!   on ⊕-idempotent semirings, by naive rounds over its rules
//!   (`datalog::rounds`) otherwise — without idempotence a worklist's
//!   stale contributions would not be absorbed.
//!
//! Budgets are in *equivalent passes* (the unit of
//! `datalog::default_budget`, which always suffices on a p-stable
//! semiring). Every repair reports into its telemetry [`Recorder`] which
//! loop ran (`repairs_worklist` / `repairs_naive`), its rule firings and
//! its round samples under `Stage::Maintain` (as from-scratch runs do
//! under `Stage::Eval`); retracts also report the cone's size
//! (`retract_cone_facts` / `retract_cone_rules`).
//!
//! Retracted facts stay in `GroundedProgram::idb_facts()` as *zombies*
//! (underivable facts pinned at value 0): keeping the fact indexing
//! prefix-stable is what lets the value vector, the circuits' output
//! numbering, and concurrent snapshot readers survive a delta. A zombie's
//! residual rules (if any) contribute `0 ⊗ … = 0`, which is ⊕-neutral, so
//! values are bit-identical to a from-scratch rebuild fact-for-fact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use datalog::{edb_factor, propagate, rounds, GroundedProgram};
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
/// `GroundedProgram::idb_facts()` at every step.
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

    /// Value per IDB fact, aligned with `GroundedProgram::idb_facts()`.
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
    /// `gp`. `assign` must value the extended fact-id space.
    ///
    /// On ⊕-idempotent semirings the appended rules seed the worklist,
    /// capped at `budget` equivalent passes over all rules; otherwise the
    /// cone of their heads is re-derived (see the crate docs). Exact
    /// either way, and no insert re-evaluates the whole program. Counts
    /// the repair into [`Counter::RepairsWorklist`] or
    /// [`Counter::RepairsNaive`]. Returns `true` iff the repair drained
    /// within the budget (also recorded in
    /// [`converged`](MaintainedFixpoint::converged)).
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
        let span = rec.enabled().then(Instant::now);
        self.values.resize(gp.num_idb_facts(), S::zero());
        let added = base_rules.min(gp.rules.len())..gp.rules.len();
        let drained = if S::ADD_IDEMPOTENT {
            let cap = budget
                .saturating_mul(gp.rules.len().max(1))
                .max(added.len());
            let edb = |ri| edb_factor(gp, assign, ri);
            let (_, drained) =
                propagate(gp, edb, &mut self.values, added, cap, rec, Stage::Maintain);
            if rec.enabled() {
                rec.counter(Counter::RepairsWorklist, 1);
            }
            drained
        } else {
            let roots: Vec<usize> = added.map(|ri| gp.rules.head(ri)).collect();
            self.repair_cone(gp, assign, &roots, budget, rec).0
        };
        self.converged = self.converged && drained;
        if let Some(t0) = span {
            rec.stage_nanos(Stage::Maintain, t0.elapsed().as_nanos() as u64);
        }
        drained
    }

    /// Repair the fixpoint after `datalog::retract_facts_from_grounding`
    /// removed the rules citing the retracted facts. `roots` is that
    /// call's return value — the heads of the removed rules — and their
    /// cone is re-derived (see the crate docs). Exact on **every**
    /// semiring. Counts the cone's facts and rules and the repair kind.
    /// Returns `true` iff the repair drained within the budget (also
    /// recorded in [`converged`](MaintainedFixpoint::converged)).
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
        let span = rec.enabled().then(Instant::now);
        debug_assert_eq!(
            self.values.len(),
            gp.num_idb_facts(),
            "retract never changes the fact space"
        );
        let (drained, facts, rules) = self.repair_cone(gp, assign, roots, budget, rec);
        self.converged = self.converged && drained;
        if let Some(t0) = span {
            rec.counter(Counter::RetractConeFacts, facts as u64);
            rec.counter(Counter::RetractConeRules, rules as u64);
            rec.stage_nanos(Stage::Maintain, t0.elapsed().as_nanos() as u64);
        }
        drained
    }

    /// Reset the cone of `roots` — their upward closure along
    /// `GroundedProgram::dependents` — to ⊥ and re-derive it against the
    /// frozen rest: by the worklist seeded with the cone's rules, capped
    /// at `budget` equivalent passes over them, on ⊕-idempotent
    /// semirings; by at most `budget` naive rounds over them otherwise.
    /// Counts the repair kind. Returns whether the re-derivation drained
    /// within the budget, and the cone's fact and rule counts.
    fn repair_cone<V>(
        &mut self,
        gp: &GroundedProgram,
        assign: &V,
        roots: &[usize],
        budget: usize,
        rec: &dyn Recorder,
    ) -> (bool, usize, usize)
    where
        V: Valuation<S> + ?Sized,
    {
        let mut in_cone = vec![false; gp.num_idb_facts()];
        let mut stack = roots.to_vec();
        let mut facts = 0;
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut in_cone[i], true) {
                facts += 1;
                self.values[i] = S::zero();
                let deps = gp.dependents.of(i);
                stack.extend(deps.iter().map(|&ri| gp.rules.head(ri as usize)));
            }
        }
        // The cone's rules, ascending: one scan of the rule heads, the
        // cheapest way to list them in order when the cone is a large part
        // of the program.
        let rules: Vec<usize> = (0..gp.rules.len())
            .filter(|&r| in_cone[gp.rules.head(r)])
            .collect();
        let edb = |ri| edb_factor(gp, assign, ri);
        let cone = rules.iter().copied();
        let (drained, repair) = if S::ADD_IDEMPOTENT {
            let cap = budget.saturating_mul(rules.len().max(1)).max(rules.len());
            let (_, drained) =
                propagate(gp, edb, &mut self.values, cone, cap, rec, Stage::Maintain);
            (drained, Counter::RepairsWorklist)
        } else {
            let (_, drained) = rounds(
                gp,
                edb,
                &mut self.values,
                cone,
                budget,
                rec,
                Stage::Maintain,
            );
            (drained, Counter::RepairsNaive)
        };
        if rec.enabled() {
            rec.counter(repair, 1);
        }
        (drained, facts, rules.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::{
        default_budget, extend_grounding, ground, naive_eval, parse_program,
        retract_facts_from_grounding, Database, Exec, GroundingIndex, Program,
    };
    use graphgen::generators;
    use semiring::valuation::{AllOnes, UnitWeights};
    use semiring::{Bool, Counting, Tropical};
    use telemetry::{PipelineMetrics, NOOP};

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
                &[
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
        for (i, fact) in gp.idb_facts().enumerate() {
            match rebuilt.fact(fact.0, fact.1) {
                Some(j) => assert!(
                    mf.values()[i].sr_eq(&reference.values[j]),
                    "{fact:?}: {:?} != {:?}",
                    mf.values()[i],
                    reference.values[j]
                ),
                None => assert!(mf.values()[i].is_zero(), "zombie {fact:?} must be 0"),
            }
        }
        for (j, fact) in rebuilt.idb_facts().enumerate() {
            if !reference.values[j].is_zero() {
                assert!(gp.fact(fact.0, fact.1).is_some(), "missing {fact:?}");
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
                    &[
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
    fn insert_repairs_the_cone_exactly_on_counting() {
        // Counting is not ⊕-idempotent: the insert re-derives the cone of
        // the appended rules' heads by naive rounds, and drains.
        let mut p = tc();
        let g = generators::random_dag(8, 0.4, "E", 9);
        let (db_full, _) = Database::from_graph(&mut p, &g);
        let rebuilt = ground(&p, &db_full, &Exec::default()).unwrap();
        let mut db = db_prefix(&p, &g, g.edges().len() - 2);
        let e = p.preds.get("E").unwrap();
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let unit = UnitWeights::new(Counting::new(1));
        let out = naive_eval::<Counting, _>(&gp, &unit, default_budget(&gp));
        assert!(out.converged, "Counting converges on a DAG");
        let mut mf = MaintainedFixpoint::start(&out);
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        for &(u, v, _) in &g.edges()[g.edges().len() - 2..] {
            db.insert(
                e,
                &[
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ],
            );
        }
        let base_rules = gp.rules.len();
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        assert!(mf.apply_insert(&gp, &unit, base_rules, default_budget(&gp), &NOOP));
        assert_matches_rebuild(&mf, &gp, &rebuilt, &unit);
    }

    #[test]
    fn counting_insert_repairs_only_its_cone() {
        // A path 0 → … → 7 whose last edge arrives by insert: the cone is
        // the facts T(x, v7), a strict subset of the facts, and its naive
        // rounds fire fewer rules than a whole-program naive run.
        let mut p = tc();
        let g = generators::path(8, "E");
        let (db_full, _) = Database::from_graph(&mut p, &g);
        let rebuilt = ground(&p, &db_full, &Exec::default()).unwrap();
        let mut db = db_prefix(&p, &g, g.edges().len() - 1);
        let e = p.preds.get("E").unwrap();
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let unit = UnitWeights::new(Counting::new(2));
        let mut mf =
            MaintainedFixpoint::start(&naive_eval::<Counting, _>(&gp, &unit, default_budget(&gp)));
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let (u, v, _) = g.edges()[g.edges().len() - 1];
        db.insert(
            e,
            &[
                db.node_const(u as usize).unwrap(),
                db.node_const(v as usize).unwrap(),
            ],
        );
        let base_rules = gp.rules.len();
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        let metrics = PipelineMetrics::new(true);
        assert!(mf.apply_insert(&gp, &unit, base_rules, default_budget(&gp), &metrics));
        assert_matches_rebuild(&mf, &gp, &rebuilt, &unit);

        let whole = naive_eval::<Counting, _>(&gp, &unit, default_budget(&gp));
        let firings = metrics.counter_value(Counter::RuleFirings);
        assert_eq!(metrics.counter_value(Counter::RepairsNaive), 1);
        assert_eq!(metrics.counter_value(Counter::RepairsWorklist), 0);
        assert!(
            firings > 0 && firings < whole.rule_firings as u64,
            "cone repair fired {firings} rules, a whole-program run {}",
            whole.rule_firings
        );
        // The cone's rounds are reported under `maintain`.
        let report = metrics.report();
        assert!(!report.rounds_of(Stage::Maintain).is_empty());
        assert!(report.rounds_of(Stage::Eval).is_empty());
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
                &[
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
