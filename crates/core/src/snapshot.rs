//! Immutable, thread-shareable freezes of an [`Engine`] session.
//!
//! An [`Engine`] is deliberately *not* `Sync`: its lazy caches fill through
//! `OnceCell`/`RefCell` interior mutability, exactly the state that would
//! race under `&Engine` from two threads. [`Engine::snapshot`] resolves the
//! tension by **pre-forcing** the caches a reader needs (grounding,
//! classification) and freezing the shared artifacts behind `Arc`s into
//! an [`EngineSnapshot`]:
//!
//! - physically immutable — no cell is ever written after construction, so
//!   the type is `Send + Sync` by construction (asserted below) and any
//!   number of threads can evaluate concurrently without locks;
//! - cheaply cloneable — a clone is a handful of `Arc` bumps, so a serving
//!   layer can hand every connection its own handle and atomically swap in
//!   a replacement snapshot after a mutation, leaving in-flight readers on
//!   the old one (see `server::session`);
//! - bit-identical to the session — [`EngineSnapshot::reader`] hands out
//!   the same [`ReadContext`] an [`Engine`] does, over the frozen
//!   grounding, so [`ReadContext::eval`] and [`EngineSnapshot::fixpoint`]
//!   produce the values the sequential engine would.
//!
//! What a snapshot does *not* do: compile new circuits or run provenance
//! fixpoints. Those caches stay on the (single-threaded) session; circuits
//! already compiled before the freeze ride along read-only via
//! [`EngineSnapshot::compiled`].

use std::collections::HashMap;
use std::sync::Arc;

use datalog::{Database, EvalOutcome, EvalStrategy, FusedOutcome, GroundedProgram, Program};
use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::PipelineMetrics;

use crate::classify::Classification;
use crate::compile::{Compiled, Strategy};
use crate::engine::CircuitKey;
#[cfg(doc)]
use crate::engine::Engine;
use crate::read::{Grounding, ReadContext};

/// An immutable, `Send + Sync` view over one [`Engine`] session's cached
/// pipeline artifacts — program, database, grounding, classification, and
/// any circuits compiled before the freeze. Built by [`Engine::snapshot`];
/// see the [module docs](self) for the concurrency argument.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    pub(crate) program: Arc<Program>,
    pub(crate) db: Arc<Database>,
    pub(crate) grounding: Arc<GroundedProgram>,
    pub(crate) classification: Arc<Classification>,
    pub(crate) eval_budget: Option<usize>,
    pub(crate) eval_strategy: EvalStrategy,
    pub(crate) parallelism: usize,
    pub(crate) max_rules: usize,
    pub(crate) epoch: u64,
    pub(crate) circuits: HashMap<CircuitKey, Arc<Compiled>>,
    pub(crate) metrics: Arc<PipelineMetrics>,
}

// The whole point of the type: safe to share across threads. `Compiled`,
// `GroundedProgram`, and friends are plain data; `PipelineMetrics` is
// atomics + mutexed series. If a future field ever reintroduces
// single-threaded interior mutability (`Rc`, `RefCell`, …), this fails to
// compile instead of racing at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
};

impl EngineSnapshot {
    /// The frozen program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The frozen database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The frozen grounded program every reader evaluates against.
    pub fn grounding(&self) -> &GroundedProgram {
        &self.grounding
    }

    /// The frozen paper-level classification.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The write epoch of the originating session at freeze time: which
    /// generation of the database this snapshot sees. Bumped by
    /// [`Engine::insert_facts`]/[`Engine::retract_facts`]; a serving layer
    /// compares epochs to tell whether a reader handle predates a write.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The telemetry collector shared with the originating session:
    /// evaluations through the snapshot accumulate into the same stream.
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// The snapshot's read context: the same evaluator an [`Engine`]
    /// hands out, over the frozen grounding. Answer goals with
    /// [`ReadContext::eval`].
    pub fn reader(&self) -> ReadContext<'_> {
        ReadContext {
            program: &self.program,
            db: &self.db,
            grounding: Grounding::Frozen(&self.grounding),
            eval_budget: self.eval_budget,
            strategy: self.eval_strategy,
            parallelism: self.parallelism,
            max_rules: self.max_rules,
            metrics: &self.metrics,
        }
    }

    /// Resolve `pred(tuple…)` to its index in the frozen grounding.
    ///
    /// `Ok(None)` means the fact is not derivable (it evaluates to `0`,
    /// matching the paper's semantics); unknown predicates and arity
    /// mismatches are errors, exactly as in [`Engine::query`].
    pub fn fact_index(&self, pred: &str, tuple: &[&str]) -> Result<Option<usize>, Error> {
        Ok(self.reader().resolve(pred, tuple)?.fact_in(&self.grounding))
    }

    /// Run the frozen grounding's fixpoint over any semiring under a
    /// valuation — the snapshot counterpart of [`Engine::fixpoint`], same
    /// body, same results. Non-convergence is reported in the outcome,
    /// not as an error.
    pub fn fixpoint<S, V>(&self, valuation: &V) -> EvalOutcome<S>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        self.reader().fixpoint(&self.grounding, valuation)
    }

    /// Run the fused ground+eval pipeline against the frozen
    /// program/database — the snapshot counterpart of
    /// [`Engine::fused_fixpoint`], same body. The frozen **grounding is
    /// not touched**: discovery re-streams every grounded rule into the
    /// ⊕-worklist, so the outcome carries its own (bit-identical) fact
    /// list.
    pub fn fused_fixpoint<S, V>(&self, valuation: &V) -> Result<FusedOutcome<S>, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        self.reader().fused_fixpoint(valuation)
    }

    /// A circuit compiled on the originating session before the freeze,
    /// if one was cached for exactly this fact and (resolved) strategy.
    /// Snapshots never compile: a miss returns `None` rather than doing
    /// single-threaded work on a shared handle.
    pub fn compiled(
        &self,
        pred: &str,
        tuple: &[&str],
        strategy: Strategy,
    ) -> Option<Arc<Compiled>> {
        let goal = self.reader().resolve(pred, tuple).ok()?;
        let key: CircuitKey = (goal.pred, goal.consts?, strategy);
        self.circuits.get(&key).map(Arc::clone)
    }

    /// Number of compiled circuits frozen into this snapshot.
    pub fn compiled_count(&self) -> usize {
        self.circuits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::read::Pipeline;
    use semiring::valuation::{AllOnes, UnitWeights};
    use semiring::{Bool, Counting, Tropical};

    const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";

    /// Answer `T(tuple…)` through the snapshot's read context.
    fn eval<S: Semiring>(
        snap: &EngineSnapshot,
        tuple: &[&str],
        valuation: &impl Valuation<S>,
    ) -> Result<S, Error> {
        let reader = snap.reader();
        let goal = reader.resolve("T", tuple)?;
        let mut answers = reader.eval(Pipeline::Materialized, valuation, &[goal], None);
        answers.pop().unwrap()
    }

    fn tc_engine() -> Engine {
        Engine::builder()
            .program_text(TC)
            .graph(&graphgen::generators::path(5, "E"))
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_matches_engine_results() {
        let engine = tc_engine();
        let snap = engine.snapshot().unwrap();
        let from_engine: Tropical = engine
            .query("T", &["v0", "v5"])
            .unwrap()
            .eval(&UnitWeights::new(Tropical::new(1)))
            .unwrap();
        let from_snap: Tropical =
            eval(&snap, &["v0", "v5"], &UnitWeights::new(Tropical::new(1))).unwrap();
        assert_eq!(from_engine, from_snap);
        assert_eq!(from_snap, Tropical::new(5));
    }

    #[test]
    fn snapshot_grounds_nothing_new() {
        let engine = tc_engine();
        let snap = engine.snapshot().unwrap();
        let before = engine.cache_stats();
        assert_eq!(before.groundings, 1);
        let _: EvalOutcome<Bool> = snap.fixpoint(&AllOnes);
        let _: Counting = eval(&snap, &["v0", "v3"], &AllOnes).unwrap();
        // Evaluations through the snapshot reuse the frozen grounding.
        assert_eq!(engine.cache_stats().groundings, 1);
    }

    #[test]
    fn snapshot_fact_index_mirrors_query_semantics() {
        let engine = tc_engine();
        let snap = engine.snapshot().unwrap();
        assert!(snap.fact_index("T", &["v0", "v1"]).unwrap().is_some());
        // Out-of-domain constant: underivable, not an error.
        assert!(snap.fact_index("T", &["v0", "nope"]).unwrap().is_none());
        assert!(matches!(
            snap.fact_index("Z", &["v0"]),
            Err(Error::UnknownPredicate(_))
        ));
        assert!(matches!(
            snap.fact_index("T", &["v0"]),
            Err(Error::BadQuery(_))
        ));
        let b: Bool = eval(&snap, &["v0", "nope"], &AllOnes).unwrap();
        assert_eq!(b, Bool::zero());
    }

    #[test]
    fn precompiled_circuits_ride_along() {
        let engine = tc_engine();
        let empty = engine.snapshot().unwrap();
        assert_eq!(empty.compiled_count(), 0);
        let compiled = engine
            .query("T", &["v0", "v5"])
            .unwrap()
            .circuit(Strategy::Auto)
            .unwrap();
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.compiled_count(), 1);
        let hit = snap
            .compiled("T", &["v0", "v5"], compiled.strategy)
            .expect("compiled circuit frozen into snapshot");
        assert_eq!(hit.stats.num_gates, compiled.stats.num_gates);
        // Misses stay misses: snapshots never compile.
        assert!(snap
            .compiled("T", &["v1", "v5"], compiled.strategy)
            .is_none());
    }

    #[test]
    fn concurrent_readers_agree_with_sequential() {
        let engine = tc_engine();
        let expected = engine.fixpoint::<Tropical, _>(&UnitWeights::new(Tropical::new(1)));
        let expected = expected.unwrap();
        let snap = Arc::new(engine.snapshot().unwrap());
        let outs: Vec<EvalOutcome<Tropical>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let snap = Arc::clone(&snap);
                    s.spawn(move || {
                        snap.fixpoint::<Tropical, _>(&UnitWeights::new(Tropical::new(1)))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outs {
            assert_eq!(out.values, expected.values);
            assert_eq!(out.iterations, expected.iterations);
        }
    }
}
