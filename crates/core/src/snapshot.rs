//! Immutable, thread-shareable freezes of an [`Engine`] session.
//!
//! An [`Engine`] is deliberately *not* `Sync`: its lazy caches fill through
//! `OnceCell`/`RefCell` interior mutability, exactly the state that would
//! race under `&Engine` from two threads. [`Engine::snapshot`] resolves the
//! tension by **pre-forcing** the caches a reader needs (grounding,
//! classification, budget) and freezing the shared artifacts behind `Arc`s
//! into an [`EngineSnapshot`]:
//!
//! - physically immutable — no cell is ever written after construction, so
//!   the type is `Send + Sync` by construction (asserted below) and any
//!   number of threads can evaluate concurrently without locks;
//! - cheaply cloneable — a clone is a handful of `Arc` bumps, so a serving
//!   layer can hand every connection its own handle and atomically swap in
//!   a replacement snapshot after a mutation, leaving in-flight readers on
//!   the old one (see `server::session`);
//! - bit-identical to the session — [`EngineSnapshot::eval`] and
//!   [`EngineSnapshot::fixpoint`] run the same
//!   [`eval_with_strategy`] dispatch over the same cached
//!   grounding as [`Engine::fixpoint`]/`Query::eval`, so results are the
//!   values the sequential engine would produce.
//!
//! What a snapshot does *not* do: compile new circuits or run provenance
//! fixpoints. Those caches stay on the (single-threaded) session; circuits
//! already compiled before the freeze ride along read-only via
//! [`EngineSnapshot::compiled`].

use std::collections::HashMap;
use std::sync::Arc;

use datalog::{
    eval_with_strategy, magic_point_eval, par_fused_eval_recorded, ConstId, Database, EvalOutcome,
    EvalStrategy, FusedOutcome, GroundedProgram, Program,
};
use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{CacheEvent, PipelineMetrics, Stage};

use crate::classify::Classification;
use crate::compile::{Compiled, Strategy};
use crate::engine::{CircuitKey, Engine};

/// An immutable, `Send + Sync` view over one [`Engine`] session's cached
/// pipeline artifacts — program, database, grounding, classification, and
/// any circuits compiled before the freeze. Built by [`Engine::snapshot`];
/// see the [module docs](self) for the concurrency argument.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    program: Arc<Program>,
    db: Arc<Database>,
    grounding: Arc<GroundedProgram>,
    classification: Arc<Classification>,
    budget: usize,
    eval_strategy: EvalStrategy,
    parallelism: usize,
    epoch: u64,
    circuits: HashMap<CircuitKey, Arc<Compiled>>,
    metrics: Arc<PipelineMetrics>,
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: Arc<Program>,
        db: Arc<Database>,
        grounding: Arc<GroundedProgram>,
        classification: Arc<Classification>,
        budget: usize,
        eval_strategy: EvalStrategy,
        parallelism: usize,
        epoch: u64,
        circuits: HashMap<CircuitKey, Arc<Compiled>>,
        metrics: Arc<PipelineMetrics>,
    ) -> Self {
        Self {
            program,
            db,
            grounding,
            classification,
            budget,
            eval_strategy,
            parallelism,
            epoch,
            circuits,
            metrics,
        }
    }

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

    /// The fixpoint iteration budget captured at snapshot time.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The fixpoint algorithm captured at snapshot time.
    pub fn eval_strategy(&self) -> EvalStrategy {
        self.eval_strategy
    }

    /// Threads a *single* fused evaluation shards its grounding discovery
    /// across (captured at snapshot time; the fixpoint itself is always
    /// sequential). A serving layer typically keeps this at 1 and gets
    /// its parallelism from concurrent readers instead — see the
    /// worker-pool sizing discussion in `docs/ARCHITECTURE.md`.
    pub fn parallelism(&self) -> usize {
        self.parallelism
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

    /// Resolve `pred(tuple…)` to its index in the frozen grounding.
    ///
    /// `Ok(None)` means the fact is not derivable (it evaluates to `0`,
    /// matching the paper's semantics); unknown predicates and arity
    /// mismatches are errors, exactly as in [`Engine::query`].
    pub fn fact_index(&self, pred: &str, tuple: &[&str]) -> Result<Option<usize>, Error> {
        let pred_id = self
            .program
            .preds
            .get(pred)
            .ok_or_else(|| Error::UnknownPredicate(pred.to_owned()))?;
        if let Some(arity) = self.program.arity(pred_id) {
            if arity != tuple.len() {
                return Err(Error::BadQuery(format!(
                    "{pred} has arity {arity}, got {} arguments",
                    tuple.len()
                )));
            }
        }
        let consts: Option<Vec<ConstId>> = tuple.iter().map(|c| self.db.consts.get(c)).collect();
        Ok(consts.and_then(|t| self.grounding.fact(pred_id, &t)))
    }

    /// Run the frozen grounding's fixpoint over any semiring under a
    /// valuation — the snapshot counterpart of [`Engine::fixpoint`], same
    /// entry point, same results. Non-convergence is reported in the
    /// outcome, not as an error.
    pub fn fixpoint<S, V>(&self, valuation: &V) -> EvalOutcome<S>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let out = telemetry::time(&*self.metrics, Stage::Eval, || {
            eval_with_strategy(
                self.eval_strategy,
                &self.grounding,
                valuation,
                self.budget,
                &*self.metrics,
                Stage::Eval,
            )
        });
        if self.eval_strategy == EvalStrategy::SemiNaive && out.strategy == EvalStrategy::Naive {
            self.metrics.cache_event(CacheEvent::SeminaiveFallback);
        }
        out
    }

    /// Evaluate one fact over any semiring under a valuation — the
    /// snapshot counterpart of `Query::eval`. Underivable facts evaluate
    /// to `0`; a fixpoint that does not converge within the frozen budget
    /// errors with [`Error::Diverged`].
    ///
    /// Each call runs one fixpoint. To evaluate *many* facts under one
    /// valuation (the batched serving path), run
    /// [`fixpoint`](EngineSnapshot::fixpoint) once and index its `values`
    /// by [`fact_index`](EngineSnapshot::fact_index).
    pub fn eval<S, V>(&self, pred: &str, tuple: &[&str], valuation: &V) -> Result<S, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let Some(fact) = self.fact_index(pred, tuple)? else {
            return Ok(S::zero());
        };
        let out = self.fixpoint::<S, V>(valuation);
        if !out.converged {
            return Err(Error::Diverged {
                iterations: self.budget,
            });
        }
        Ok(out.values[fact].clone())
    }

    /// Run the fused ground+eval pipeline against the frozen
    /// program/database — the snapshot counterpart of
    /// `Engine::fused_fixpoint`. The frozen **grounding is not touched**:
    /// discovery re-streams every grounded rule into the ⊕-worklist, so
    /// the outcome carries its own (bit-identical) fact list. The frozen
    /// budget caps the fused rounds. No rule cap applies: the frozen
    /// grounding already passed the session's, and discovery streams the
    /// same groundings.
    pub fn fused_fixpoint<S, V>(&self, valuation: &V) -> Result<FusedOutcome<S>, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        par_fused_eval_recorded(
            &self.program,
            &self.db,
            valuation,
            Some(self.budget),
            usize::MAX,
            self.parallelism,
            &*self.metrics,
        )
    }

    /// Evaluate one goal demand-driven (magic-set rewrite, cone-only
    /// grounding) against the frozen program/database — the snapshot
    /// counterpart of the `Pipeline::Magic` route of `Query::eval`.
    ///
    /// `Ok(None)` means the goal is not eligible for the rewrite (fall
    /// back to the materialized path); constants outside the domain
    /// evaluate to `0`; unknown predicates and arity mismatches are
    /// errors, exactly as in [`fact_index`](EngineSnapshot::fact_index);
    /// a cone fixpoint that does not converge errors with
    /// [`Error::Diverged`].
    pub fn magic_point<S, V>(
        &self,
        pred: &str,
        tuple: &[&str],
        valuation: &V,
    ) -> Result<Option<S>, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let pred_id = self
            .program
            .preds
            .get(pred)
            .ok_or_else(|| Error::UnknownPredicate(pred.to_owned()))?;
        if let Some(arity) = self.program.arity(pred_id) {
            if arity != tuple.len() {
                return Err(Error::BadQuery(format!(
                    "{pred} has arity {arity}, got {} arguments",
                    tuple.len()
                )));
            }
        }
        let consts: Option<Vec<ConstId>> = tuple.iter().map(|c| self.db.consts.get(c)).collect();
        let Some(consts) = consts else {
            // Out-of-domain constant: underivable under every pipeline.
            // Still only an answer if the rewrite applies at all — an
            // ineligible goal must fall back whole.
            return Ok(magic_eligible(&self.program, pred_id, tuple.len()).then(S::zero));
        };
        match magic_point_eval::<S, _>(
            &self.program,
            &self.db,
            pred_id,
            &consts,
            valuation,
            None,
            &*self.metrics,
        )? {
            None => Ok(None),
            // Divergence is only an error for derivable goals — an
            // absent goal renders 0 whatever the rest of the cone did,
            // matching the materialized route's resolve-before-eval.
            Some(out) if out.derivable && !out.converged => Err(Error::Diverged {
                iterations: out.iterations,
            }),
            Some(out) => Ok(Some(out.value)),
        }
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
        let pred_id = self.program.preds.get(pred)?;
        let consts: Option<Vec<ConstId>> = tuple.iter().map(|c| self.db.consts.get(c)).collect();
        let key: CircuitKey = (pred_id, consts?, strategy);
        self.circuits.get(&key).map(Arc::clone)
    }

    /// Number of compiled circuits frozen into this snapshot.
    pub fn compiled_count(&self) -> usize {
        self.circuits.len()
    }
}

/// Mirror of `magic_point_eval`'s eligibility test, for goals whose
/// constants fall outside the domain (there is no tuple to hand the
/// rewrite, but the fallback decision must match).
fn magic_eligible(program: &Program, pred: datalog::PredId, arity: usize) -> bool {
    datalog::classify(program).is_left_linear_chain && program.idbs().contains(&pred) && arity == 2
}

/// Convenience: freeze directly from a reference, equivalent to
/// [`Engine::snapshot`].
impl TryFrom<&Engine> for EngineSnapshot {
    type Error = Error;

    fn try_from(engine: &Engine) -> Result<Self, Error> {
        engine.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use semiring::valuation::{AllOnes, UnitWeights};
    use semiring::{Bool, Counting, Tropical};

    const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";

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
        let from_snap: Tropical = snap
            .eval("T", &["v0", "v5"], &UnitWeights::new(Tropical::new(1)))
            .unwrap();
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
        let _: Counting = snap.eval("T", &["v0", "v3"], &AllOnes).unwrap();
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
        let b: Bool = snap.eval("T", &["v0", "nope"], &AllOnes).unwrap();
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
