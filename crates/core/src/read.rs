//! The read path, written once: one goal resolver
//! ([`ReadContext::resolve`]) and one group evaluator
//! ([`ReadContext::eval`]) behind `Query::eval`, [`EngineSnapshot`] and
//! the server's `QUERY`/`BATCH`.
//!
//! A fact has one provenance polynomial, so its answer under a semiring
//! must not depend on the [`Pipeline`] that computed it. The evaluator
//! owns the three routes and the rules they share:
//!
//! - a goal absent from a *complete* grounding is 0, answered without
//!   evaluating (a goal with a constant outside the active domain is
//!   absent from every grounding);
//! - a run that did not converge fails with [`Error::Diverged`] every
//!   goal it cannot prove underivable;
//! - magic goals the rewrite cannot serve fall back, as one group, to a
//!   single materialized fixpoint.
//!
//! It runs over a [`ReadContext`] borrowed from an [`Engine`] (whose
//! grounding is forced on first need) or from an [`EngineSnapshot`] (whose
//! grounding is frozen).
//!
//! [`EngineSnapshot`]: crate::snapshot::EngineSnapshot

use datalog::{
    default_budget, eval_with_strategy, magic_point_eval, par_fused_eval_recorded, ConstId,
    Database, EvalOutcome, EvalStrategy, FusedOutcome, GroundedProgram, PredId, Program,
};
use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{CacheEvent, PipelineMetrics, Stage};

use crate::engine::Engine;

/// Which grounding/evaluation pipeline [`ReadContext::eval`] routes goals
/// through — the session default of `Query::eval`, and per query on the
/// wire.
///
/// All three return bit-identical values. [`Engine::fixpoint`],
/// provenance, circuit compilation, and incremental maintenance always
/// use the materialized grounding — those consumers need the grounded
/// rules themselves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Materialize the full grounding (cached per session), then run the
    /// fixpoint over it. The right choice when the session asks many
    /// questions of the same instance — the grounding is paid once.
    #[default]
    Materialized,
    /// Fused ground+eval ([`datalog::par_fused_eval`]): stream every grounded
    /// rule straight into the semi-naive ⊕-worklist as discovery
    /// enumerates it, never materializing a rule store. The one-shot
    /// query mode: each `eval` call re-grounds from scratch, so it wins
    /// when the grounding dominates and is asked for once (`BENCH_grounding`
    /// measures the crossover). Non-⊕-idempotent semirings fall back to
    /// materialize + naive inside the call.
    Fused,
    /// Demand-driven point queries ([`datalog::magic_point_eval`]): for a
    /// bound-argument goal over a left-linear chain program, rewrite with
    /// magic predicates and ground only the query cone. Ineligible goals
    /// fall back to [`Pipeline::Materialized`] transparently.
    Magic,
}

impl Pipeline {
    /// Parse a pipeline name as used by `DATALOG_PIPELINE` and the wire
    /// protocol's `PIPELINE` clause.
    pub fn parse(s: &str) -> Option<Pipeline> {
        match s.trim().to_ascii_lowercase().as_str() {
            "materialized" => Some(Pipeline::Materialized),
            "fused" => Some(Pipeline::Fused),
            "magic" => Some(Pipeline::Magic),
            _ => None,
        }
    }

    /// The wire name of the pipeline.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Materialized => "materialized",
            Pipeline::Fused => "fused",
            Pipeline::Magic => "magic",
        }
    }
}

/// A goal `pred(tuple…)` resolved against a program and its database by
/// [`ReadContext::resolve`], ready for [`ReadContext::eval`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Goal {
    /// The goal predicate.
    pub pred: PredId,
    /// The goal constants; `None` when some constant is outside the
    /// active domain — the goal is then underivable and evaluates to 0.
    pub consts: Option<Vec<ConstId>>,
}

impl Goal {
    /// The goal's index in `gp`, or `None` when `gp` does not hold it.
    pub(crate) fn fact_in(&self, gp: &GroundedProgram) -> Option<usize> {
        gp.fact(self.pred, self.consts.as_deref()?)
    }
}

/// Look up `pred` and check that it takes `arity` arguments.
pub(crate) fn resolve_pred(program: &Program, pred: &str, arity: usize) -> Result<PredId, Error> {
    let id = program
        .preds
        .get(pred)
        .ok_or_else(|| Error::UnknownPredicate(pred.to_owned()))?;
    match program.arity(id) {
        Some(expected) if expected != arity => Err(Error::BadQuery(format!(
            "{pred} has arity {expected}, got {arity} arguments"
        ))),
        _ => Ok(id),
    }
}

/// A store of converged materialized fixpoints for one `(semiring,
/// valuation)` group: the hook a serving layer hands [`ReadContext::eval`]
/// to reuse a fixpoint across reads.
pub trait FixpointCache<S> {
    /// Call `read` with the stored values, if a converged fixpoint for
    /// this group is stored; return whether one was.
    fn with_values(&self, read: &mut dyn FnMut(&[S])) -> bool;
    /// Offer the values of a freshly converged fixpoint.
    fn store(&self, values: Vec<S>);
}

/// Where a [`ReadContext`] takes its grounding from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Grounding<'a> {
    /// A session's lazy cache, grounded on first need.
    Session(&'a Engine),
    /// A frozen grounding.
    Frozen(&'a GroundedProgram),
}

/// Everything a read needs, borrowed from an [`Engine`]
/// ([`Engine::reader`]) or an [`EngineSnapshot`]
/// ([`EngineSnapshot::reader`]): program, database, grounding, budget,
/// fixpoint strategy, parallelism, rule cap and metrics.
///
/// [`EngineSnapshot`]: crate::snapshot::EngineSnapshot
/// [`EngineSnapshot::reader`]: crate::snapshot::EngineSnapshot::reader
#[derive(Clone, Copy, Debug)]
pub struct ReadContext<'a> {
    pub(crate) program: &'a Program,
    pub(crate) db: &'a Database,
    pub(crate) grounding: Grounding<'a>,
    pub(crate) eval_budget: Option<usize>,
    pub(crate) strategy: EvalStrategy,
    pub(crate) parallelism: usize,
    pub(crate) max_rules: usize,
    pub(crate) metrics: &'a PipelineMetrics,
}

/// The in-domain goals of a group: `(position, predicate, constants)`.
type Pending<'g> = [(usize, PredId, &'g [ConstId])];

impl<'a> ReadContext<'a> {
    /// Resolve the goal `pred(tuple…)` against the context's program and
    /// database. Errors on unknown predicates
    /// ([`Error::UnknownPredicate`]) and arity mismatches
    /// ([`Error::BadQuery`]); constants outside the active domain are
    /// *not* errors (matching the paper's semantics, the fact is simply
    /// underivable).
    pub fn resolve<T: AsRef<str>>(&self, pred: &str, tuple: &[T]) -> Result<Goal, Error> {
        Ok(Goal {
            pred: resolve_pred(self.program, pred, tuple.len())?,
            consts: tuple
                .iter()
                .map(|c| self.db.consts.get(c.as_ref()))
                .collect(),
        })
    }

    /// The grounding the materialized route evaluates, forced on first
    /// need for a session. Failures (e.g. [`Error::GroundingLimit`]) are
    /// the session's cached ones.
    pub(crate) fn grounding(&self) -> Result<&'a GroundedProgram, Error> {
        match self.grounding {
            Grounding::Session(engine) => engine.grounding(),
            Grounding::Frozen(gp) => Ok(gp),
        }
    }

    /// The fixpoint iteration budget over `gp`: the configured
    /// `eval_budget`, else [`default_budget`].
    fn budget(&self, gp: &GroundedProgram) -> usize {
        self.eval_budget.unwrap_or_else(|| default_budget(gp))
    }

    /// Run the fixpoint over `gp` under a valuation, with the context's
    /// strategy. Non-convergence is reported in the outcome, not as an
    /// error.
    pub(crate) fn fixpoint<S, V>(&self, gp: &GroundedProgram, valuation: &V) -> EvalOutcome<S>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let budget = self.budget(gp);
        let out = telemetry::time(self.metrics, Stage::Eval, || {
            eval_with_strategy(
                self.strategy,
                gp,
                valuation,
                budget,
                self.metrics,
                Stage::Eval,
            )
        });
        self.note_effective_strategy(out.strategy);
        out
    }

    /// Run the fused ground+eval pipeline under a valuation: grounding
    /// discovery streams each grounded rule straight into the semi-naive
    /// ⊕-worklist, and no rule store is materialized — the grounding is
    /// neither consulted nor filled. The `eval_budget` caps the fused
    /// rounds, the rule cap the streamed groundings.
    pub(crate) fn fused_fixpoint<S, V>(&self, valuation: &V) -> Result<FusedOutcome<S>, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let out = par_fused_eval_recorded(
            self.program,
            self.db,
            valuation,
            self.eval_budget,
            self.max_rules,
            self.parallelism,
            self.metrics,
        )?;
        self.note_effective_strategy(out.strategy);
        Ok(out)
    }

    /// Bump the fallback counter when a semi-naive request actually ran
    /// naive (observable via [`EvalOutcome::strategy`] and the
    /// `seminaive_fallbacks` cache stat).
    fn note_effective_strategy(&self, effective: EvalStrategy) {
        if self.strategy == EvalStrategy::SemiNaive && effective == EvalStrategy::Naive {
            self.metrics.cache_event(CacheEvent::SeminaiveFallback);
        }
    }

    /// Answer `goals` under one valuation through `pipeline`, one result
    /// per goal, in order. Underivable goals are 0; a run that did not
    /// converge fails with [`Error::Diverged`] every goal it cannot prove
    /// underivable (see the [module docs](self) for the routes' shared
    /// rules). A `cache` is consulted before, and offered the values
    /// after, each materialized fixpoint.
    pub fn eval<S, V>(
        &self,
        pipeline: Pipeline,
        valuation: &V,
        goals: &[Goal],
        cache: Option<&dyn FixpointCache<S>>,
    ) -> Vec<Result<S, Error>>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let mut answers = vec![Ok(S::zero()); goals.len()];
        let pending: Vec<_> = goals
            .iter()
            .enumerate()
            .filter_map(|(i, g)| Some((i, g.pred, g.consts.as_deref()?)))
            .collect();
        if pending.is_empty() {
            return answers;
        }
        match pipeline {
            Pipeline::Materialized => self.materialized(valuation, &pending, &mut answers, cache),
            Pipeline::Fused => self.fused(valuation, &pending, &mut answers),
            Pipeline::Magic => {
                let fallback = self.magic(valuation, &pending, &mut answers);
                if !fallback.is_empty() {
                    self.materialized(valuation, &fallback, &mut answers, cache);
                }
            }
        }
        answers
    }

    /// One fixpoint over the grounding answers every goal it holds; the
    /// others stay 0 without evaluating.
    fn materialized<S, V>(
        &self,
        valuation: &V,
        pending: &Pending,
        answers: &mut [Result<S, Error>],
        cache: Option<&dyn FixpointCache<S>>,
    ) where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let gp = match self.grounding() {
            Ok(gp) => gp,
            Err(e) => return fail(pending, answers, &e),
        };
        let facts: Vec<(usize, usize)> = pending
            .iter()
            .filter_map(|&(i, pred, consts)| Some((i, gp.fact(pred, consts)?)))
            .collect();
        if facts.is_empty() {
            return;
        }
        let mut read = |values: &[S]| {
            for &(i, f) in &facts {
                answers[i] = Ok(values[f].clone());
            }
        };
        if cache.is_some_and(|c| c.with_values(&mut read)) {
            return;
        }
        let out = self.fixpoint(gp, valuation);
        if !out.converged {
            let e = Error::Diverged {
                iterations: self.budget(gp),
            };
            for &(i, _) in &facts {
                answers[i] = Err(e.clone());
            }
            return;
        }
        read(&out.values);
        if let Some(c) = cache {
            c.store(out.values);
        }
    }

    /// One streaming ground+eval pass answers the whole group. Only a
    /// complete fact list proves a goal it lacks underivable: the
    /// non-⊕-idempotent fallback grounds fully before evaluating, but a
    /// streaming run stopped by its budget may not have discovered every
    /// fact yet.
    fn fused<S, V>(&self, valuation: &V, pending: &Pending, answers: &mut [Result<S, Error>])
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let out = match self.fused_fixpoint(valuation) {
            Ok(out) => out,
            Err(e) => return fail(pending, answers, &e),
        };
        let complete = out.converged || out.strategy == EvalStrategy::Naive;
        for &(i, pred, consts) in pending {
            match out.gp.fact(pred, consts) {
                Some(f) if out.converged => answers[i] = Ok(out.values[f].clone()),
                None if complete => {}
                _ => {
                    answers[i] = Err(Error::Diverged {
                        iterations: out.iterations,
                    })
                }
            }
        }
    }

    /// A demand-driven point evaluation per goal, grounding only its query
    /// cone. Returns the goals the magic rewrite cannot serve.
    fn magic<'g, S, V>(
        &self,
        valuation: &V,
        pending: &Pending<'g>,
        answers: &mut [Result<S, Error>],
    ) -> Vec<(usize, PredId, &'g [ConstId])>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let mut fallback = Vec::new();
        for &(i, pred, consts) in pending {
            let point = magic_point_eval::<S, _>(
                self.program,
                self.db,
                pred,
                consts,
                valuation,
                self.eval_budget,
                self.metrics,
            );
            answers[i] = match point {
                Err(e) => Err(e),
                Ok(None) => {
                    fallback.push((i, pred, consts));
                    continue;
                }
                // The cone grounding is complete: a goal it lacks is 0
                // however the rest of the cone behaved.
                Ok(Some(out)) if out.derivable && !out.converged => Err(Error::Diverged {
                    iterations: out.iterations,
                }),
                Ok(Some(out)) => Ok(out.value),
            };
        }
        fallback
    }
}

/// Fail every pending goal with `e`.
fn fail<S>(pending: &Pending, answers: &mut [Result<S, Error>], e: &Error) {
    for &(i, _, _) in pending {
        answers[i] = Err(e.clone());
    }
}
