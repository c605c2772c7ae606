//! The read path, written once: one goal resolver
//! ([`Engine::resolve`]) and one group evaluator ([`Engine::answer`])
//! behind `Query::eval` and the server's `QUERY`/`BATCH`.
//!
//! A fact has one provenance polynomial, so its answer under a semiring
//! must not depend on the [`Pipeline`] that computed it. The evaluator
//! owns the two routes and the rules they share:
//!
//! - a goal absent from a *complete* grounding is 0, answered without
//!   evaluating (a goal with a constant outside the active domain is
//!   absent from every grounding);
//! - a run that did not converge fails with [`Error::Diverged`] every
//!   goal it cannot prove underivable;
//! - magic goals the rewrite cannot serve fall back, as one group, to a
//!   single materialized fixpoint.
//!
//! Both run on any [`Engine`]: a session forces its grounding on first
//! need, a snapshot ([`Engine::snapshot`]) has it forced already.

use datalog::{
    eval_with_strategy, magic_point_eval, ConstId, EvalOutcome, EvalStrategy, GroundedProgram,
    PredId, Program,
};
use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{CacheEvent, Stage};

use crate::engine::Engine;

/// Which grounding/evaluation pipeline [`Engine::answer`] routes goals
/// through — the session default of `Query::eval`, and per query on the
/// wire.
///
/// Both return bit-identical values. [`Engine::fixpoint`],
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
    /// Demand-driven point queries ([`datalog::magic_point_eval`]): for a
    /// bound-argument goal over a left-linear chain program, rewrite with
    /// magic predicates and ground only the query cone. Ineligible goals
    /// fall back to [`Pipeline::Materialized`] transparently.
    Magic,
}

impl Pipeline {
    /// Parse a pipeline name as used by the wire protocol's `PIPELINE`
    /// clause.
    pub fn parse(s: &str) -> Option<Pipeline> {
        match s.trim().to_ascii_lowercase().as_str() {
            "materialized" => Some(Pipeline::Materialized),
            "magic" => Some(Pipeline::Magic),
            _ => None,
        }
    }

    /// The wire name of the pipeline.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Materialized => "materialized",
            Pipeline::Magic => "magic",
        }
    }
}

/// A goal `pred(tuple…)` resolved against a program and its database by
/// [`Engine::resolve`], ready for [`Engine::answer`].
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
/// valuation)` group: the hook a serving layer hands [`Engine::answer`]
/// to reuse a fixpoint across reads.
pub trait FixpointCache<S> {
    /// Call `read` with the stored values, if a converged fixpoint for
    /// this group is stored; return whether one was.
    fn with_values(&self, read: &mut dyn FnMut(&[S])) -> bool;
    /// Offer the values of a freshly converged fixpoint.
    fn store(&self, values: Vec<S>);
}

/// The in-domain goals of a group: `(position, predicate, constants)`.
type Pending<'g> = [(usize, PredId, &'g [ConstId])];

impl Engine {
    /// Resolve the goal `pred(tuple…)` against the session's program and
    /// database. Errors on unknown predicates
    /// ([`Error::UnknownPredicate`]) and arity mismatches
    /// ([`Error::BadQuery`]); constants outside the active domain are
    /// *not* errors (matching the paper's semantics, the fact is simply
    /// underivable).
    pub fn resolve<T: AsRef<str>>(&self, pred: &str, tuple: &[T]) -> Result<Goal, Error> {
        Ok(Goal {
            pred: resolve_pred(self.program(), pred, tuple.len())?,
            consts: tuple
                .iter()
                .map(|c| self.database().consts.get(c.as_ref()))
                .collect(),
        })
    }

    /// Run the fixpoint over `gp` under a valuation, with the session's
    /// strategy. Non-convergence is reported in the outcome, not as an
    /// error.
    pub(crate) fn fixpoint_over<S, V>(&self, gp: &GroundedProgram, valuation: &V) -> EvalOutcome<S>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let (strategy, metrics) = (self.eval_strategy(), self.metrics());
        let budget = self.budget_over(gp);
        let out = telemetry::time(metrics, Stage::Eval, || {
            eval_with_strategy(strategy, gp, valuation, budget, metrics, Stage::Eval)
        });
        // A semi-naive request that ran naive is a fallback (observable
        // via `EvalOutcome::strategy` and the `seminaive_fallbacks` stat).
        if strategy == EvalStrategy::SemiNaive && out.strategy == EvalStrategy::Naive {
            metrics.cache_event(CacheEvent::SeminaiveFallback);
        }
        out
    }

    /// Answer `goals` under one valuation through `pipeline`, one result
    /// per goal, in order. Underivable goals are 0; a run that did not
    /// converge fails with [`Error::Diverged`] every goal it cannot prove
    /// underivable (see the [module docs](self) for the routes' shared
    /// rules). A `cache` is consulted before, and offered the values
    /// after, each materialized fixpoint.
    pub fn answer<S, V>(
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
        let out = self.fixpoint_over(gp, valuation);
        if !out.converged {
            let e = Error::Diverged {
                iterations: self.budget_over(gp),
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
                self.program(),
                self.database(),
                pred,
                consts,
                valuation,
                self.eval_budget,
                self.metrics(),
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
