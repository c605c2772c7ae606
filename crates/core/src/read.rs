//! The read path, written once: one goal resolver
//! ([`Engine::resolve`]) and one group evaluator behind `Query::eval` and
//! the server's `QUERY`/`BATCH`. It has two shells:
//! [`Engine::answer`] takes any valuation and caches nothing;
//! [`Engine::answer_uniform`] weighs every EDB fact alike and reads and
//! stores materialized fixpoints in the engine's fixpoint cache, which
//! every write repairs.
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
use semiring::{Semiring, UnitWeights};
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

/// Each predicate's arity and whether it is IDB, indexed by [`PredId`]
/// (`None` for a predicate no rule mentions). An engine computes it once,
/// so resolving a goal or a written fact is a lookup, not a scan of the
/// rules.
pub(crate) type PredTable = Vec<Option<(usize, bool)>>;

/// The [`PredTable`] of a validated program.
pub(crate) fn pred_table(program: &Program) -> PredTable {
    let mut preds = vec![None; program.preds.len()];
    for rule in &program.rules {
        preds[rule.head.pred as usize] = Some((rule.head.terms.len(), true));
        for atom in &rule.body {
            preds[atom.pred as usize].get_or_insert((atom.terms.len(), false));
        }
    }
    preds
}

/// Look up `pred` and check it against the program's `table`: it must take
/// `arity` arguments and, when `edb`, be EDB — IDB facts are derived by
/// the rules, never stored.
pub(crate) fn resolve_pred(
    program: &Program,
    table: &PredTable,
    pred: &str,
    arity: usize,
    edb: bool,
) -> Result<PredId, Error> {
    let id = program
        .preds
        .get(pred)
        .ok_or_else(|| Error::UnknownPredicate(pred.to_owned()))?;
    match table.get(id as usize).copied().flatten() {
        Some((expected, _)) if expected != arity => Err(Error::BadQuery(format!(
            "{pred} has arity {expected}, got {arity} arguments"
        ))),
        Some((_, true)) if edb => Err(Error::BadQuery(format!(
            "{pred} is an IDB predicate — writes target EDB relations; derived facts \
             follow from the rules"
        ))),
        _ => Ok(id),
    }
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
            pred: resolve_pred(self.program(), &self.preds, pred, tuple.len(), false)?,
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
    /// rules). Nothing is cached: see
    /// [`answer_uniform`](Engine::answer_uniform) for the valuations the
    /// engine keeps fixpoints of.
    pub fn answer<S, V>(
        &self,
        pipeline: Pipeline,
        valuation: &V,
        goals: &[Goal],
    ) -> Vec<Result<S, Error>>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        self.answer_group(pipeline, valuation, goals, None)
    }

    /// [`answer`](Engine::answer) with every EDB fact weighted `weight`
    /// (the wire's `ones` and `unit:<w>`). The engine caches each such
    /// materialized fixpoint per `(S, weight)`, shares the cache with its
    /// snapshots, and repairs it on every write, so a later read at the
    /// same epoch runs no fixpoint.
    pub fn answer_uniform<S: Semiring>(
        &self,
        pipeline: Pipeline,
        weight: S,
        goals: &[Goal],
    ) -> Vec<Result<S, Error>> {
        let valuation = UnitWeights::new(weight.clone());
        self.answer_group(pipeline, &valuation, goals, Some(weight))
    }

    /// The one group evaluator behind both shells; a `cache` weight
    /// routes materialized fixpoints through the engine's cache.
    fn answer_group<S, V>(
        &self,
        pipeline: Pipeline,
        valuation: &V,
        goals: &[Goal],
        cache: Option<S>,
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
        cache: Option<S>,
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
        if let Some(w) = &cache {
            if self.fixpoints.read(w, self.epoch(), &mut read) {
                return;
            }
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
        if let Some(w) = cache {
            self.fixpoints.store(w, self.epoch(), out.values);
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
