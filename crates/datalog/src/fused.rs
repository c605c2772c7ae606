//! Two delegates that exist only for the benchmark's `fused.*` probes;
//! nothing in the workspace calls them.
//!
//! Both ground the program ([`ground`]), then run the semi-naive
//! fixpoint over the grounding ([`eval_with_strategy`]) under `budget`,
//! or [`default_budget`] when it is `None`.

use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{Recorder, Stage};

use crate::ast::Program;
use crate::csr::CompactRules;
use crate::database::Database;
use crate::eval::{default_budget, eval_with_strategy, EvalStrategy};
use crate::ground::{ground, Exec, GroundedProgram};

/// What a delegate returns.
#[derive(Clone, Debug)]
pub struct FusedOutcome<S> {
    /// The grounding.
    pub gp: GroundedProgram,
    /// Value per derivable fact, aligned with `gp.idb_facts()`.
    pub values: Vec<S>,
    /// The grounding's rule store when [`fused_eval_retaining`] ran;
    /// `None` from [`par_fused_eval`].
    pub retained: Option<CompactRules>,
}

/// Ground on `threads` workers, then evaluate.
pub fn par_fused_eval<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    threads: usize,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let exec = Exec {
        threads,
        ..Default::default()
    };
    ground_then_eval(program, db, assign, budget, &exec, false)
}

/// Ground on one thread, then evaluate, and return the rule store too.
pub fn fused_eval_retaining<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    rec: &dyn Recorder,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let exec = Exec {
        rec,
        ..Default::default()
    };
    ground_then_eval(program, db, assign, budget, &exec, true)
}

fn ground_then_eval<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    exec: &Exec,
    retain: bool,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let gp = ground(program, db, exec)?;
    let budget = budget.unwrap_or_else(|| default_budget(&gp));
    let out = eval_with_strategy(
        EvalStrategy::SemiNaive,
        &gp,
        assign,
        budget,
        exec.rec,
        Stage::Eval,
    );
    let retained = retain.then(|| gp.rules.clone());
    Ok(FusedOutcome {
        gp,
        values: out.values,
        retained,
    })
}
