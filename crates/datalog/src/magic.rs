//! Magic-set rewriting for left-linear chain programs (Theorem 5.8).
//!
//! For an RPQ in left-linear form and a query fact `T(s, t)`, binding the
//! first argument to the constant `s` makes every IDB *unary*: the rewritten
//! program `Π'` has grounding of size only O(m), which is what gives finite
//! RPQs their linear-size, O(log n)-depth circuits. This module implements
//! exactly that specialization (the paper's observation that "after the
//! rewriting `s` will replace the variable in the leftmost position of any
//! IDB").

use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{Counter, Recorder, Stage};

use crate::ast::{Atom, Program, Rule, Term};
use crate::classify::classify;
use crate::database::Database;
use crate::eval::{default_budget, eval_with_strategy, EvalStrategy};
use crate::ground::{ground, Exec};
use crate::symbols::{ConstId, PredId};

/// The result of the rewriting.
#[derive(Clone, Debug)]
pub struct MagicRewrite {
    /// The rewritten monadic program; its target is the seeded target IDB.
    /// It **shares the original program's symbol tables** (extended with
    /// the `_s` predicates and the source constant), so a [`Database`]
    /// built against the original program grounds it directly — EDB
    /// predicate ids line up fact-for-fact.
    pub program: Program,
    /// Name of the source constant used for seeding.
    pub source: String,
}

/// Rewrite a left-linear chain program for the query `target(source, ·)`.
///
/// Every IDB `P(x, y)` becomes `P_s(y)`; the head's first variable is
/// substituted by the constant `source` throughout each rule.
pub fn magic_rewrite(program: &Program, source: &str) -> Result<MagicRewrite, Error> {
    let class = classify(program);
    if !class.is_left_linear_chain {
        return Err(Error::unsupported(
            "magic rewriting requires a left-linear chain program",
        ));
    }
    let idbs = program.idbs();
    let target_name = program.preds.name(program.target).to_owned();
    // Clone the original symbol tables rather than starting fresh: the
    // rewritten program must be groundable against the *same* session
    // database, and grounding resolves EDB facts by `PredId`. A fresh
    // interner would renumber the EDB predicates and silently probe the
    // wrong fact lists (the original IDB ids survive too, now rule-less —
    // harmless, they are simply never referenced).
    let mut out = Program {
        preds: program.preds.clone(),
        vars: program.vars.clone(),
        consts: program.consts.clone(),
        rules: Vec::new(),
        target: program.target,
    };
    out.target = out.preds.intern(&format!("{target_name}_s"));
    let s_const = out.consts.intern(source);

    for rule in &program.rules {
        // Chain head: P(x, y).
        let (hx, hy) = match rule.head.terms[..] {
            [Term::Var(x), Term::Var(y)] => (x, y),
            _ => {
                return Err(Error::unsupported(
                    "chain heads must be binary over variables",
                ))
            }
        };
        let new_head_pred = {
            let name = format!("{}_s", program.preds.name(rule.head.pred));
            out.preds.intern(&name)
        };
        // Shared variable table: ids carry over, only `hx` is substituted.
        let map_var = |v: u32| -> Term {
            if v == hx {
                Term::Const(s_const)
            } else {
                Term::Var(v)
            }
        };
        let new_head = Atom {
            pred: new_head_pred,
            terms: vec![map_var(hy)],
        };
        let mut new_body = Vec::with_capacity(rule.body.len());
        for atom in &rule.body {
            if idbs.contains(&atom.pred) {
                // Left-linear: IDB atom is first, of the form Q(x, z).
                let z = match atom.terms[..] {
                    [Term::Var(x), Term::Var(z)] if x == hx => z,
                    _ => {
                        return Err(Error::unsupported(
                            "left-linear chain rule must start with IDB(head-x, z)",
                        ))
                    }
                };
                let pred = {
                    let name = format!("{}_s", program.preds.name(atom.pred));
                    out.preds.intern(&name)
                };
                new_body.push(Atom {
                    pred,
                    terms: vec![map_var(z)],
                });
            } else {
                // EDB atom: predicate and constant ids are already valid
                // in the shared tables — only variables need mapping.
                let terms = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => map_var(*v),
                        Term::Const(c) => Term::Const(*c),
                    })
                    .collect();
                new_body.push(Atom {
                    pred: atom.pred,
                    terms,
                });
            }
        }
        out.rules.push(Rule {
            head: new_head,
            body: new_body,
        });
    }
    out.validate()?;
    Ok(MagicRewrite {
        program: out,
        source: source.to_owned(),
    })
}

/// Result of a demand-driven (magic-set) point query.
#[derive(Clone, Debug)]
pub struct MagicPointOutcome<S> {
    /// The queried value, `S::zero()` if the goal is not derivable.
    pub value: S,
    /// Grounded rules in the *query cone* — what the magic rewrite
    /// materialized instead of the full grounding.
    pub grounded_rules: usize,
    /// Fixpoint iterations the cone evaluation ran.
    pub iterations: usize,
    /// Whether the cone evaluation converged within its budget.
    pub converged: bool,
    /// Whether the goal itself appears in the cone grounding. Callers
    /// should report divergence only for derivable goals — an absent
    /// goal is simply 0, however the rest of the cone behaved — to stay
    /// error-for-error compatible with the materialized pipeline.
    pub derivable: bool,
}

/// Evaluate the single goal `pred(tuple)` demand-driven: rewrite the
/// program for the goal's bound first argument ([`magic_rewrite`]),
/// ground **only the query cone** against the same database, evaluate
/// it, and read off the goal.
///
/// Returns `Ok(None)` when the goal is not eligible for the rewrite —
/// the program is not a left-linear chain, the predicate is not a binary
/// IDB (EDB and unknown predicates included) — so callers can fall back
/// to the materialized pipeline. `budget` caps cone-evaluation rounds
/// (`None`: the cone's own [`default_budget`], which is typically far
/// smaller than the full grounding's).
///
/// Note the demand-driven path can *converge* where full evaluation
/// diverges (e.g. `Counting` with a cycle outside the query cone): the
/// cone simply never sees the divergent component. Cross-path oracles
/// compare convergence flags only on programs where the cone equals the
/// reachable component.
pub fn magic_point_eval<S, V>(
    program: &Program,
    db: &Database,
    pred: PredId,
    tuple: &[ConstId],
    assign: &V,
    budget: Option<usize>,
    rec: &dyn Recorder,
) -> Result<Option<MagicPointOutcome<S>>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    if !classify(program).is_left_linear_chain
        || !program.idbs().contains(&pred)
        || tuple.len() != 2
    {
        return Ok(None);
    }
    let source = db.consts.name(tuple[0]).to_owned();
    let rw = magic_rewrite(program, &source)?;
    rec.counter(Counter::MagicRewrites, 1);
    let gp = ground(&rw.program, db, &Exec::default())?;
    let b = budget.unwrap_or_else(|| default_budget(&gp));
    let out = eval_with_strategy::<S, _>(EvalStrategy::SemiNaive, &gp, assign, b, rec, Stage::Eval);
    let goal_pred = rw
        .program
        .preds
        .get(&format!("{}_s", program.preds.name(pred)))
        .expect("rewrite interns an _s predicate per IDB");
    let goal = gp.fact(goal_pred, &tuple[1..]);
    let value = match goal {
        Some(i) => out.values[i].clone(),
        None => S::zero(),
    };
    Ok(Some(MagicPointOutcome {
        value,
        grounded_rules: gp.rules.len(),
        iterations: out.iterations,
        converged: out.converged,
        derivable: goal.is_some(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::ground::{ground, Exec};
    use crate::parser::parse_program;
    use graphgen::generators;

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    #[test]
    fn rewritten_tc_is_monadic_and_equivalent() {
        let p = tc();
        let rewritten = magic_rewrite(&p, "v0").unwrap().program;
        let class = classify(&rewritten);
        assert!(class.is_monadic);
        assert!(class.is_linear);

        // Equivalence on a random graph: T(v0, y) iff T_s(y).
        let g = generators::gnm(8, 18, &["E"], 13);
        let mut p_orig = tc();
        let (db, _) = Database::from_graph(&mut p_orig, &g);
        let gp = ground(&p_orig, &db, &Exec::default()).unwrap();
        let t = p_orig.preds.get("T").unwrap();

        let mut p_magic = rewritten.clone();
        let (db2, _) = Database::from_graph(&mut p_magic, &g);
        let gp2 = ground(&p_magic, &db2, &Exec::default()).unwrap();
        let ts = p_magic.preds.get("T_s").unwrap();

        let v0 = db.node_const(0).unwrap();
        for y in 0..g.num_nodes() {
            let orig = gp.fact(t, &[v0, db.node_const(y).unwrap()]).is_some();
            let magic = gp2.fact(ts, &[db2.node_const(y).unwrap()]).is_some();
            assert_eq!(orig, magic, "y = {y}");
        }
    }

    #[test]
    fn rewritten_grounding_is_linear_size() {
        // Grounding of the monadic program is O(m), not O(n·m).
        let p = tc();
        let rewritten = magic_rewrite(&p, "v0").unwrap().program;
        for n in [8usize, 16, 32] {
            let g = generators::path(n, "E");
            let mut pm = rewritten.clone();
            let (db, _) = Database::from_graph(&mut pm, &g);
            let gp = ground(&pm, &db, &Exec::default()).unwrap();
            // One grounded init rule (edge from v0) + one recursive per
            // reachable edge: ≤ 2m total.
            assert!(gp.rules.len() <= 2 * g.num_edges(), "n = {n}");
        }
    }

    #[test]
    fn rejects_non_left_linear_programs() {
        let right = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Z), T(Z,Y).").unwrap();
        assert!(magic_rewrite(&right, "v0").is_err());
        let dyck = parse_program("S(X,Y) :- L(X,Z), R(Z,Y).\nS(X,Y) :- S(X,Z), S(Z,Y).").unwrap();
        assert!(magic_rewrite(&dyck, "v0").is_err());
    }

    #[test]
    fn rewritten_program_grounds_against_the_original_database() {
        // Regression: `magic_rewrite` used to build the rewritten program
        // with *fresh* interners, renumbering the EDB predicates — so
        // grounding it against the session database (the only database
        // there is, in the engine) probed the wrong fact lists and
        // silently derived nothing. The rewrite must share symbol tables.
        let mut p = tc();
        let g = generators::gnm(9, 24, &["E"], 41);
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp_full = ground(&p, &db, &Exec::default()).unwrap();
        let t = p.preds.get("T").unwrap();

        let rw = magic_rewrite(&p, "v0").unwrap();
        // Ground against the SAME db — no parallel rebuild.
        let gp_magic = ground(&rw.program, &db, &Exec::default()).unwrap();
        let ts = rw.program.preds.get("T_s").unwrap();
        let v0 = db.node_const(0).unwrap();
        let mut cone_nonempty = false;
        for y in 0..g.num_nodes() {
            let yc = db.node_const(y).unwrap();
            let full = gp_full.fact(t, &[v0, yc]).is_some();
            let magic = gp_magic.fact(ts, &[yc]).is_some();
            assert_eq!(full, magic, "y = {y}");
            cone_nonempty |= magic;
        }
        assert!(cone_nonempty, "degenerate instance: v0 reaches nothing");
    }

    #[test]
    fn point_eval_matches_full_eval_on_shared_db() {
        use semiring::valuation::UnitWeights;
        use semiring::Tropical;
        use telemetry::NOOP;

        let mut p = tc();
        let g = generators::gnm(10, 26, &["E"], 7);
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let t = p.preds.get("T").unwrap();
        let w = UnitWeights::new(Tropical::new(1));
        let full = crate::eval::semi_naive_eval::<Tropical, _>(&gp, &w, default_budget(&gp));
        assert!(full.converged);
        for s in 0..g.num_nodes() {
            for y in 0..g.num_nodes() {
                let tuple = [db.node_const(s).unwrap(), db.node_const(y).unwrap()];
                let out = magic_point_eval::<Tropical, _>(&p, &db, t, &tuple, &w, None, &NOOP)
                    .unwrap()
                    .expect("TC is left-linear chain");
                assert!(out.converged);
                let want = match gp.fact(t, &tuple) {
                    Some(i) => full.values[i],
                    None => Tropical::zero(),
                };
                assert_eq!(out.value, want, "T(v{s}, v{y})");
                assert!(out.grounded_rules <= gp.rules.len());
            }
        }
    }

    #[test]
    fn point_eval_declines_ineligible_goals() {
        use semiring::valuation::AllOnes;
        use semiring::Bool;
        use telemetry::NOOP;

        let mut p = tc();
        let g = generators::path(5, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let v0 = db.node_const(0).unwrap();
        let v1 = db.node_const(1).unwrap();

        // Goal over an EDB-only predicate: not rewritable, caller must
        // fall back (regression: used to be unreachable dead code, and
        // the rewrite would have manufactured an `E_s` with no rules).
        let e = p.preds.get("E").unwrap();
        let r = magic_point_eval::<Bool, _>(&p, &db, e, &[v0, v1], &AllOnes, None, &NOOP).unwrap();
        assert!(r.is_none());

        // Wrong goal arity for the chain rewrite.
        let t = p.preds.get("T").unwrap();
        let r = magic_point_eval::<Bool, _>(&p, &db, t, &[v0], &AllOnes, None, &NOOP).unwrap();
        assert!(r.is_none());

        // Non-left-linear program: decline, do not error.
        let mut right = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Z), T(Z,Y).").unwrap();
        let (db_r, _) = Database::from_graph(&mut right, &g);
        let tr = right.preds.get("T").unwrap();
        let w0 = db_r.node_const(0).unwrap();
        let w1 = db_r.node_const(1).unwrap();
        let r = magic_point_eval::<Bool, _>(&right, &db_r, tr, &[w0, w1], &AllOnes, None, &NOOP)
            .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn point_eval_yields_zero_off_the_cone() {
        use semiring::valuation::AllOnes;
        use semiring::Bool;
        use telemetry::NOOP;

        // Path v0 → … → v5: nothing is reachable *from* the sink v5, and
        // v3 does not reach v1. Both goals must come back as ⊕-zero with
        // a tiny (or empty) cone, not as an error.
        let mut p = tc();
        let g = generators::path(5, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let t = p.preds.get("T").unwrap();
        let v = |i: usize| db.node_const(i).unwrap();

        let sink = magic_point_eval::<Bool, _>(&p, &db, t, &[v(5), v(0)], &AllOnes, None, &NOOP)
            .unwrap()
            .unwrap();
        assert_eq!(sink.value, Bool::zero());
        assert_eq!(sink.grounded_rules, 0, "empty cone grounds nothing");

        let back = magic_point_eval::<Bool, _>(&p, &db, t, &[v(3), v(1)], &AllOnes, None, &NOOP)
            .unwrap()
            .unwrap();
        assert_eq!(back.value, Bool::zero());
        assert!(back.converged);
    }

    #[test]
    fn non_recursive_goal_predicate_rewrites() {
        use semiring::valuation::AllOnes;
        use semiring::Bool;
        use telemetry::NOOP;

        // A left-linear chain program whose goal IDB has only an
        // initialization rule (regression: the rewrite must not assume a
        // recursive IDB occurrence exists).
        let mut p = parse_program("T(X,Y) :- E(X,Y).").unwrap();
        let g = generators::path(4, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let t = p.preds.get("T").unwrap();
        let v = |i: usize| db.node_const(i).unwrap();
        let hit = magic_point_eval::<Bool, _>(&p, &db, t, &[v(0), v(1)], &AllOnes, None, &NOOP)
            .unwrap()
            .unwrap();
        assert_eq!(hit.value, Bool::one());
        let miss = magic_point_eval::<Bool, _>(&p, &db, t, &[v(0), v(2)], &AllOnes, None, &NOOP)
            .unwrap()
            .unwrap();
        assert_eq!(miss.value, Bool::zero());
    }

    #[test]
    fn multi_label_rpq_rewrites() {
        // T → T a | T b | a  (language (a|b)* a read left-to-right… shape
        // irrelevant — structural test).
        let p = parse_program(
            "T(X,Y) :- A(X,Y).\nT(X,Y) :- T(X,Z), A(Z,Y).\nT(X,Y) :- T(X,Z), B(Z,Y).",
        )
        .unwrap();
        let r = magic_rewrite(&p, "v0").unwrap().program;
        assert!(classify(&r).is_monadic);
        assert_eq!(r.rules.len(), 3);
    }
}
