//! Boundedness of Datalog over semirings (paper §4).
//!
//! Boundedness is undecidable in general (§4, citing Gaifman et al. and
//! Hillebrand et al.), so this module layers three procedures:
//!
//! 1. **Exact** for basic chain programs: bounded ⇔ the CFG language is
//!    finite, over *every* absorptive semiring (Proposition 5.5) — decided
//!    in polynomial time via [`grammar::CfgAnalysis`].
//! 2. **Expansion evidence** (Theorem 4.6, Chom semirings): search for an
//!    `N` such that every expansion up to the horizon is absorbed by an
//!    expansion of depth ≤ `N` via a homomorphism. A hit is strong evidence
//!    of boundedness (and a proof whenever the program is also chain); a
//!    miss at an honest horizon is evidence of unboundedness.
//! 3. **Empirical probe**: iterations-to-fixpoint of naive evaluation on
//!    growing inputs (Definition 4.1 directly), also used to exhibit
//!    Corollary 4.7's cross-semiring agreement.

use datalog::{classify as classify_syntax, Database, Exec, Program};
use grammar::{CfgAnalysis, Cnf, LanguageSize};
use provcirc_error::Error;
use semiring::valuation::AllOnes;
use semiring::{Bool, Bottleneck, Fuzzy, Semiring};

/// Why we believe a program is (un)bounded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proven bounded; the payload is the iteration bound when known.
    Bounded(Option<u64>),
    /// Proven unbounded.
    Unbounded(UnboundedReason),
    /// Theorem 4.6 evidence: expansions up to the horizon absorb into
    /// depth ≤ N.
    LikelyBounded(usize),
    /// No absorbing depth found up to the horizon.
    LikelyUnbounded(usize),
    /// Nothing could be established (e.g. expansion explosion).
    Unknown,
}

/// The reason a program is provably unbounded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnboundedReason {
    /// Chain program whose CFG language is infinite (Prop 5.5).
    InfiniteGrammar,
}

/// Options for the decision pipeline.
#[derive(Clone, Debug)]
pub struct BoundednessOptions {
    /// Expansion depth horizon for the Theorem 4.6 evidence.
    pub horizon: usize,
    /// Cap on the number of expansions enumerated.
    pub max_expansions: usize,
}

impl Default for BoundednessOptions {
    fn default() -> Self {
        BoundednessOptions {
            horizon: 5,
            max_expansions: 2_000,
        }
    }
}

/// The report of the decision pipeline.
#[derive(Clone, Debug)]
pub struct BoundednessReport {
    /// The verdict.
    pub verdict: Verdict,
    /// The expansion evidence, when the expansion route was taken.
    pub evidence: Option<datalog::BoundednessEvidence>,
}

/// Decide (or gather evidence about) boundedness.
pub fn decide_boundedness(program: &Program, opts: &BoundednessOptions) -> BoundednessReport {
    let syntax = classify_syntax(program);
    if !syntax.is_recursive {
        // UCQ: trivially bounded (Prop 3.7).
        return BoundednessReport {
            verdict: Verdict::Bounded(Some(1)),
            evidence: None,
        };
    }
    if syntax.is_chain {
        if let Ok(cfg) = datalog::chain_to_cfg(program) {
            let cnf = Cnf::from_cfg(&cfg);
            let analysis = CfgAnalysis::new(&cnf);
            return match analysis.language_size() {
                LanguageSize::Infinite => BoundednessReport {
                    verdict: Verdict::Unbounded(UnboundedReason::InfiniteGrammar),
                    evidence: None,
                },
                LanguageSize::Finite | LanguageSize::Empty => BoundednessReport {
                    verdict: Verdict::Bounded(analysis.longest_word_len(&cnf).map(|l| l + 1)),
                    evidence: None,
                },
            };
        }
    }
    // Theorem 4.6 expansion evidence.
    let evidence = datalog::boundedness_evidence(program, opts.horizon, opts.max_expansions);
    let verdict = if evidence.truncated {
        Verdict::Unknown
    } else {
        match evidence.bound {
            Some(n) => Verdict::LikelyBounded(n),
            None => Verdict::LikelyUnbounded(evidence.horizon),
        }
    };
    BoundednessReport {
        verdict,
        evidence: Some(evidence),
    }
}

/// Empirical boundedness probe (Definition 4.1): iterations-to-fixpoint of
/// naive evaluation over a semiring, for each provided database.
pub fn empirical_iterations<S: Semiring>(
    program: &Program,
    databases: &[Database],
) -> Result<Vec<usize>, Error> {
    let mut out = Vec::with_capacity(databases.len());
    for db in databases {
        let gp = datalog::ground(program, db, &Exec::default())?;
        let budget = datalog::default_budget(&gp).max(64);
        let run = datalog::naive_eval::<S, _>(&gp, &AllOnes, budget);
        if !run.converged {
            return Err(Error::Diverged { iterations: budget });
        }
        out.push(run.iterations);
    }
    Ok(out)
}

/// Corollary 4.7 in action: iterations-to-fixpoint agree across the Boolean
/// semiring and absorptive ⊗-idempotent semirings on the same inputs.
/// Returns `(bool_iters, fuzzy_iters, bottleneck_iters)` per database.
pub fn cross_semiring_iterations(
    program: &Program,
    databases: &[Database],
) -> Result<Vec<(usize, usize, usize)>, Error> {
    let b = empirical_iterations::<Bool>(program, databases)?;
    let f = empirical_iterations::<Fuzzy>(program, databases)?;
    let k = empirical_iterations::<Bottleneck>(program, databases)?;
    Ok(b.into_iter()
        .zip(f)
        .zip(k)
        .map(|((x, y), z)| (x, y, z))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::programs;
    use graphgen::generators;

    #[test]
    fn chain_boundedness_is_exact() {
        let r = decide_boundedness(&programs::transitive_closure(), &Default::default());
        assert_eq!(
            r.verdict,
            Verdict::Unbounded(UnboundedReason::InfiniteGrammar)
        );
        // Non-recursive: the UCQ fast path.
        let r2 = decide_boundedness(&programs::three_hops(), &Default::default());
        assert_eq!(r2.verdict, Verdict::Bounded(Some(1)));
        // Recursive chain program with a finite language {a b}: bounded with
        // the grammar-derived constant (longest word + 1).
        let p = datalog::parse_program("S(X,Y) :- A(X,Z), B2(Z,Y).\nB2(X,Y) :- B(X,Y).").unwrap();
        let r3 = decide_boundedness(&p, &Default::default());
        assert_eq!(r3.verdict, Verdict::Bounded(Some(3)));
    }

    #[test]
    fn example_4_2_is_likely_bounded_via_expansions() {
        let r = decide_boundedness(&programs::bounded_example(), &Default::default());
        assert_eq!(r.verdict, Verdict::LikelyBounded(2));
    }

    #[test]
    fn monadic_reachability_is_likely_unbounded() {
        let r = decide_boundedness(&programs::monadic_reachability(), &Default::default());
        assert_eq!(r.verdict, Verdict::LikelyUnbounded(5));
    }

    #[test]
    fn empirical_probe_matches_theory() {
        let mut p = programs::transitive_closure();
        let dbs: Vec<Database> = [4usize, 8, 16]
            .iter()
            .map(|&n| {
                let g = generators::path(n, "E");
                Database::from_graph(&mut p, &g).0
            })
            .collect();
        let iters = empirical_iterations::<Bool>(&p, &dbs).unwrap();
        assert!(iters[0] < iters[1] && iters[1] < iters[2], "{iters:?}");
    }

    #[test]
    fn corollary_4_7_iterations_agree_across_chom_semirings() {
        let mut p = programs::transitive_closure();
        let dbs: Vec<Database> = [3usize, 6]
            .iter()
            .map(|&n| {
                let g = generators::gnm(n + 2, 2 * n, &["E"], n as u64);
                Database::from_graph(&mut p, &g).0
            })
            .collect();
        for (b, f, k) in cross_semiring_iterations(&p, &dbs).unwrap() {
            assert_eq!(b, f);
            assert_eq!(b, k);
        }
    }
}
