//! Verification utilities: every construction is checked against the
//! brute-force oracles of the `datalog` crate.
//!
//! The chain of trust: tight-proof-tree enumeration (Definition 2.2 — the
//! paper's *definition* of provenance) ⟶ naive `Sorp` evaluation
//! (Proposition 2.4) ⟶ circuit polynomials (§2.5 "computes"). Equality in
//! `Sorp(X)` implies equal values over **every** absorptive semiring.

use datalog::GroundedProgram;
use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::{Absorptive, Semiring, Sorp};

use crate::arena::Circuit;

/// Check that a circuit computes exactly the provenance polynomial of a
/// grounded IDB fact, by brute-force proof-tree enumeration (up to `cap`
/// trees; errors if the instance is too large to enumerate).
pub fn check_against_proof_trees(
    circuit: &Circuit,
    gp: &GroundedProgram,
    fact: usize,
    cap: usize,
) -> Result<(), Error> {
    let expected = datalog::provenance_polynomial(gp, fact, cap)
        .ok_or_else(|| Error::TooLarge("too many tight proof trees to enumerate".into()))?;
    let got = circuit.polynomial();
    if got == expected {
        Ok(())
    } else {
        Err(Error::VerificationFailed(format!(
            "circuit polynomial mismatch:\n  circuit: {got}\n  proof trees: {expected}"
        )))
    }
}

/// Check that two circuits compute the same polynomial over every
/// absorptive semiring.
pub fn equivalent(c1: &Circuit, c2: &Circuit) -> bool {
    c1.polynomial() == c2.polynomial()
}

/// Check agreement between direct circuit evaluation and naive Datalog
/// evaluation under a concrete assignment (applies to *any* semiring, not
/// just absorptive ones, as long as naive evaluation converges).
pub fn check_against_naive_eval<S, V>(
    circuit: &Circuit,
    gp: &GroundedProgram,
    fact: usize,
    assign: &V,
) -> Result<(), Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let budget = datalog::default_budget(gp);
    let out = datalog::naive_eval(gp, assign, budget);
    if !out.converged {
        return Err(Error::Diverged { iterations: budget });
    }
    let direct = circuit.eval(assign);
    if direct.sr_eq(&out.values[fact]) {
        Ok(())
    } else {
        Err(Error::VerificationFailed(format!(
            "value mismatch over {}: circuit {direct:?}, naive {:?}",
            S::NAME,
            out.values[fact]
        )))
    }
}

/// Full cross-check bundle used by integration tests: polynomial equality
/// against proof trees plus concrete agreement over an absorptive semiring.
pub fn verify_circuit<S, V>(
    circuit: &Circuit,
    gp: &GroundedProgram,
    fact: usize,
    assign: &V,
    tree_cap: usize,
) -> Result<(), Error>
where
    S: Absorptive,
    V: Valuation<S> + ?Sized,
{
    circuit.validate()?;
    check_against_proof_trees(circuit, gp, fact, tree_cap)?;
    check_against_naive_eval(circuit, gp, fact, assign)?;
    // And the polynomial evaluated pointwise agrees with the direct run.
    let via_poly: S = circuit.polynomial().eval(assign);
    let direct = circuit.eval(assign);
    if via_poly.sr_eq(&direct) {
        Ok(())
    } else {
        Err(Error::VerificationFailed(
            "polynomial evaluation disagrees with direct evaluation".into(),
        ))
    }
}

/// The canonical provenance polynomial of a circuit (re-exported
/// convenience).
pub fn polynomial(circuit: &Circuit) -> Sorp {
    circuit.polynomial()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::grounded::grounded_circuit;
    use datalog::Exec;
    use datalog::{programs, Database};
    use graphgen::generators;
    use semiring::Tropical;

    #[test]
    fn verify_bundle_passes_on_tc() {
        let mut p = programs::transitive_closure();
        let g = generators::gnm(6, 12, &["E"], 2);
        let (_, _) = Database::from_graph(&mut p, &g);
        let mut p2 = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p2, &g);
        let gp = datalog::ground(&p2, &db, &Exec::default()).unwrap();
        let mo = grounded_circuit(&gp, None);
        for fact in 0..gp.num_idb_facts() {
            verify_circuit(
                &mo.circuit_for(fact),
                &gp,
                fact,
                &semiring::from_fn(|f| Tropical::new((f as u64 % 3) + 1)),
                50_000,
            )
            .unwrap();
        }
    }

    #[test]
    fn detects_wrong_circuits() {
        let mut p = programs::transitive_closure();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        // A bogus circuit: just x0.
        let mut b = crate::arena::CircuitBuilder::new();
        let x0 = b.input(0);
        let bogus = b.finish(x0);
        let t = p.preds.get("T").unwrap();
        let f02 = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(2).unwrap()])
            .unwrap();
        assert!(check_against_proof_trees(&bogus, &gp, f02, 1000).is_err());
    }
}
