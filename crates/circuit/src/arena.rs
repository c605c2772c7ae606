//! Hash-consed circuit arena (paper §2.5).
//!
//! A circuit over a semiring is a DAG with fan-in-2 ⊕/⊗ gates, inputs
//! labeled by provenance variables, and the constants 0 and 1. Circuits are
//! *semiring-agnostic structures*: interpretation happens at evaluation
//! time, matching the paper's view of provenance polynomials as formal
//! expressions.
//!
//! The builder hash-conses gates (structurally identical gates share an id)
//! and applies only the unit/annihilator simplifications valid in **every**
//! semiring (`0 ⊕ x = x`, `0 ⊗ x = 0`, `1 ⊗ x = x`), so the produced
//! polynomial is preserved exactly. Consing gives the layered constructions
//! structural fixpoint detection for free: when a layer reproduces the
//! previous layer's gate ids, the fixpoint is reached.

use std::collections::HashMap;

use provcirc_error::Error;
use semiring::valuation::{Valuation, VarTags};
use semiring::{Absorptive, Semiring, Sorp, VarId};

/// A gate id (index into the arena).
pub type GateId = u32;

/// A circuit gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// The constant 0.
    Zero,
    /// The constant 1.
    One,
    /// An input gate carrying a provenance variable.
    Input(VarId),
    /// A ⊕-gate.
    Add(GateId, GateId),
    /// A ⊗-gate.
    Mul(GateId, GateId),
}

/// An immutable circuit with a designated output gate.
#[derive(Clone, Debug)]
pub struct Circuit {
    gates: Vec<Gate>,
    output: GateId,
}

/// Incremental circuit builder with hash-consing.
#[derive(Clone, Debug)]
pub struct CircuitBuilder {
    gates: Vec<Gate>,
    cache: HashMap<Gate, GateId>,
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBuilder {
    /// A builder pre-seeded with the constants.
    pub fn new() -> Self {
        let mut b = CircuitBuilder {
            gates: Vec::new(),
            cache: HashMap::new(),
        };
        b.intern(Gate::Zero);
        b.intern(Gate::One);
        b
    }

    fn intern(&mut self, gate: Gate) -> GateId {
        if let Some(&id) = self.cache.get(&gate) {
            return id;
        }
        let id = self.gates.len() as GateId;
        self.gates.push(gate);
        self.cache.insert(gate, id);
        id
    }

    /// The constant 0.
    pub fn zero(&mut self) -> GateId {
        self.intern(Gate::Zero)
    }

    /// The constant 1.
    pub fn one(&mut self) -> GateId {
        self.intern(Gate::One)
    }

    /// An input gate for a provenance variable.
    pub fn input(&mut self, v: VarId) -> GateId {
        self.intern(Gate::Input(v))
    }

    /// `a ⊕ b`, simplified by `0 ⊕ x = x` and normalized by commutativity.
    pub fn add(&mut self, a: GateId, b: GateId) -> GateId {
        let zero = self.zero();
        if a == zero {
            return b;
        }
        if b == zero {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Gate::Add(a, b))
    }

    /// `a ⊗ b`, simplified by `0 ⊗ x = 0`, `1 ⊗ x = x`, normalized by
    /// commutativity.
    pub fn mul(&mut self, a: GateId, b: GateId) -> GateId {
        let zero = self.zero();
        let one = self.one();
        if a == zero || b == zero {
            return zero;
        }
        if a == one {
            return b;
        }
        if b == one {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Gate::Mul(a, b))
    }

    /// Balanced ⊕-sum of many gates (logarithmic depth, paper Thm 4.3's
    /// "commutative and associative summation with a circuit of logarithmic
    /// depth").
    pub fn add_many(&mut self, gates: &[GateId]) -> GateId {
        self.balanced(gates, CircuitBuilder::add, Gate::Zero)
    }

    /// Balanced ⊗-product of many gates.
    pub fn mul_many(&mut self, gates: &[GateId]) -> GateId {
        self.balanced(gates, CircuitBuilder::mul, Gate::One)
    }

    fn balanced(
        &mut self,
        gates: &[GateId],
        op: fn(&mut Self, GateId, GateId) -> GateId,
        identity: Gate,
    ) -> GateId {
        match gates.len() {
            0 => self.intern(identity),
            1 => gates[0],
            _ => {
                let mid = gates.len() / 2;
                let l = self.balanced(&gates[..mid], op, identity);
                let r = self.balanced(&gates[mid..], op, identity);
                op(self, l, r)
            }
        }
    }

    /// Number of gates currently in the arena (including dead ones).
    pub fn arena_size(&self) -> usize {
        self.gates.len()
    }

    /// Finalize with the given output gate.
    pub fn finish(self, output: GateId) -> Circuit {
        assert!((output as usize) < self.gates.len(), "output gate exists");
        Circuit {
            gates: self.gates,
            output,
        }
    }
}

impl Circuit {
    /// The gate table (children have smaller ids — topological order).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output gate.
    pub fn output(&self) -> GateId {
        self.output
    }

    /// Gates reachable from the output (the *live* circuit; dead gates in
    /// the arena are ignored by all metrics).
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack = vec![self.output];
        live[self.output as usize] = true;
        while let Some(g) = stack.pop() {
            match self.gates[g as usize] {
                Gate::Add(a, b) | Gate::Mul(a, b) => {
                    for c in [a, b] {
                        if !live[c as usize] {
                            live[c as usize] = true;
                            stack.push(c);
                        }
                    }
                }
                _ => {}
            }
        }
        live
    }

    /// Evaluate over a semiring under an input valuation.
    pub fn eval<S, V>(&self, assign: &V) -> S
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let live = self.live_mask();
        let mut vals: Vec<Option<S>> = vec![None; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let v = match *gate {
                Gate::Zero => S::zero(),
                Gate::One => S::one(),
                Gate::Input(x) => assign.value(x),
                Gate::Add(a, b) => {
                    let (va, vb) = (vals[a as usize].as_ref(), vals[b as usize].as_ref());
                    va.expect("topo order").add(vb.expect("topo order"))
                }
                Gate::Mul(a, b) => {
                    let (va, vb) = (vals[a as usize].as_ref(), vals[b as usize].as_ref());
                    va.expect("topo order").mul(vb.expect("topo order"))
                }
            };
            vals[i] = Some(v);
        }
        vals[self.output as usize].clone().expect("output is live")
    }

    /// [`eval`](Circuit::eval); `threads` is ignored. Evaluation stays
    /// sequential because deep circuits have too few gates per depth
    /// level for a level-synchronous parallel pass to pay.
    pub fn eval_par<S, V>(&self, assign: &V, _threads: usize) -> S
    where
        S: Semiring,
        V: Valuation<S> + Sync + ?Sized,
    {
        self.eval(assign)
    }

    /// The canonical provenance polynomial this circuit computes over every
    /// absorptive semiring: its evaluation in `Sorp(X)` (see §2.5 — the
    /// polynomial the circuit *computes*, with absorption applied).
    pub fn polynomial(&self) -> Sorp {
        self.eval(&VarTags)
    }

    /// Evaluate over an absorptive semiring via the polynomial — slow oracle
    /// used in tests to double-check direct evaluation.
    pub fn eval_via_polynomial<S, V>(&self, assign: &V) -> S
    where
        S: Absorptive,
        V: Valuation<S> + ?Sized,
    {
        self.polynomial().eval(assign)
    }

    /// Rewire inputs: each input variable is either renamed or replaced by
    /// the constant 1 — the input-substitution step of the paper's circuit
    /// reductions (Thms 5.9, 5.11, 6.8: "connect one of the edges to the
    /// input variable … and connect all other edges to 1 ∈ S").
    pub fn substitute_inputs(&self, subst: &dyn Fn(VarId) -> InputSubst) -> Circuit {
        let mut b = CircuitBuilder::new();
        let mut map: Vec<GateId> = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let id = match *gate {
                Gate::Zero => b.zero(),
                Gate::One => b.one(),
                Gate::Input(x) => match subst(x) {
                    InputSubst::Var(v) => b.input(v),
                    InputSubst::One => b.one(),
                    InputSubst::Zero => b.zero(),
                },
                Gate::Add(x, y) => {
                    let (mx, my) = (map[x as usize], map[y as usize]);
                    b.add(mx, my)
                }
                Gate::Mul(x, y) => {
                    let (mx, my) = (map[x as usize], map[y as usize]);
                    b.mul(mx, my)
                }
            };
            map.push(id);
        }
        b.finish(map[self.output as usize])
    }

    /// Structural sanity checks: children precede parents, output in range.
    pub fn validate(&self) -> Result<(), Error> {
        for (i, gate) in self.gates.iter().enumerate() {
            if let Gate::Add(a, b) | Gate::Mul(a, b) = *gate {
                if a as usize >= i || b as usize >= i {
                    return Err(Error::InvalidCircuit(format!(
                        "gate {i} references a later gate"
                    )));
                }
            }
        }
        if self.output as usize >= self.gates.len() {
            return Err(Error::InvalidCircuit("output out of range".into()));
        }
        Ok(())
    }
}

/// Input substitution for [`Circuit::substitute_inputs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputSubst {
    /// Rename to another variable.
    Var(VarId),
    /// Replace by the constant 1 (the reductions' "wire to 1").
    One,
    /// Replace by the constant 0 (delete the input).
    Zero,
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::prelude::*;

    #[test]
    fn consing_shares_structure() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s1 = b.add(x, y);
        let s2 = b.add(y, x); // commutativity-normalized
        assert_eq!(s1, s2);
        let p1 = b.mul(s1, x);
        let p2 = b.mul(x, s2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn unit_simplifications() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let zero = b.zero();
        let one = b.one();
        assert_eq!(b.add(x, zero), x);
        assert_eq!(b.mul(x, one), x);
        assert_eq!(b.mul(x, zero), zero);
    }

    #[test]
    fn eval_over_multiple_semirings() {
        // (x0 ⊗ x1) ⊕ x2
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let x2 = b.input(2);
        let m = b.mul(x0, x1);
        let out = b.add(m, x2);
        let c = b.finish(out);
        c.validate().unwrap();

        assert_eq!(c.eval(&from_fn(|_| Bool(true))), Bool(true));
        assert_eq!(
            c.eval(&from_fn(|v| Tropical::new(v as u64 + 1))),
            Tropical::new(3) // min(1+2, 3)
        );
        assert_eq!(
            c.eval(&UnitWeights::new(Counting::new(2))),
            Counting::new(6)
        ); // 2*2+2
        let poly = c.polynomial();
        assert_eq!(poly.to_string(), "x0*x1 + x2");
    }

    #[test]
    fn polynomial_applies_absorption() {
        // x0 ⊕ (x0 ⊗ x1) collapses to x0 in Sorp.
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let m = b.mul(x0, x1);
        let out = b.add(x0, m);
        let c = b.finish(out);
        assert_eq!(c.polynomial(), Sorp::var(0));
    }

    #[test]
    fn add_many_is_balanced() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<GateId> = (0..64).map(|v| b.input(v)).collect();
        let out = b.add_many(&inputs);
        let c = b.finish(out);
        let stats = crate::metrics::stats(&c);
        assert_eq!(stats.depth, 6); // log2(64)
        assert_eq!(stats.num_add, 63);
    }

    #[test]
    fn substitute_inputs_matches_paper_rewiring() {
        // x0 ⊗ x1 with x1 ↦ 1 becomes x0' (renamed to 7).
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let m = b.mul(x0, x1);
        let c = b.finish(m);
        let c2 = c.substitute_inputs(&|v| {
            if v == 0 {
                InputSubst::Var(7)
            } else {
                InputSubst::One
            }
        });
        assert_eq!(c2.polynomial(), Sorp::var(7));
    }

    #[test]
    fn eval_ignores_dead_gates() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let _dead = b.mul(x, y);
        let c = b.finish(x);
        assert_eq!(
            c.eval(&from_fn(|v| Counting::new(v as u64 + 5))),
            Counting::new(5)
        );
        let stats = crate::metrics::stats(&c);
        assert_eq!(stats.num_gates, 1);
    }

    #[test]
    fn substitute_zero_deletes_monomials() {
        // (x0 ⊗ x1) ⊕ x2 with x1 ↦ 0 leaves only x2.
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let x2 = b.input(2);
        let m = b.mul(x0, x1);
        let out = b.add(m, x2);
        let c = b.finish(out);
        let c2 = c.substitute_inputs(&|v| {
            if v == 1 {
                InputSubst::Zero
            } else {
                InputSubst::Var(v)
            }
        });
        assert_eq!(c2.polynomial(), Sorp::var(2));
    }

    #[test]
    fn validate_rejects_forward_references() {
        // Hand-build a malformed circuit: gate 2 references gate 3.
        let c = Circuit {
            gates: vec![Gate::Zero, Gate::One, Gate::Add(3, 1), Gate::Input(0)],
            output: 2,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn eval_via_polynomial_agrees() {
        let mut b = CircuitBuilder::new();
        let xs: Vec<GateId> = (0..6).map(|v| b.input(v)).collect();
        let m1 = b.mul_many(&xs[0..3]);
        let m2 = b.mul_many(&xs[2..6]);
        let out = b.add(m1, m2);
        let c = b.finish(out);
        let assign = from_fn(|v: VarId| Tropical::new((v as u64 * 3) % 5 + 1));
        assert_eq!(c.eval(&assign), c.eval_via_polynomial(&assign));
    }
}
