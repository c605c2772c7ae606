//! `circuits_dyck`: cold circuit compiles and circuit evaluations. Each
//! operation builds a fresh engine over a Dyck-1 instance, compiles the
//! provenance circuit of one derivable goal with `Strategy::Auto`, then
//! evaluates it under several seeded per-edge tropical weightings, each
//! checked against `Query::eval` under the same weighting.

use std::collections::BTreeMap;
use std::time::Instant;

use provcirc::{Engine, Strategy};
use semiring::valuation::Valuation;
use semiring::Tropical;

use crate::inputs::{dyck_goals, node, Instance, DYCK_PROGRAM};
use crate::layers::Target;
use crate::rng::mix;
use crate::trace::Tracer;
use crate::{engine_builder, Measured, Workload, ENGINE_THREADS};

pub const NODES: usize = 32;
pub const EDGES: usize = 64;
/// Seed of the graph's shape; the run seed relabels it. Circuit sizes of
/// random Dyck graphs this small swing 25× between shapes, so the shape is
/// fixed (see `README.md`).
const SHAPE_SEED: u64 = 2;
/// The run's fixed goal list; operations cycle through it.
const GOALS: usize = 4;
/// Weightings evaluated per compiled circuit.
const EVALS: usize = 8;

/// A seeded weight in 1..=9 for every EDB fact.
#[derive(Clone, Copy, Debug)]
pub struct EdgeWeights(pub u64);

impl Valuation<Tropical> for EdgeWeights {
    fn value(&self, var: u32) -> Tropical {
        Tropical::new(1 + mix(self.0 ^ u64::from(var)) % 9)
    }
}

pub struct CircuitsDyck {
    inst: Instance,
    facts: Vec<(&'static str, [String; 2])>,
    goals: Vec<(usize, usize)>,
    /// `(gates, depth)` of each goal's compiled circuit.
    sizes: BTreeMap<usize, (usize, usize)>,
    next: usize,
    seed: u64,
}

/// The run's instance and goal list. Goals are picked on the shape, so
/// every seed compiles the same circuits up to renaming.
pub fn instance(seed: u64) -> (Instance, Vec<(usize, usize)>) {
    let shape = Instance::gnm(NODES, EDGES, &["L", "R"], SHAPE_SEED);
    let (inst, perm) = shape.relabelled(seed);
    let goals = dyck_goals(&shape, GOALS, SHAPE_SEED)
        .into_iter()
        .map(|(s, t)| (perm[s], perm[t]))
        .collect();
    (inst, goals)
}

pub fn build(facts: &[(&'static str, [String; 2])]) -> Engine {
    engine_builder(facts, ENGINE_THREADS, false)
        .program_text(DYCK_PROGRAM)
        .build()
        .expect("generated Dyck input builds")
}

impl CircuitsDyck {
    fn op(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let k = self.next;
        let gi = k % self.goals.len();
        let (s, t) = self.goals[gi];
        self.next += 1;
        let seed = self.seed;
        let facts = &self.facts;
        let sizes = &mut self.sizes;
        tr.span("op.compile_eval", k as u64, |tr| {
            let t0 = Instant::now();
            let engine = tr.span("core.build", k as u64, |_| build(facts));
            let q = match engine.query("S", &[&node(s), &node(t)]) {
                Ok(q) => q,
                Err(e) => return m.check(false, || format!("S({s},{t}): {e}")),
            };
            let compiled = tr.span("core.circuit", k as u64, |_| q.circuit(Strategy::Auto));
            m.sample("compile_ms", t0.elapsed());
            match &compiled {
                Ok(c) => {
                    sizes.insert(gi, (c.stats.num_gates, c.stats.depth));
                    m.check(true, String::new);
                }
                Err(e) => return m.check(false, || format!("compile S({s},{t}): {e}")),
            }
            for j in 0..EVALS {
                let w = EdgeWeights(mix(seed ^ mix((k * EVALS + j) as u64)));
                let t1 = Instant::now();
                let got = tr.span("core.circuit_eval", k as u64, |_| {
                    q.circuit_eval::<Tropical, _>(Strategy::Auto, &w)
                });
                m.sample("circuit_eval_ms", t1.elapsed());
                let want = q.eval::<Tropical, _>(&w);
                let ok = matches!((&got, &want), (Ok(g), Ok(v)) if g == v && !g.is_infinite());
                m.check(ok, || {
                    format!("S({s},{t}) weighting {j}: circuit {got:?}, fixpoint {want:?}")
                });
            }
            tr.span("core.drop", k as u64, |_| drop(engine));
        });
        m.ops += 1;
    }
}

impl Workload for CircuitsDyck {
    const HEAVY: &'static str = "compile_ms";
    const LIGHT: &'static str = "circuit_eval_ms";

    fn setup(seed: u64) -> Result<Self, String> {
        let (inst, goals) = instance(seed);
        let facts = inst.facts();
        let mut w = CircuitsDyck {
            inst,
            facts,
            goals,
            sizes: BTreeMap::new(),
            next: 0,
            seed,
        };
        let mut m = Measured::default();
        w.op(&mut Tracer::off(), &mut m);
        w.next = 0;
        match m.errors.first() {
            Some(e) => Err(format!("warm-up failed: {e}")),
            None => Ok(w),
        }
    }

    fn describe(&self) -> String {
        format!(
            "Dyck-1 over L/R gnm({NODES},{EDGES}); goals {:?}; {EVALS} weightings per compile",
            self.goals
        )
    }

    fn run(&mut self, deadline: Instant, tr: &mut Tracer, m: &mut Measured) {
        // Whole passes over the goal list, so each goal has the same weight.
        while Instant::now() < deadline || !self.next.is_multiple_of(self.goals.len()) {
            self.op(tr, m);
        }
        // Sizes over the whole goal list, so the counts repeat exactly: a
        // run too short to reach every goal compiles the rest untimed.
        for (gi, &(s, t)) in self.goals.iter().enumerate() {
            if self.sizes.contains_key(&gi) {
                continue;
            }
            let engine = build(&self.facts);
            match engine
                .query("S", &[&node(s), &node(t)])
                .and_then(|q| q.circuit(Strategy::Auto))
            {
                Ok(c) => {
                    self.sizes.insert(gi, (c.stats.num_gates, c.stats.depth));
                }
                Err(e) => m.check(false, || format!("compile S({s},{t}): {e}")),
            }
        }
        let gates: usize = self.sizes.values().map(|s| s.0).sum();
        let depth = self.sizes.values().map(|s| s.1).max().unwrap_or(0);
        m.counts.insert("circuit_gates", gates as f64);
        m.counts.insert("circuit_depth", depth as f64);
    }

    fn target(&self) -> Target<'_> {
        Target {
            program: DYCK_PROGRAM,
            inst: &self.inst,
            pred: "S",
            goal: self.goals[0],
            seed: self.seed,
        }
    }
}
