//! `oneshot_tc`: cold answers. Each operation builds a fresh engine from
//! program text and string facts and answers one tropical unit-weight goal,
//! paying for parse, grounding and fixpoint; follow-up goals on the same
//! engine then reuse its cached grounding (warm answers).

use std::time::Instant;

use provcirc::Engine;
use semiring::{Tropical, UnitWeights};

use crate::inputs::{node, tc_goals, Instance, Oracle, TC_PROGRAM};
use crate::layers::Target;
use crate::trace::Tracer;
use crate::{engine_builder, Measured, Workload, ENGINE_THREADS};

pub const NODES: usize = 400;
pub const EDGES: usize = 1600;
/// Seed of the graph's shape; the run seed relabels it (see `README.md`).
const SHAPE_SEED: u64 = 1;
const GOALS: usize = 64;
/// Warm follow-up answers per cold answer.
const WARM: usize = 2;

pub struct OneshotTc {
    inst: Instance,
    facts: Vec<(&'static str, [String; 2])>,
    /// Goals with their expected hop distance (BFS oracle).
    goals: Vec<((usize, usize), u64)>,
    next: usize,
    seed: u64,
}

fn build(facts: &[(&'static str, [String; 2])]) -> Engine {
    engine_builder(facts, ENGINE_THREADS, false)
        .program_text(TC_PROGRAM)
        .build()
        .expect("generated TC input builds")
}

fn answer(engine: &Engine, (s, t): (usize, usize)) -> Result<Tropical, String> {
    engine
        .query("T", &[&node(s), &node(t)])
        .and_then(|q| q.eval(&UnitWeights::new(Tropical::new(1))))
        .map_err(|e| e.to_string())
}

impl OneshotTc {
    fn op(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let k = self.next as u64;
        let ((s, t), want) = self.goals[self.next % self.goals.len()];
        self.next += 1;
        tr.span("op.cold_answer", k, |tr| {
            let t0 = Instant::now();
            let engine = tr.span("core.build", k, |_| build(&self.facts));
            let got = tr.span("core.query", k, |_| answer(&engine, (s, t)));
            m.sample("answer_ms", t0.elapsed());
            check(m, (s, t), want, got);
            for j in 0..WARM {
                let (goal, want) = self.goals[(self.next * WARM + j) % self.goals.len()];
                let t1 = Instant::now();
                let got = tr.span("core.query", k, |_| answer(&engine, goal));
                m.sample("warm_answer_ms", t1.elapsed());
                check(m, goal, want, got);
            }
            tr.span("core.drop", k, |_| drop(engine));
        });
        m.ops += 1;
    }
}

fn check(m: &mut Measured, (s, t): (usize, usize), want: u64, got: Result<Tropical, String>) {
    m.check(got.as_ref() == Ok(&Tropical::new(want)), || {
        format!("T({s},{t}): want {want}, got {got:?}")
    });
}

impl Workload for OneshotTc {
    const HEAVY: &'static str = "answer_ms";
    const LIGHT: &'static str = "warm_answer_ms";

    fn setup(seed: u64) -> Result<Self, String> {
        let (inst, _) = Instance::gnm(NODES, EDGES, &["E"], SHAPE_SEED).relabelled(seed);
        let mut oracle = Oracle::new(&inst);
        let goals = tc_goals(&mut oracle, GOALS, seed)
            .into_iter()
            .map(|(s, t)| ((s, t), oracle.hops(s, t, &[]).expect("goal is reachable")))
            .collect();
        let facts = inst.facts();
        let mut w = OneshotTc {
            inst,
            facts,
            goals,
            next: 0,
            seed,
        };
        // Warm-up: one full operation (allocator and page cache), checked.
        let mut m = Measured::default();
        w.op(&mut Tracer::off(), &mut m);
        w.next = 0;
        match m.errors.first() {
            Some(e) => Err(format!("warm-up answer wrong: {e}")),
            None => Ok(w),
        }
    }

    fn describe(&self) -> String {
        format!(
            "TC over gnm({NODES},{EDGES}); {WARM} warm answers per cold answer; {} goals",
            self.goals.len()
        )
    }

    fn run(&mut self, deadline: Instant, tr: &mut Tracer, m: &mut Measured) {
        while Instant::now() < deadline {
            self.op(tr, m);
        }
    }

    fn target(&self) -> Target<'_> {
        Target {
            program: TC_PROGRAM,
            inst: &self.inst,
            pred: "T",
            goal: self.goals[0].0,
            seed: self.seed,
        }
    }
}
