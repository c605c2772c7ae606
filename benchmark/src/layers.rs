//! Per-layer probes of the traced run. Each probe calls one layer's public
//! entry point on the workload's own instance inside a span; a layer's
//! number is the median self time of its span. Stage and counter numbers
//! are read from the engine's `pipeline_metrics_v1` JSON.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datalog::{
    fused_eval_retaining, magic_point_eval, par_fused_eval, parse_program, ConstId, PredId, Program,
};
use incremental::MaintainedFixpoint;
use provcirc::Engine;
use semiring::{Tropical, UnitWeights};
use server::protocol::{parse_command, QuerySpec, WireValuation, WireWeight};
use server::session::Registry;
use telemetry::NOOP;

use crate::inputs::{node, tag, wire_deck, Instance, WireOp};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{engine_builder, Measured, Metric, ENGINE_THREADS};

/// What the probes run on: a program, its instance, and one goal.
pub struct Target<'a> {
    pub program: &'static str,
    pub inst: &'a Instance,
    pub pred: &'static str,
    pub goal: (usize, usize),
    pub seed: u64,
}

/// Repeat `f` at least `min` and at most `max` times, stopping once
/// `budget` has passed.
fn reps(budget: Duration, min: usize, max: usize, mut f: impl FnMut(u64)) {
    let t0 = Instant::now();
    for i in 0..max {
        if i >= min && t0.elapsed() >= budget {
            break;
        }
        f(i as u64);
    }
}

/// The number after `"key": ` in `json`, searching from `from`.
fn json_number(json: &str, from: usize, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = json[from..].find(&pat)? + from + pat.len();
    let num: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    num.parse().ok()
}

/// `total_ms` of one stage in a `pipeline_metrics_v1` report (0 if absent).
pub fn stage_ms(json: &str, stage: &str) -> f64 {
    json.find(&format!("\"stage\": \"{stage}\""))
        .and_then(|at| json_number(json, at, "total_ms"))
        .unwrap_or(0.0)
}

/// One counter of a `pipeline_metrics_v1` report (0 if absent).
pub fn counter(json: &str, name: &str) -> f64 {
    json.find("\"counters\"")
        .and_then(|at| json_number(json, at, name))
        .unwrap_or(0.0)
}

struct Probe<'a, 't> {
    t: &'a Target<'t>,
    tr: Tracer,
    m: &'a mut Measured,
    counts: BTreeMap<&'static str, f64>,
    facts: Vec<(&'static str, [String; 2])>,
    goal: [String; 2],
}

fn unit() -> UnitWeights<Tropical> {
    UnitWeights::new(Tropical::new(1))
}

/// The engine's ids of a goal predicate and its constants.
fn ids(engine: &Engine, pred: &str, goal: &[String]) -> (PredId, Vec<ConstId>) {
    let pred = engine.program().preds.get(pred).expect("goal predicate");
    let consts = goal
        .iter()
        .map(|c| engine.database().consts.get(c).expect("goal constant"))
        .collect();
    (pred, consts)
}

impl Probe<'_, '_> {
    fn engine(&self, threads: usize) -> Engine {
        engine_builder(&self.facts, threads, false)
            .program_text(self.t.program)
            .build()
            .expect("generated input builds")
    }

    fn goal_refs(&self) -> [&str; 2] {
        [&self.goal[0], &self.goal[1]]
    }

    /// The goal's tropical unit-weight value, through `Query::eval`.
    fn answer(&self, engine: &Engine) -> Result<Tropical, String> {
        engine
            .query(self.t.pred, &self.goal_refs())
            .and_then(|q| q.eval(&unit()))
            .map_err(|e| e.to_string())
    }

    fn same(&mut self, what: &str, got: Result<Tropical, String>, want: &Result<Tropical, String>) {
        let ok = got.is_ok() && &got == want;
        self.m
            .check(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }

    /// parse → build → classify → ground → fixpoint → query → snapshot, at
    /// both thread counts (alternating, so drift hits both alike).
    fn pipeline(&mut self, budget: Duration) {
        let t = self.t;
        reps(budget, 4, 12, |i| {
            let threads = if i % 2 == 0 { ENGINE_THREADS } else { 1 };
            let (ground, eval) = if threads == 1 {
                ("ground.1t", "eval.1t")
            } else {
                ("ground", "eval")
            };
            let mut tr = std::mem::replace(&mut self.tr, Tracer::off());
            tr.span("probe.pipeline", i, |tr| {
                let p: Program = tr
                    .span("parser.parse", i, |_| parse_program(t.program))
                    .expect("program parses");
                let engine = tr
                    .span("core.build", i, |_| {
                        engine_builder(&self.facts, threads, false)
                            .program(p)
                            .build()
                    })
                    .expect("generated input builds");
                tr.span("core.classify", i, |_| engine.classification().clone());
                let gp = tr.span(ground, i, |_| engine.grounding()).expect("grounds");
                self.counts.insert("ground.rules", gp.rules.len() as f64);
                self.counts
                    .insert("ground.idb_facts", gp.num_idb_facts() as f64);
                let out = tr
                    .span(eval, i, |_| engine.fixpoint::<Tropical, _>(&unit()))
                    .expect("fixpoint");
                self.counts.insert("eval.rounds", out.iterations as f64);
                self.counts
                    .insert("eval.rule_firings", out.rule_firings as f64);
                // What `Query::eval` adds to the fixpoint: building the
                // query and finding the goal's fact.
                let fact = tr
                    .span("core.dispatch", i, |_| {
                        engine.query(t.pred, &self.goal_refs()).map(|_| {
                            let (pred, consts) = ids(&engine, t.pred, &self.goal);
                            gp.fact(pred, &consts)
                        })
                    })
                    .expect("goal query builds");
                let want = Ok(fact.map_or(Tropical::infinity(), |f| out.values[f]));
                if threads == ENGINE_THREADS {
                    let got = tr.span("core.query", i, |_| self.answer(&engine));
                    self.same("Query::eval vs Engine::fixpoint", got, &want);
                    tr.span("core.snapshot", i, |_| engine.snapshot().map(drop))
                        .expect("snapshot");
                }
            });
            self.tr = tr;
        });
    }

    /// Cold answers with telemetry on and off (alternating), plus the
    /// grounding stage breakdown of one telemetry-on engine.
    fn telemetry(&mut self, budget: Duration) {
        let mut report = String::new();
        let mut want = None;
        reps(budget, 4, 10, |i| {
            let on = i % 2 == 1;
            let name = if on {
                "telemetry.cold_on"
            } else {
                "telemetry.cold_off"
            };
            let mut tr = std::mem::replace(&mut self.tr, Tracer::off());
            let engine = tr.span(name, i, |_| {
                let engine = engine_builder(&self.facts, ENGINE_THREADS, on)
                    .program_text(self.t.program)
                    .build()
                    .expect("generated input builds");
                let got = self.answer(&engine);
                (engine, got)
            });
            self.tr = tr;
            // Telemetry must not change the answer.
            let want = want.get_or_insert_with(|| engine.1.clone()).clone();
            self.same("telemetry on vs off", engine.1, &want);
            if on {
                report = engine.0.metrics_report().to_json();
            }
        });
        self.counts
            .insert("ground.phase1_ms", stage_ms(&report, "ground_phase1"));
        self.counts
            .insert("ground.phase2_ms", stage_ms(&report, "ground_phase2"));
        self.counts.insert(
            "ground.merge_ms",
            counter(&report, "ground_merge_nanos") / 1e6,
        );
        self.counts
            .insert("ground.index_probes", counter(&report, "index_probes"));
    }

    /// Fused ground+eval and demand-driven (magic) point evaluation.
    fn fused_and_magic(&mut self, engine: &Engine, budget: Duration) {
        let want = self.answer(engine);
        let (pred, consts) = ids(engine, self.t.pred, &self.goal);
        let mut tr = std::mem::replace(&mut self.tr, Tracer::off());
        reps(budget, 2, 8, |i| {
            let out = tr.span("fused", i, |_| {
                par_fused_eval::<Tropical, _>(
                    engine.program(),
                    engine.database(),
                    &unit(),
                    None,
                    ENGINE_THREADS,
                )
            });
            let got = out.map_err(|e| e.to_string()).map(|o| {
                o.gp.fact(pred, &consts)
                    .map_or(Tropical::infinity(), |f| o.values[f])
            });
            self.same("fused vs Query::eval", got, &want);
        });
        let retained = fused_eval_retaining::<Tropical, _>(
            engine.program(),
            engine.database(),
            &unit(),
            None,
            &NOOP,
        )
        .ok()
        .and_then(|o| o.retained)
        .map_or(0, |csr| csr.heap_bytes());
        self.counts.insert("fused.csr_bytes", retained as f64);
        let mut cone = 0;
        reps(budget / 2, 3, 50, |i| {
            let out = tr.span("magic", i, |_| {
                magic_point_eval::<Tropical, _>(
                    engine.program(),
                    engine.database(),
                    pred,
                    &consts,
                    &unit(),
                    None,
                    &NOOP,
                )
            });
            match out {
                // Eligible goal: the cone's value must match.
                Ok(Some(o)) => {
                    cone = o.grounded_rules;
                    self.same("magic vs Query::eval", Ok(o.value), &want);
                }
                // The program is not a left-linear chain: no cone.
                Ok(None) => cone = 0,
                Err(e) => self.m.check(false, || format!("magic: {e}")),
            }
        });
        self.counts.insert("magic.cone_rules", cone as f64);
        self.tr = tr;
    }

    /// Arena build, cone extraction, stats and evaluation of a grounded
    /// circuit. Always on the `circuits_dyck` instance and first goal
    /// (relabelled by the run seed): over the TC instances the grounded
    /// construction would unroll to billions of gates.
    fn circuit(&mut self, budget: Duration) {
        let (inst, goals) = crate::circuits::instance(self.t.seed);
        let engine = crate::circuits::build(&inst.facts());
        let goal = [node(goals[0].0), node(goals[0].1)];
        let want = engine
            .query("S", &[&goal[0], &goal[1]])
            .and_then(|q| q.eval(&unit()))
            .map_err(|e| e.to_string());
        let gp = engine.grounding().expect("grounds");
        let (pred, consts) = ids(&engine, "S", &goal);
        let Some(fact) = gp.fact(pred, &consts) else {
            return self
                .m
                .check(false, || "probe goal is not derivable".to_owned());
        };
        let mut tr = std::mem::replace(&mut self.tr, Tracer::off());
        let mut c = None;
        reps(budget / 3, 2, 4, |i| {
            let mo = tr.span("circuit.arena_build", i, |_| {
                circuit::grounded_circuit(gp, None)
            });
            let built = tr.span("circuit.extract", i, |_| mo.circuit_for(fact));
            drop(mo);
            let st = tr.span("circuit.stats", i, |_| circuit::stats(&built));
            self.counts.insert("circuit.gates", st.num_gates as f64);
            self.counts.insert("circuit.depth", st.depth as f64);
            c = Some(built);
        });
        let c = c.expect("built at least once");
        reps(budget, 6, 60, |i| {
            let (name, got) = if i % 2 == 0 {
                (
                    "circuit.eval",
                    tr.span("circuit.eval", i, |_| c.eval_par(&unit(), ENGINE_THREADS)),
                )
            } else {
                (
                    "circuit.eval_1t",
                    tr.span("circuit.eval_1t", i, |_| c.eval(&unit())),
                )
            };
            self.same(name, Ok(got), &want);
        });
        self.tr = tr;
    }

    /// Write pairs through `Engine::insert_fact`/`retract_fact` with the
    /// fixpoint repaired in place by `MaintainedFixpoint`.
    fn incremental(&mut self, budget: Duration) {
        let mut engine = self.engine(1);
        let label = self.t.inst.edges[0].2;
        let (before, mut fix) = {
            let gp = engine.grounding().expect("grounds");
            let out = engine.fixpoint::<Tropical, _>(&unit()).expect("fixpoint");
            (gp.rules.len(), MaintainedFixpoint::start(&out))
        };
        let mut rng = Rng::stream(self.t.seed, tag::PROBE_WRITES);
        let mut tr = std::mem::replace(&mut self.tr, Tracer::off());
        reps(budget, 3, 40, |i| {
            let (u, v) = self.t.inst.non_edge(&mut rng);
            let (u, v) = (node(u), node(v));
            let budget_iters = engine.budget().expect("budget");
            let ins = tr.span("incremental.insert", i, |_| {
                engine.insert_fact(label, &[&u, &v])
            });
            let Ok(ins) = ins else {
                return self.m.check(false, || format!("insert: {ins:?}"));
            };
            let gp = engine.grounding().expect("grounds");
            tr.span("incremental.repair_insert", i, |_| {
                fix.apply_insert(gp, &unit(), ins.base_rules, budget_iters, &NOOP)
            });
            let ret = tr.span("incremental.retract", i, |_| {
                engine.retract_fact(label, &[&u, &v])
            });
            let Ok(ret) = ret else {
                return self.m.check(false, || format!("retract: {ret:?}"));
            };
            let gp = engine.grounding().expect("grounds");
            tr.span("incremental.repair_retract", i, |_| {
                fix.apply_retract(gp, &unit(), &ret.roots, budget_iters, &NOOP)
            });
        });
        self.tr = tr;
        let fresh = engine.fixpoint::<Tropical, _>(&unit()).expect("fixpoint");
        self.m.check(fresh.values == fix.values(), || {
            "repaired fixpoint differs from a fresh one".to_owned()
        });
        let after = engine.grounding().expect("grounds").rules.len();
        self.counts.insert(
            "incremental.rules_growth",
            after as f64 / before.max(1) as f64,
        );
    }

    /// The serving layer without a socket (`Session`), the protocol parser,
    /// and the same read over a loopback socket.
    fn server(&mut self, budget: Duration) {
        let t = self.t;
        let label = t.inst.edges[0].2;
        let mut rng = Rng::stream(t.seed, tag::MIX + 9);
        let ops: Vec<WireOp> = (0..3)
            .flat_map(|_| wire_deck(t.inst, 0, &mut rng))
            .collect();
        let lines: Vec<String> = ops
            .into_iter()
            .flat_map(|op| match op {
                WireOp::Read(r) => vec![r.wire().0],
                WireOp::Batch(rs) => rs.iter().map(|r| r.wire().0).collect(),
                WireOp::WritePair((u, v)) => vec![format!("INSERT E {} {}", node(u), node(v))],
            })
            .collect();
        let mut tr = std::mem::replace(&mut self.tr, Tracer::off());
        reps(budget / 8, 5, 200, |i| {
            tr.span("server.parse", i, |_| {
                lines.iter().all(|l| parse_command(l).is_ok())
            });
        });
        let per_line = lines.len() as f64;

        let session = Registry::new(1).open();
        let facts: Vec<(String, Vec<String>)> = self
            .facts
            .iter()
            .map(|(p, args)| ((*p).to_owned(), args.to_vec()))
            .collect();
        let loaded = session
            .load_program(t.program)
            .and_then(|_| session.load_facts(facts));
        if let Err(e) = loaded {
            self.tr = tr;
            return self.m.check(false, || format!("session load: {e:?}"));
        }
        let [s, d] = &self.goal;
        let read = format!("{} {s} {d} SEMIRING tropical VALUATION unit:1", t.pred);
        let spec = |line: &str| {
            QuerySpec::parse(&line.split_ascii_whitespace().collect::<Vec<_>>())
                .expect("spec parses")
        };
        let read_spec = spec(&read);
        let want = self.answer(&self.engine(1)).map(|v| render(&v));
        let batch: Vec<QuerySpec> = (0..crate::inputs::BATCH_SIZE)
            .map(|j| {
                let sem = if j % 2 == 0 {
                    "tropical VALUATION unit:1"
                } else {
                    "bool"
                };
                spec(&format!("{} {s} {d} SEMIRING {sem}", t.pred))
            })
            .collect();
        let mut perfact = spec(&format!(
            "{} {s} {d} SEMIRING tropical VALUATION perfact",
            t.pred
        ));
        perfact.valuation = WireValuation::PerFact(
            t.inst.edges[..4]
                .iter()
                .map(|&(u, v, l)| WireWeight {
                    pred: l.to_owned(),
                    args: vec![node(u), node(v)],
                    weight: 3.0,
                })
                .collect(),
        );
        // Fill the session's fixpoint cache first.
        let first = session.query(&read_spec).map_err(|e| e.render());
        self.m.check(first == want, || {
            format!("session read: {first:?}, want {want:?}")
        });
        reps(budget / 4, 10, 2000, |i| {
            let got = tr.span("server.session_read", i, |_| session.query(&read_spec));
            self.m
                .check(got.is_ok(), || format!("session read: {got:?}"));
        });
        reps(budget / 4, 5, 500, |i| {
            let got = tr.span("server.session_batch", i, |_| session.batch(&batch));
            let ok = got
                .as_ref()
                .is_ok_and(|rows| rows.iter().all(Result::is_ok));
            self.m.check(ok, || format!("session batch: {got:?}"));
        });
        reps(budget / 4, 3, 50, |i| {
            let got = tr.span("server.session_perfact", i, |_| session.query(&perfact));
            self.m
                .check(got.is_ok(), || format!("session perfact: {got:?}"));
        });
        let mut pairs = Rng::stream(t.seed, tag::PROBE_WRITES);
        reps(budget / 4, 3, 40, |i| {
            let (u, v) = t.inst.non_edge(&mut pairs);
            let args = [node(u), node(v)];
            for write in [true, false] {
                let got = tr.span("server.session_write", i, |_| {
                    if write {
                        session.insert(label, &args)
                    } else {
                        session.retract(label, &args)
                    }
                });
                self.m.check(got.as_ref().is_ok_and(|r| r.0 == 1), || {
                    format!("session write: {got:?}")
                });
            }
        });
        let after = session.query(&read_spec).map_err(|e| e.render());
        self.m.check(after == want, || {
            format!("session read after writes: {after:?}, want {want:?}")
        });

        match self.wire(&read, &want, &mut tr, budget / 4) {
            Ok((applied, fallbacks)) => {
                self.counts.insert("server.incremental_applied", applied);
                self.counts
                    .insert("server.incremental_fallbacks", fallbacks);
            }
            Err(e) => self.m.check(false, || format!("wire probe: {e}")),
        }
        self.counts.insert("server.parse_lines", per_line);
        self.tr = tr;
    }

    /// Loopback reads of the same goal, then one write pair and `METRICS`:
    /// returns the session's `(incremental_applied, incremental_fallbacks)`.
    fn wire(
        &mut self,
        read: &str,
        want: &Result<String, String>,
        tr: &mut Tracer,
        budget: Duration,
    ) -> Result<(f64, f64), String> {
        let t = self.t;
        let (handle, mut c, _) = crate::serve::open_session(t.program, t.inst, 1)?;
        let result = (|| {
            let ok = |r: std::io::Result<server::client::Reply>| match r {
                Ok(r) if r.is_ok() => Ok(r),
                Ok(r) => Err(r.status),
                Err(e) => Err(e.to_string()),
            };
            let line = format!("QUERY {read}");
            let want = want.clone().map(|v| format!("OK VALUE {v}"));
            reps(budget, 10, 2000, |i| {
                let got = tr.span("server.wire_read", i, |_| c.run_line(&line));
                let got = got.map(|r| r.status).map_err(|e| e.to_string());
                self.m
                    .check(got == want, || format!("wire read: {got:?}, want {want:?}"));
            });
            let (u, v) = t.inst.non_edge(&mut Rng::stream(t.seed, tag::PROBE_WRITES));
            let label = t.inst.edges[0].2;
            ok(c.run_line(&format!("INSERT {label} {} {}", node(u), node(v))))?;
            ok(c.run_line(&format!("RETRACT {label} {} {}", node(u), node(v))))?;
            let metrics = ok(c.run_line("METRICS"))?.body.join("\n");
            Ok((
                counter(&metrics, "incremental_applied"),
                counter(&metrics, "incremental_fallbacks"),
            ))
        })();
        handle.shutdown();
        handle
            .wait()
            .map_err(|_| "server thread panicked".to_owned())?;
        result
    }
}

fn render(v: &Tropical) -> String {
    v.finite()
        .map_or_else(|| "inf".to_owned(), |w| w.to_string())
}

/// Run every probe on `t` and return the per-layer metrics. Spans go to a
/// tracer of their own and are then appended to `tr`.
pub fn probe(t: &Target, tr: &mut Tracer, m: &mut Measured) -> Vec<Metric> {
    let budget = Duration::from_secs(1);
    let mut p = Probe {
        t,
        tr: tr.fork(),
        m,
        counts: BTreeMap::new(),
        facts: t.inst.facts(),
        goal: [node(t.goal.0), node(t.goal.1)],
    };
    p.pipeline(budget * 4);
    p.telemetry(budget * 4);
    let engine = p.engine(ENGINE_THREADS);
    p.fused_and_magic(&engine, budget);
    drop(engine);
    p.circuit(budget * 2);
    p.incremental(budget);
    p.server(budget * 2);

    let by = p.tr.self_ms_by_name();
    let med = |name: &str| by.get(name).map_or(f64::NAN, |v| median(v));
    let n = |name: &str| by.get(name).map_or(0, Vec::len);
    let counts = p.counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(f64::NAN);
    let ms = |metric: &str, span: &str| Metric::new(metric, "ms", med(span), n(span));
    let ratio = |metric: &str, unit: &'static str, a: &str, b: &str| {
        Metric::new(metric, unit, med(a) / med(b), n(a).min(n(b)))
    };
    let c = |metric: &str, unit: &'static str| Metric::new(metric, unit, count(metric), 1);
    let metrics = vec![
        ms("parser.parse_ms", "parser.parse"),
        ms("core.build_ms", "core.build"),
        ms("core.classify_ms", "core.classify"),
        ms("core.snapshot_ms", "core.snapshot"),
        ms("core.dispatch_ms", "core.dispatch"),
        ms("ground.ms", "ground"),
        ms("ground.ms_1t", "ground.1t"),
        c("ground.rules", "count"),
        c("ground.idb_facts", "count"),
        c("ground.phase1_ms", "ms"),
        c("ground.phase2_ms", "ms"),
        c("ground.merge_ms", "ms"),
        c("ground.index_probes", "count"),
        ms("eval.ms", "eval"),
        ms("eval.ms_1t", "eval.1t"),
        c("eval.rounds", "count"),
        c("eval.rule_firings", "count"),
        ratio("par.ground_speedup", "x", "ground.1t", "ground"),
        ratio("par.eval_speedup", "x", "eval.1t", "eval"),
        ratio(
            "par.circuit_eval_speedup",
            "x",
            "circuit.eval_1t",
            "circuit.eval",
        ),
        ms("fused.ms", "fused"),
        c("fused.csr_bytes", "B"),
        ms("magic.ms", "magic"),
        c("magic.cone_rules", "count"),
        ms("circuit.arena_build_ms", "circuit.arena_build"),
        ms("circuit.extract_ms", "circuit.extract"),
        ms("circuit.stats_ms", "circuit.stats"),
        ms("circuit.eval_ms", "circuit.eval"),
        ms("circuit.eval_ms_1t", "circuit.eval_1t"),
        Metric::new(
            "circuit.eval_ns_per_gate",
            "ns",
            med("circuit.eval") * 1e6 / count("circuit.gates"),
            n("circuit.eval"),
        ),
        c("circuit.gates", "count"),
        c("circuit.depth", "count"),
        ms("incremental.insert_ms", "incremental.insert"),
        ms("incremental.retract_ms", "incremental.retract"),
        ms("incremental.repair_insert_ms", "incremental.repair_insert"),
        ms(
            "incremental.repair_retract_ms",
            "incremental.repair_retract",
        ),
        c("incremental.rules_growth", "ratio"),
        Metric::new(
            "server.parse_us",
            "us",
            med("server.parse") * 1e3 / count("server.parse_lines"),
            n("server.parse"),
        ),
        ms("server.session_read_ms", "server.session_read"),
        ms("server.session_batch_ms", "server.session_batch"),
        ms("server.session_perfact_ms", "server.session_perfact"),
        ms("server.session_write_ms", "server.session_write"),
        Metric::new(
            "server.wire_overhead_ms",
            "ms",
            med("server.wire_read") - med("server.session_read"),
            n("server.wire_read"),
        ),
        c("server.incremental_applied", "count"),
        c("server.incremental_fallbacks", "count"),
        Metric::new(
            "telemetry.overhead_pct",
            "%",
            (med("telemetry.cold_on") / med("telemetry.cold_off") - 1.0) * 100.0,
            n("telemetry.cold_on"),
        ),
    ];
    tr.absorb(p.tr);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_stages_and_counters_from_pipeline_metrics_json() {
        let json = "{\n  \"schema\": \"pipeline_metrics_v1\",\n  \"stages\": [\n    \
                    {\"stage\": \"ground_phase1\", \"calls\": 1, \"total_ms\": 12.500000},\n    \
                    {\"stage\": \"ground_phase2\", \"calls\": 1, \"total_ms\": 3.25}\n  ],\n  \
                    \"counters\": {\"index_probes\": 42, \"ground_merge_nanos\": 1500000}\n}";
        assert_eq!(stage_ms(json, "ground_phase1"), 12.5);
        assert_eq!(stage_ms(json, "ground_phase2"), 3.25);
        assert_eq!(stage_ms(json, "eval"), 0.0);
        assert_eq!(counter(json, "index_probes"), 42.0);
        assert_eq!(counter(json, "ground_merge_nanos"), 1.5e6);
        assert_eq!(counter(json, "missing"), 0.0);
    }
}
