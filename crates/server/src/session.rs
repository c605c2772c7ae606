//! Server sessions: engine state, snapshot lifecycle, and query/batch
//! evaluation against snapshots.
//!
//! A [`Session`] owns the mutable serving state — the resident write
//! [`Engine`] and the published `Arc<Engine>` snapshot of it — behind one
//! mutex that is held only for *state transitions* (load, write,
//! snapshot, handle clone), never across an evaluation. Readers clone the
//! `Arc` out and evaluate lock-free. A write mutates the resident engine
//! and drops the published snapshot; the next read takes a new one
//! ([`Engine::snapshot`], `Arc` bumps only), leaving in-flight queries on
//! the old snapshot (they finish against a consistent view and simply
//! miss the new facts — snapshot isolation). Keeping the write engine
//! apart from the snapshot keeps its delta index: a reader holding a
//! snapshot during a write never makes the write lose or copy it.
//!
//! The session keeps no derived state of its own. The fixpoints of the
//! `ones` and `unit:<w>` valuations are cached by the engine
//! ([`Engine::answer_uniform`]), shared with its snapshots and repaired
//! by its writes; a new engine starts with an empty cache, so a reader of
//! a replaced engine can only ever feed that engine's cache.
//!
//! One write path: `LOAD FACTS`, `INSERT` and `RETRACT` each make one
//! [`Engine::insert_facts`] / [`Engine::retract_facts`] call on the
//! resident engine. The engine's database is the session's only copy of
//! its facts. `LOAD PROGRAM` builds a new engine over the old engine's
//! live facts without grounding (and rejects, keeping the old state, a
//! program that fails to parse, validate or take those facts). `LOAD
//! FACTS` publishes a snapshot after its write: on a fresh engine that
//! grounds once, on a grounded one the write has already extended the
//! grounding in place. Every subsequent `QUERY`/`BATCH` — whatever mix of
//! semirings — reuses that grounding. The session's [`PipelineMetrics`]
//! stream survives program reloads (it is handed to each new engine via
//! [`EngineBuilder::metrics_collector`]), so `METRICS` reports
//! cumulative grounding counts a client can assert on.
//!
//! [`EngineBuilder::metrics_collector`]: provcirc::EngineBuilder::metrics_collector

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use provcirc::{DeltaOutcome, Engine};
use provcirc_error::Error;
use semiring::valuation::PerFact;
use semiring::{Bool, Bottleneck, Counting, Fuzzy, Tropical};
use telemetry::{Counter, PipelineMetrics, Recorder, Stage};

use crate::protocol::{ErrCode, QuerySpec, WireError, WireSemiring, WireValuation, WireValue};

/// Map an engine [`Error`] onto a wire error with the right code.
fn engine_err(e: &Error) -> WireError {
    let code = match e {
        Error::UnknownPredicate(_) | Error::BadQuery(_) => ErrCode::Query,
        Error::Diverged { .. } => ErrCode::Eval,
        _ => ErrCode::Parse,
    };
    WireError::new(code, e.to_string())
}

/// One open serving session. Cheap to share (`Arc`); all mutation goes
/// through the internal state mutex, all evaluation through snapshots.
pub struct Session {
    id: u64,
    metrics: Arc<PipelineMetrics>,
    eval_threads: usize,
    last_used: Mutex<Instant>,
    state: Mutex<SessionState>,
}

#[derive(Default)]
struct SessionState {
    /// The resident write engine, built by `LOAD PROGRAM`; `None` until a
    /// program is loaded. Every write goes through it
    /// ([`Engine::insert_facts`]/[`Engine::retract_facts`]), so its
    /// database holds the session's facts and its delta index is kept
    /// across writes.
    engine: Option<Engine>,
    /// The snapshot readers share, taken from `engine` on the first read
    /// after each change; `None` while stale.
    snapshot: Option<Arc<Engine>>,
}

impl SessionState {
    /// The current snapshot, taken from the resident engine on the first
    /// read after a program load or a write (forcing its grounding).
    fn snapshot(&mut self) -> Result<Arc<Engine>, WireError> {
        if let Some(snap) = &self.snapshot {
            return Ok(Arc::clone(snap));
        }
        let engine = self.engine.as_ref().ok_or_else(no_program)?;
        let snap = Arc::new(engine.snapshot().map_err(|e| engine_err(&e))?);
        self.snapshot = Some(Arc::clone(&snap));
        Ok(snap)
    }

    /// The one write path behind `LOAD FACTS`, `INSERT` and `RETRACT`:
    /// one [`Engine::insert_facts`] / [`Engine::retract_facts`] call on
    /// the resident engine, which checks the whole batch before it
    /// changes anything and repairs its cached fixpoints.
    fn write(
        &mut self,
        facts: &[(&str, &[&str])],
        insert: bool,
    ) -> Result<DeltaOutcome, WireError> {
        let engine = self.engine.as_mut().ok_or_else(no_program)?;
        // Release the session's own hold on the current snapshot: the
        // engine's copy-on-write then clones the grounding and database
        // only while a reader still holds them, not on every write. The
        // next read snapshots the engine again; in-flight readers finish
        // on the Arc they cloned.
        self.snapshot = None;
        if insert {
            engine.insert_facts(facts)
        } else {
            engine.retract_facts(facts)
        }
        .map_err(|e| engine_err(&e))
    }
}

/// The error of a command that needs a loaded program.
fn no_program() -> WireError {
    WireError::new(ErrCode::NoProgram, "no program loaded in this session")
}

impl Session {
    fn new(id: u64, eval_threads: usize) -> Self {
        Session {
            id,
            // Always-on telemetry: METRICS is part of the protocol, so a
            // session collects spans/counters unconditionally.
            metrics: Arc::new(PipelineMetrics::new(true)),
            eval_threads,
            last_used: Mutex::new(Instant::now()),
            state: Mutex::default(),
        }
    }

    /// The session id handed to the client.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mark the session as used now (for TTL-based eviction).
    pub fn touch(&self) {
        *self.last_used.lock().expect("last_used poisoned") = Instant::now();
    }

    /// How long since the session was last touched.
    pub fn idle_for(&self) -> Duration {
        self.last_used.lock().expect("last_used poisoned").elapsed()
    }

    /// The session's cumulative telemetry stream (survives program
    /// reloads).
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.metrics
    }

    fn state(&self) -> MutexGuard<'_, SessionState> {
        self.state.lock().expect("session state poisoned")
    }

    /// Replace the program: build its engine over the resident engine's
    /// live facts, in [`FactId`](datalog::FactId) order (parse, validate,
    /// resolve each fact by predicate name — no grounding; the next read
    /// grounds). Returns the rule count. A program that fails to parse,
    /// to validate, or to take those facts is an error that keeps the old
    /// program, engine and snapshot. The new engine starts at epoch 0
    /// with an empty fixpoint cache of its own.
    pub fn load_program(&self, text: &str) -> Result<usize, WireError> {
        self.touch();
        let mut st = self.state();
        let mut builder = Engine::builder()
            .program_text(text)
            .parallelism(self.eval_threads)
            .metrics_collector(Arc::clone(&self.metrics));
        if let Some(old) = &st.engine {
            let db = old.database();
            for id in db.all_facts().filter(|&id| db.is_live(id)) {
                let (pred, tuple) = db.fact(id);
                let consts: Vec<&str> = tuple.iter().map(|&c| db.consts.name(c)).collect();
                builder = builder.fact(old.program().preds.name(pred), &consts);
            }
        }
        let engine = builder.build().map_err(|e| engine_err(&e))?;
        let rules = engine.program().rules.len();
        *st = SessionState {
            engine: Some(engine),
            snapshot: None,
        };
        Ok(rules)
    }

    /// Insert a batch of facts (`(pred, constants)` tuples) through the
    /// session's one write path, then publish a snapshot of the result:
    /// on a fresh engine that grounds once; on a grounded one the write
    /// extended the grounding in place and repaired the cached fixpoints.
    /// All-or-nothing: a batch with any bad fact changes nothing.
    /// Concurrent readers keep the old snapshot until they next ask for
    /// one. Returns the number of facts in the batch.
    pub fn load_facts(&self, facts: Vec<(String, Vec<String>)>) -> Result<usize, WireError> {
        self.touch();
        let tuples: Vec<Vec<&str>> = facts
            .iter()
            .map(|(_, args)| args.iter().map(String::as_str).collect())
            .collect();
        let batch: Vec<(&str, &[&str])> = facts
            .iter()
            .zip(&tuples)
            .map(|((pred, _), tuple)| (pred.as_str(), tuple.as_slice()))
            .collect();
        let mut st = self.state();
        st.write(&batch, true)?;
        st.snapshot()?;
        Ok(facts.len())
    }

    /// Incrementally insert one EDB fact: the resident engine maintains
    /// its cached grounding in place (no re-grounding, no engine rebuild)
    /// and the next read snapshots it. Returns `(facts actually inserted,
    /// write epoch)` — 0 facts for a duplicate.
    pub fn insert(&self, pred: &str, args: &[String]) -> Result<(usize, u64), WireError> {
        self.write_one(pred, args, true)
    }

    /// Incrementally retract one EDB fact — the mirror of
    /// [`insert`](Session::insert); grounded rules citing the fact are
    /// retired in place. Retracting an absent (or derived) fact is an
    /// error.
    pub fn retract(&self, pred: &str, args: &[String]) -> Result<(usize, u64), WireError> {
        self.write_one(pred, args, false)
    }

    fn write_one(
        &self,
        pred: &str,
        args: &[String],
        insert: bool,
    ) -> Result<(usize, u64), WireError> {
        self.touch();
        let tuple: Vec<&str> = args.iter().map(String::as_str).collect();
        let outcome = self.state().write(&[(pred, &tuple)], insert)?;
        Ok((outcome.facts.len(), outcome.epoch))
    }

    /// The current snapshot, taken from the resident engine on the first
    /// read after a program load or a write (forcing its grounding).
    pub fn snapshot(&self) -> Result<Arc<Engine>, WireError> {
        self.state().snapshot()
    }

    /// Evaluate one `QUERY`, bumping the serve counters and attributing
    /// wall-clock to [`Stage::Serve`].
    pub fn query(&self, spec: &QuerySpec) -> Result<String, WireError> {
        self.touch();
        let snap = self.snapshot()?;
        self.metrics.counter(Counter::QueriesServed, 1);
        telemetry::time(&*self.metrics, Stage::Serve, || {
            eval_group(&snap, &[(0, spec)])
                .pop()
                .expect("one goal in, one result out")
                .1
        })
    }

    /// Evaluate a `BATCH` against **one** snapshot: items are grouped by
    /// `(semiring, valuation, pipeline)` and each group runs a single
    /// fixpoint over the shared frozen grounding, so N queries cost one
    /// grounding and at most `#groups` fixpoints (the paper's
    /// compile-once/eval-many pitch as a wire command). Results come back
    /// in item order; per-item failures don't fail the batch.
    pub fn batch(&self, specs: &[QuerySpec]) -> Result<Vec<Result<String, WireError>>, WireError> {
        self.touch();
        let snap = self.snapshot()?;
        self.metrics.counter(Counter::BatchesServed, 1);
        self.metrics
            .counter(Counter::BatchQueries, specs.len() as u64);
        Ok(telemetry::time(&*self.metrics, Stage::Serve, || {
            // One group per (semiring, valuation, pipeline): its goals
            // with their original positions.
            let mut groups: Vec<Vec<(usize, &QuerySpec)>> = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                match groups.iter_mut().find(|goals| same_group(goals[0].1, spec)) {
                    Some(goals) => goals.push((i, spec)),
                    None => groups.push(vec![(i, spec)]),
                }
            }
            let mut out: Vec<Option<Result<String, WireError>>> = vec![None; specs.len()];
            for goals in groups {
                for (i, res) in eval_group(&snap, &goals) {
                    out[i] = Some(res);
                }
            }
            out.into_iter()
                .map(|r| r.expect("every batch item answered by its group"))
                .collect()
        }))
    }
}

/// Whether two queries share a batch group: the same semiring, valuation
/// and pipeline.
fn same_group(a: &QuerySpec, b: &QuerySpec) -> bool {
    a.semiring == b.semiring && a.valuation == b.valuation && a.pipeline == b.pipeline
}

/// Evaluate one batch group — goals sharing the semiring, valuation and
/// pipeline of its first goal — against a snapshot: pick the typed
/// semiring, then answer through [`eval_typed`]. Returns `(original
/// index, per-goal result)` pairs.
fn eval_group(
    snap: &Engine,
    goals: &[(usize, &QuerySpec)],
) -> Vec<(usize, Result<String, WireError>)> {
    let Some(&(_, head)) = goals.first() else {
        return Vec::new();
    };
    match head.semiring {
        WireSemiring::Bool => eval_typed::<Bool>(snap, head, goals),
        WireSemiring::Tropical => eval_typed::<Tropical>(snap, head, goals),
        WireSemiring::Counting => eval_typed::<Counting>(snap, head, goals),
        WireSemiring::Fuzzy => eval_typed::<Fuzzy>(snap, head, goals),
        WireSemiring::Bottleneck => eval_typed::<Bottleneck>(snap, head, goals),
    }
}

/// The typed read path: resolve each goal (a goal that fails to resolve
/// fails alone) and answer the rest through the snapshot's one evaluator
/// under the group's valuation, or fail every goal with its error.
fn eval_typed<S: WireValue>(
    snap: &Engine,
    head: &QuerySpec,
    goals: &[(usize, &QuerySpec)],
) -> Vec<(usize, Result<String, WireError>)> {
    let mut out = Vec::with_capacity(goals.len());
    let mut resolved = Vec::with_capacity(goals.len());
    let mut positions = Vec::with_capacity(goals.len());
    for (i, q) in goals {
        match snap.resolve(&q.pred, &q.args) {
            Ok(goal) => {
                resolved.push(goal);
                positions.push(*i);
            }
            Err(e) => out.push((*i, Err(engine_err(&e)))),
        }
    }
    let answers = match answer::<S>(snap, head, &resolved) {
        Ok(answers) => answers,
        Err(e) => return goals.iter().map(|(i, _)| (*i, Err(e.clone()))).collect(),
    };
    out.extend(positions.into_iter().zip(answers).map(|(i, answer)| {
        let rendered = answer.map(|v| v.render()).map_err(|e| engine_err(&e));
        (i, rendered)
    }));
    out
}

/// Answer a group's resolved goals under its valuation. `ones` (the
/// weight 1) and `unit:<w>` weigh every fact alike, which the engine
/// caches ([`Engine::answer_uniform`]); `perfact` is the `WEIGHT` lines
/// over a default of 1, as one [`PerFact`] map. Each `WEIGHT` line must
/// name an EDB fact of the frozen database — a typo must not silently
/// weigh nothing — and every weight passes the semiring's range check.
fn answer<S: WireValue>(
    snap: &Engine,
    head: &QuerySpec,
    goals: &[provcirc::Goal],
) -> Result<Vec<Result<S, Error>>, WireError> {
    let weights = match &head.valuation {
        WireValuation::Ones => return Ok(snap.answer_uniform(head.pipeline, S::one(), goals)),
        WireValuation::Unit(w) => {
            return Ok(snap.answer_uniform(head.pipeline, S::parse_weight(*w)?, goals))
        }
        WireValuation::PerFact(weights) => weights,
    };
    let mut assign = PerFact::new();
    for w in weights {
        let fact = snap
            .resolve(&w.pred, &w.args)
            .ok()
            .and_then(|g| snap.database().fact_id(g.pred, g.consts.as_deref()?))
            .ok_or_else(|| {
                WireError::new(
                    ErrCode::Valuation,
                    format!(
                        "WEIGHT names unknown EDB fact {} {}",
                        w.pred,
                        w.args.join(" ")
                    ),
                )
            })?;
        assign.insert(fact, S::parse_weight(w.weight)?);
    }
    Ok(snap.answer(head.pipeline, &assign, goals))
}

/// The server-wide session table: id allocation, open/attach/close, and
/// the sessions-opened/closed counters.
pub struct Registry {
    next_id: AtomicU64,
    eval_threads: usize,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Connections the accept loop rejected with `ERR BUSY` because the
    /// pending queue was full — server-wide, surfaced into every
    /// session's `METRICS` report as `overload_rejections`.
    overloads: AtomicU64,
}

impl Registry {
    /// An empty registry whose sessions ground with `eval_threads`
    /// threads (serving layers usually want 1: concurrency comes from the
    /// worker pool, not from sharding a single query).
    pub fn new(eval_threads: usize) -> Self {
        Registry {
            next_id: AtomicU64::new(1),
            eval_threads: eval_threads.max(1),
            sessions: Mutex::new(HashMap::new()),
            overloads: AtomicU64::new(0),
        }
    }

    /// Record one `ERR BUSY` admission reject (called by the accept loop).
    pub fn note_overload_rejection(&self) {
        self.overloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections rejected with `ERR BUSY` since the server started.
    pub fn overload_rejections(&self) -> u64 {
        self.overloads.load(Ordering::Relaxed)
    }

    /// Open a fresh session.
    pub fn open(&self) -> Arc<Session> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(id, self.eval_threads));
        session.metrics.counter(Counter::SessionsOpened, 1);
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .insert(id, Arc::clone(&session));
        session
    }

    /// Attach to an existing session by id (shared state: two connections
    /// attached to one session see the same snapshots and metrics).
    pub fn attach(&self, id: u64) -> Result<Arc<Session>, WireError> {
        let session = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .get(&id)
            .cloned()
            .ok_or_else(|| WireError::new(ErrCode::BadSession, format!("no session {id}")))?;
        session.touch();
        Ok(session)
    }

    /// Drop every session idle for longer than `ttl`, returning how many
    /// were evicted. Connections still holding an evicted session's `Arc`
    /// can finish in-flight work (and will see the `sessions_evicted`
    /// counter in their `METRICS` stream); new attaches fail. Swept
    /// periodically by the accept loop when `--session-ttl` is set.
    pub fn evict_idle(&self, ttl: Duration) -> usize {
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        let stale: Vec<u64> = sessions
            .iter()
            .filter(|(_, s)| s.idle_for() > ttl)
            .map(|(id, _)| *id)
            .collect();
        for id in &stale {
            if let Some(s) = sessions.remove(id) {
                s.metrics.counter(Counter::SessionsEvicted, 1);
            }
        }
        stale.len()
    }

    /// Close (drop) a session. Connections still holding the `Arc` can
    /// finish in-flight work; new attaches fail.
    pub fn close(&self, id: u64) -> Result<(), WireError> {
        let removed = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .remove(&id);
        match removed {
            Some(s) => {
                s.metrics.counter(Counter::SessionsClosed, 1);
                Ok(())
            }
            None => Err(WireError::new(
                ErrCode::BadSession,
                format!("no session {id}"),
            )),
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_command, Command, WireWeight};
    use datalog::GroundedProgram;
    use telemetry::Stage;

    const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";

    fn path_facts(n: usize) -> Vec<(String, Vec<String>)> {
        (0..n)
            .map(|i| ("E".to_owned(), vec![format!("v{i}"), format!("v{}", i + 1)]))
            .collect()
    }

    fn spec(line: &str) -> QuerySpec {
        match parse_command(&format!("QUERY {line}")).unwrap() {
            Command::Query(q) => q,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn session_lifecycle_grounds_exactly_once() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(4)).unwrap();
        let results = session
            .batch(&[
                spec("T v0 v4 SEMIRING bool"),
                spec("T v0 v4 SEMIRING tropical VALUATION unit:1"),
                spec("T v0 v4 SEMIRING counting"),
            ])
            .unwrap();
        let values: Vec<String> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec!["true", "4", "1"]);
        // One LOAD FACTS, one grounding — the three semirings shared it.
        assert_eq!(
            session
                .metrics()
                .cache_count(telemetry::CacheEvent::Grounding),
            1
        );
        assert_eq!(session.metrics().counter_value(Counter::BatchQueries), 3);
    }

    #[test]
    fn pipelines_agree_on_the_wire() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(5)).unwrap();
        // Same goal down both pipelines, mixed into one batch: the
        // rendered answers must be byte-identical.
        for goal in ["T v0 v5", "T v2 v4", "T v4 v1", "T v0 nowhere"] {
            for sem in ["bool", "tropical VALUATION unit:1", "counting"] {
                let results = session
                    .batch(&[
                        spec(&format!("{goal} SEMIRING {sem}")),
                        spec(&format!("{goal} SEMIRING {sem} PIPELINE magic")),
                    ])
                    .unwrap();
                let values: Vec<String> = results.into_iter().map(|r| r.unwrap()).collect();
                assert_eq!(values[0], values[1], "magic disagrees on {goal} / {sem}");
            }
        }
        // Errors keep their codes on both pipelines.
        for pipe in ["materialized", "magic"] {
            let err = session
                .query(&spec(&format!("Nope v0 SEMIRING bool PIPELINE {pipe}")))
                .unwrap_err();
            assert_eq!(err.code, ErrCode::Query, "pipeline {pipe}");
        }
    }

    #[test]
    fn divergence_has_one_wire_text_on_every_pipeline() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        // Counting on a 2-cycle: infinitely many walks, so T(v0,v1)
        // diverges on every pipeline (the magic cone holds the cycle).
        session
            .load_facts(vec![
                ("E".into(), vec!["v0".into(), "v1".into()]),
                ("E".into(), vec!["v1".into(), "v0".into()]),
            ])
            .unwrap();
        let diverged = |e: &WireError| {
            e.render()
                .starts_with("ERR EVAL fixpoint evaluation did not converge within")
        };
        for pipe in ["materialized", "magic"] {
            let goal = spec(&format!("T v0 v1 SEMIRING counting PIPELINE {pipe}"));
            let err = session.query(&goal).unwrap_err();
            assert!(diverged(&err), "{pipe} QUERY: {}", err.render());
            let absent = spec(&format!("T v0 nowhere SEMIRING counting PIPELINE {pipe}"));
            let rows = session.batch(&[goal, absent]).unwrap();
            assert!(
                rows[0].as_ref().is_err_and(diverged),
                "{pipe} BATCH: {:?}",
                rows[0]
            );
            assert_eq!(rows[1].as_ref().unwrap(), "0", "{pipe} out-of-domain goal");
        }
    }

    #[test]
    fn magic_pipeline_falls_back_when_ineligible() {
        let reg = Registry::new(1);
        let session = reg.open();
        // A non-linear (quadratic) TC program: the magic rewrite declines,
        // so PIPELINE magic must transparently serve the materialized
        // answer instead of erroring.
        session
            .load_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).")
            .unwrap();
        session.load_facts(path_facts(4)).unwrap();
        assert_eq!(
            session
                .query(&spec("T v0 v4 SEMIRING bool PIPELINE magic"))
                .unwrap(),
            "true"
        );
        assert_eq!(
            session
                .query(&spec(
                    "T v0 v4 SEMIRING tropical VALUATION unit:1 PIPELINE magic"
                ))
                .unwrap(),
            "4"
        );
    }

    #[test]
    fn load_facts_without_program_is_an_error() {
        let reg = Registry::new(1);
        let session = reg.open();
        let err = session.load_facts(path_facts(1)).unwrap_err();
        assert_eq!(err.code, ErrCode::NoProgram);
    }

    #[test]
    fn incremental_fact_loads_extend_the_grounding() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(2)).unwrap();
        assert_eq!(
            session.query(&spec("T v0 v3 SEMIRING bool")).unwrap(),
            "false"
        );
        session
            .load_facts(vec![("E".into(), vec!["v2".into(), "v3".into()])])
            .unwrap();
        assert_eq!(
            session.query(&spec("T v0 v3 SEMIRING bool")).unwrap(),
            "true"
        );
        // The second load extended the first load's grounding in place,
        // and queries added none.
        assert_eq!(
            session
                .metrics()
                .cache_count(telemetry::CacheEvent::Grounding),
            1
        );
    }

    #[test]
    fn batch_mixes_results_and_errors_in_order() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        let results = session
            .batch(&[
                spec("T v0 v2 SEMIRING tropical VALUATION unit:1"),
                spec("Nope v0 SEMIRING bool"),
                spec("T v0 nowhere SEMIRING tropical VALUATION unit:1"),
            ])
            .unwrap();
        assert_eq!(results[0].as_ref().unwrap(), "2");
        assert_eq!(results[1].as_ref().unwrap_err().code, ErrCode::Query);
        // Out-of-domain constant: underivable ⇒ semiring zero, not error.
        assert_eq!(results[2].as_ref().unwrap(), "inf");
    }

    #[test]
    fn insert_and_retract_maintain_the_grounding_without_regrounding() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        assert_eq!(
            session
                .metrics()
                .cache_count(telemetry::CacheEvent::Grounding),
            1
        );

        // Incremental insert: the answer changes, the grounding count
        // does not.
        let (n, epoch) = session
            .insert("E", &["v3".to_owned(), "v4".to_owned()])
            .unwrap();
        assert_eq!((n, epoch), (1, 2));
        assert_eq!(
            session.query(&spec("T v0 v4 SEMIRING bool")).unwrap(),
            "true"
        );
        // Duplicate insert: no-op, epoch unchanged.
        let (n, epoch) = session
            .insert("E", &["v3".to_owned(), "v4".to_owned()])
            .unwrap();
        assert_eq!((n, epoch), (0, 2));

        // Incremental retract severs the path.
        let (n, epoch) = session
            .retract("E", &["v1".to_owned(), "v2".to_owned()])
            .unwrap();
        assert_eq!((n, epoch), (1, 3));
        assert_eq!(
            session.query(&spec("T v0 v4 SEMIRING bool")).unwrap(),
            "false"
        );
        assert_eq!(
            session.query(&spec("T v2 v4 SEMIRING bool")).unwrap(),
            "true"
        );

        // Still exactly one grounding: both writes extended/retired the
        // cached one in place.
        assert_eq!(
            session
                .metrics()
                .cache_count(telemetry::CacheEvent::Grounding),
            1
        );
        // Three incremental applications: the insert and retract each
        // maintained the engine's grounding in place, and the retract
        // additionally repaired the bool fixpoint cached by the first
        // query (the insert preceded any cached read).
        assert_eq!(
            session.metrics().counter_value(Counter::IncrementalApplied),
            3
        );
        assert_eq!(
            session
                .metrics()
                .counter_value(Counter::IncrementalFallbacks),
            0
        );

        // Retracting what is no longer there is a query error.
        let err = session
            .retract("E", &["v1".to_owned(), "v2".to_owned()])
            .unwrap_err();
        assert_eq!(err.code, ErrCode::Query);
    }

    #[test]
    fn retracted_duplicate_fact_stays_gone_after_rebuilds() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        let mut facts = path_facts(2);
        facts.push(facts[0].clone());
        session.load_facts(facts).unwrap();
        session.retract("E", &args("v0", "v1")).unwrap();
        let t01 = || session.query(&spec("T v0 v1 SEMIRING bool")).unwrap();
        assert_eq!(t01(), "false");
        // A later LOAD FACTS batch leaves it retracted.
        session
            .load_facts(vec![("E".to_owned(), args("v5", "v6").to_vec())])
            .unwrap();
        assert_eq!(t01(), "false");
        // So does a LOAD PROGRAM, which rebuilds over the live facts.
        session.load_program(TC).unwrap();
        assert_eq!(t01(), "false");
        assert_eq!(
            session.query(&spec("T v1 v2 SEMIRING bool")).unwrap(),
            "true"
        );
    }

    #[test]
    fn load_program_rejects_an_invalid_program_and_keeps_the_old_one() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(2)).unwrap();
        let err = session.load_program("T(X,Y) :- E(X,Z).").unwrap_err();
        assert_eq!(err.code, ErrCode::Parse);
        assert!(
            err.render().ends_with("unsafe head variable Y"),
            "{}",
            err.render()
        );
        // The old program keeps serving reads and bulk loads.
        let t = |goal: &str| session.query(&spec(&format!("{goal} SEMIRING bool")));
        assert_eq!(t("T v0 v2").unwrap(), "true");
        session.load_facts(path_facts(3)).unwrap();
        assert_eq!(t("T v0 v3").unwrap(), "true");
        // A valid reload grounds once, on the next read, from the
        // resident engine it built; the bulk load before it extended the
        // first grounding.
        session.load_program(TC).unwrap();
        assert_eq!(t("T v1 v3").unwrap(), "true");
        assert_eq!(t("T v3 v1").unwrap(), "false");
        let groundings = session
            .metrics()
            .cache_count(telemetry::CacheEvent::Grounding);
        assert_eq!(groundings, 2);
    }

    #[test]
    fn load_program_that_cannot_take_the_stored_facts_is_rejected() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(1)).unwrap();
        let err = session.load_program("P(X) :- A(X).").unwrap_err();
        assert_eq!(err.code, ErrCode::Query);
        assert!(
            err.render().contains("unknown predicate 'E'"),
            "{}",
            err.render()
        );
        // Reads, bulk loads and writes still go to the old program.
        let t = |goal: &str| session.query(&spec(&format!("{goal} SEMIRING bool")));
        assert_eq!(t("T v0 v1").unwrap(), "true");
        session.insert("E", &args("v1", "v2")).unwrap();
        assert_eq!(t("T v0 v2").unwrap(), "true");
        session
            .load_facts(vec![("E".to_owned(), args("v2", "v3").to_vec())])
            .unwrap();
        assert_eq!(t("T v0 v3").unwrap(), "true");
    }

    #[test]
    fn load_facts_rejects_idb_facts_all_or_nothing() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        let mut facts = path_facts(1);
        facts.push(("T".to_owned(), args("v1", "v2").to_vec()));
        facts.push(("E".to_owned(), args("v2", "v3").to_vec()));
        let err = session.load_facts(facts).unwrap_err();
        assert_eq!(err.code, ErrCode::Query);
        assert!(
            err.render().contains("T is an IDB predicate"),
            "{}",
            err.render()
        );
        // Nothing of the batch was loaded.
        let t = |goal: &str| session.query(&spec(&format!("{goal} SEMIRING bool")));
        assert_eq!(t("T v0 v1").unwrap(), "false");
        assert_eq!(t("T v2 v3").unwrap(), "false");
    }

    fn args(a: &str, b: &str) -> [String; 2] {
        [a.to_owned(), b.to_owned()]
    }

    /// Address of the grounding behind the session's current snapshot
    /// (the snapshot handle is dropped before returning).
    fn grounding_addr(session: &Session) -> usize {
        session.snapshot().unwrap().grounding().unwrap() as *const GroundedProgram as usize
    }

    /// Answer `line` against `snap` through the session's read path.
    fn read(snap: &Engine, line: &str) -> String {
        let q = spec(line);
        let mut out = eval_group(snap, &[(0, &q)]);
        out.pop().unwrap().1.unwrap()
    }

    #[test]
    fn writes_without_live_readers_keep_the_grounding_in_place() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        let before = grounding_addr(&session);
        // No reader holds a snapshot: both writes mutate the one
        // grounding in place instead of copying it.
        session.insert("E", &args("v3", "v4")).unwrap();
        assert_eq!(grounding_addr(&session), before);
        session.retract("E", &args("v1", "v2")).unwrap();
        assert_eq!(grounding_addr(&session), before);
        // A reader holding the snapshot across a write forces one copy.
        let held = session.snapshot().unwrap();
        session.insert("E", &args("v1", "v2")).unwrap();
        assert_ne!(grounding_addr(&session), before);
        assert_eq!(
            held.grounding().unwrap() as *const GroundedProgram as usize,
            before
        );
    }

    #[test]
    fn readers_on_an_old_snapshot_keep_the_old_answers() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        let q = "T v0 v3 SEMIRING tropical VALUATION unit:1";
        assert_eq!(session.query(&spec(q)).unwrap(), "3");
        let old = session.snapshot().unwrap();
        session.retract("E", &args("v1", "v2")).unwrap();
        assert_eq!(session.query(&spec(q)).unwrap(), "inf");
        session.insert("E", &args("v0", "v3")).unwrap();
        assert_eq!(session.query(&spec(q)).unwrap(), "1");
        // The old snapshot answers from its own generation — neither the
        // writes nor the repaired cache entry (a newer epoch) reach it.
        assert_eq!(old.epoch(), 1);
        assert_eq!(read(&old, q), "3");
        assert_eq!(read(&old, "T v0 v3 SEMIRING bool"), "true");
        assert_eq!(read(&old, "T v1 v3 SEMIRING bool"), "true");
        // ...and its fixpoint did not clobber the current entry.
        assert_eq!(session.query(&spec(q)).unwrap(), "1");
        assert_eq!(
            session.query(&spec("T v1 v3 SEMIRING bool")).unwrap(),
            "false"
        );
    }

    #[test]
    fn failed_and_no_op_writes_keep_the_resident_engine() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        let q = spec("T v0 v3 SEMIRING bool");
        assert_eq!(session.query(&q).unwrap(), "true");
        let failures = [
            session.insert("Nope", &args("v0", "v1")).unwrap_err(),
            session.insert("T", &args("v0", "v1")).unwrap_err(),
            session.insert("E", &["v0".to_owned()]).unwrap_err(),
            session.retract("E", &args("v3", "v0")).unwrap_err(),
            session.retract("Nope", &args("v0", "v1")).unwrap_err(),
        ];
        for e in failures {
            assert_eq!(e.code, ErrCode::Query, "{e:?}");
        }
        // A duplicate insert changes nothing either.
        assert_eq!(session.insert("E", &args("v0", "v1")).unwrap(), (0, 1));
        // The next read snapshots the resident engine: it neither
        // rebuilds nor re-grounds it.
        assert_eq!(session.query(&q).unwrap(), "true");
        let groundings = session
            .metrics()
            .cache_count(telemetry::CacheEvent::Grounding);
        assert_eq!(groundings, 1);
        // And the engine still takes incremental writes.
        assert_eq!(session.insert("E", &args("v3", "v0")).unwrap(), (1, 2));
        assert_eq!(
            session.query(&spec("T v3 v3 SEMIRING bool")).unwrap(),
            "true"
        );
    }

    #[test]
    fn cached_fixpoints_are_repaired_not_invalidated() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        // Path v0 -> v1 -> v2 -> v3.
        session.load_facts(path_facts(3)).unwrap();

        // Prime the cache: one tropical and one counting fixpoint.
        assert_eq!(
            session
                .query(&spec("T v0 v3 SEMIRING tropical VALUATION unit:1"))
                .unwrap(),
            "3"
        );
        assert_eq!(
            session.query(&spec("T v0 v3 SEMIRING counting")).unwrap(),
            "1"
        );
        let evals_after_priming = session.metrics().stage_calls(telemetry::Stage::Eval);

        // Insert a shortcut edge: the write repairs both cached
        // fixpoints in place. Tropical (⊕ = min, idempotent) takes the
        // worklist seeded by the appended rules; counting (⊕ = +)
        // re-derives the cone of their heads by naive rounds — either way
        // the entry survives and keeps serving.
        session
            .insert("E", &["v0".to_owned(), "v2".to_owned()])
            .unwrap();
        assert_eq!(
            session
                .query(&spec("T v0 v3 SEMIRING tropical VALUATION unit:1"))
                .unwrap(),
            "2"
        );
        assert_eq!(
            session.query(&spec("T v0 v3 SEMIRING counting")).unwrap(),
            "2"
        );

        // Retract the bypassed first edge: exact incremental repair on
        // both entries.
        session
            .retract("E", &["v0".to_owned(), "v1".to_owned()])
            .unwrap();
        assert_eq!(
            session
                .query(&spec("T v0 v3 SEMIRING tropical VALUATION unit:1"))
                .unwrap(),
            "2"
        );
        assert_eq!(
            session.query(&spec("T v0 v3 SEMIRING counting")).unwrap(),
            "1"
        );

        // Every post-write read was answered from a repaired entry: no
        // further full fixpoint ran, and the grounding was maintained in
        // place rather than recomputed.
        assert_eq!(
            session.metrics().stage_calls(telemetry::Stage::Eval),
            evals_after_priming
        );
        assert_eq!(
            session
                .metrics()
                .cache_count(telemetry::CacheEvent::Grounding),
            1
        );
        // Each write: engine grounding + both repairs.
        assert_eq!(
            session.metrics().counter_value(Counter::IncrementalApplied),
            6
        );
        assert_eq!(
            session
                .metrics()
                .counter_value(Counter::IncrementalFallbacks),
            0
        );
    }

    /// Load `program` and `facts` into a fresh session and answer `line`.
    fn fresh_answer(program: &str, facts: Vec<(String, Vec<String>)>, line: &str) -> String {
        let session = Registry::new(1).open();
        session.load_program(program).unwrap();
        session.load_facts(facts).unwrap();
        session.query(&spec(line)).unwrap()
    }

    fn edges(pairs: &[(usize, usize)]) -> Vec<(String, Vec<String>)> {
        pairs
            .iter()
            .map(|&(a, b)| {
                (
                    "E".to_owned(),
                    args(&format!("v{a}"), &format!("v{b}")).to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn load_facts_onto_cached_fixpoints_repairs_them() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        // A DAG with several paths per pair, so counting is finite and
        // more than 0/1. Every queried constant is in the domain, so
        // every read below caches its fixpoint.
        let mut base = vec![(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (4, 5)];
        session.load_facts(edges(&base)).unwrap();
        // The first goal of each semiring is derivable from the start, so
        // the first read runs and caches all three fixpoints.
        let lines = [
            "T v0 v3 SEMIRING bool",
            "T v0 v3 SEMIRING tropical VALUATION unit:1",
            "T v0 v3 SEMIRING counting",
            "T v0 v5 SEMIRING bool",
            "T v0 v5 SEMIRING tropical VALUATION unit:1",
            "T v0 v5 SEMIRING counting",
            "T v1 v4 SEMIRING counting",
        ];
        let answers = |s: &Session| -> Vec<String> {
            lines.iter().map(|l| s.query(&spec(l)).unwrap()).collect()
        };
        let fresh = |facts: &[(usize, usize)]| -> Vec<String> {
            lines
                .iter()
                .map(|l| fresh_answer(TC, edges(facts), l))
                .collect()
        };
        assert_eq!(answers(&session), fresh(&base));
        let metrics = session.metrics();
        let evals = metrics.stage_calls(Stage::Eval);
        let delta_grounds = metrics.stage_calls(Stage::DeltaGround);

        // A new batch onto the three cached fixpoints: the grounding is
        // extended and every entry repaired, so no fixpoint runs again.
        let batch = [(3, 4), (2, 4), (0, 4)];
        assert_eq!(session.load_facts(edges(&batch)).unwrap(), 3);
        base.extend(batch);
        assert_eq!(answers(&session), fresh(&base));
        assert!(metrics.stage_calls(Stage::DeltaGround) > delta_grounds);

        // A batch repeating an existing fact next to a new one.
        assert_eq!(session.load_facts(edges(&[(0, 1), (3, 5)])).unwrap(), 2);
        base.push((3, 5));
        assert_eq!(answers(&session), fresh(&base));

        // A batch that brings back a fact retracted earlier.
        session.retract("E", &args("v1", "v2")).unwrap();
        base.retain(|&e| e != (1, 2));
        assert_eq!(answers(&session), fresh(&base));
        session.load_facts(edges(&[(1, 2)])).unwrap();
        base.push((1, 2));
        assert_eq!(answers(&session), fresh(&base));

        assert_eq!(metrics.stage_calls(Stage::Eval), evals);
        assert_eq!(metrics.cache_count(telemetry::CacheEvent::Grounding), 1);
        assert_eq!(metrics.counter_value(Counter::IncrementalFallbacks), 0);
    }

    /// Load `old_program`, hold a reader's snapshot, replace the program
    /// by `new_program` and write until the new engine reaches the old
    /// snapshot's epoch; only then does the reader finish, caching its
    /// fixpoint. Returns the session's answer to `T v0 v3` and a fresh
    /// session's.
    fn reload_under_a_reader(old_program: &str, new_program: &str, sem: &str) -> (String, String) {
        let session = Registry::new(1).open();
        session.load_program(old_program).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        let old = session.snapshot().unwrap();
        session.load_program(new_program).unwrap();
        session.load_facts(edges(&[(7, 8)])).unwrap();
        assert_eq!(old.epoch(), session.snapshot().unwrap().epoch());
        read(&old, &format!("T v0 v1 SEMIRING {sem}"));
        let line = format!("T v0 v3 SEMIRING {sem}");
        let mut facts = path_facts(3);
        facts.extend(edges(&[(7, 8)]));
        (
            session.query(&spec(&line)).unwrap(),
            fresh_answer(new_program, facts, &line),
        )
    }

    #[test]
    fn a_reader_of_a_replaced_program_does_not_feed_the_new_cache() {
        // The new program counts each base derivation twice.
        let doubled = "T(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";
        let (got, want) = reload_under_a_reader(TC, doubled, "counting");
        assert_eq!(want, "2");
        assert_eq!(got, want);
    }

    #[test]
    fn a_reader_of_a_smaller_grounding_does_not_feed_the_new_cache() {
        // The old grounding has 3 IDB facts, the new one more: a value
        // vector of the old one must never be indexed by the new one's
        // facts.
        let (got, want) =
            reload_under_a_reader("T(X,Y) :- E(X,Y).", TC, "tropical VALUATION unit:1");
        assert_eq!(want, "3");
        assert_eq!(got, want);
    }

    #[test]
    fn perfact_valuation_weighs_individual_facts() {
        let reg = Registry::new(1);
        let session = reg.open();
        session.load_program(TC).unwrap();
        session.load_facts(path_facts(3)).unwrap();
        let mut q = spec("T v0 v3 SEMIRING tropical VALUATION perfact");
        // Unlisted facts default to the semiring's 1 — in tropical the
        // ⊗-identity is cost 0, so only the listed edges cost anything.
        q.valuation = WireValuation::PerFact(vec![
            WireWeight {
                pred: "E".to_owned(),
                args: vec!["v0".to_owned(), "v1".to_owned()],
                weight: 2.0,
            },
            WireWeight {
                pred: "E".to_owned(),
                args: vec!["v1".to_owned(), "v2".to_owned()],
                weight: 10.0,
            },
        ]);
        assert_eq!(session.query(&q).unwrap(), "12");

        // Unknown facts in WEIGHT lines are valuation errors, not silence.
        q.valuation = WireValuation::PerFact(vec![WireWeight {
            pred: "E".to_owned(),
            args: vec!["v0".to_owned(), "v9".to_owned()],
            weight: 10.0,
        }]);
        assert_eq!(session.query(&q).unwrap_err().code, ErrCode::Valuation);

        // Fuzzy rejects weights outside [0, 1].
        let mut f = spec("T v0 v3 SEMIRING fuzzy VALUATION perfact");
        f.valuation = WireValuation::PerFact(vec![WireWeight {
            pred: "E".to_owned(),
            args: vec!["v1".to_owned(), "v2".to_owned()],
            weight: 2.0,
        }]);
        assert_eq!(session.query(&f).unwrap_err().code, ErrCode::Valuation);
        let mut f = spec("T v0 v3 SEMIRING fuzzy VALUATION perfact");
        f.valuation = WireValuation::PerFact(vec![WireWeight {
            pred: "E".to_owned(),
            args: vec!["v1".to_owned(), "v2".to_owned()],
            weight: 0.5,
        }]);
        assert_eq!(session.query(&f).unwrap(), "0.5");
    }

    #[test]
    fn idle_sessions_are_evicted_and_counted() {
        let reg = Registry::new(1);
        let hot = reg.open();
        let cold = reg.open();
        hot.load_program(TC).unwrap();
        cold.load_program(TC).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        hot.touch();
        // Only `cold` has been idle longer than the TTL.
        assert_eq!(reg.evict_idle(Duration::from_millis(20)), 1);
        assert!(reg.attach(hot.id()).is_ok());
        assert!(reg.attach(cold.id()).is_err());
        assert_eq!(cold.metrics().counter_value(Counter::SessionsEvicted), 1);
        assert_eq!(hot.metrics().counter_value(Counter::SessionsEvicted), 0);
        // A connection still holding the Arc can finish in-flight work.
        assert!(cold.load_facts(path_facts(2)).is_ok());
    }

    #[test]
    fn registry_attach_and_close() {
        let reg = Registry::new(1);
        let s = reg.open();
        let same = reg.attach(s.id()).unwrap();
        assert_eq!(same.id(), s.id());
        reg.close(s.id()).unwrap();
        assert!(reg.attach(s.id()).is_err());
        assert_eq!(reg.close(s.id()).unwrap_err().code, ErrCode::BadSession);
        assert!(reg.is_empty());
    }
}
