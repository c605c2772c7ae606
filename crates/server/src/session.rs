//! Server sessions: engine state, snapshot lifecycle, and query/batch
//! evaluation against frozen snapshots.
//!
//! A [`Session`] owns the mutable serving state — program text, the
//! accumulated fact list, and the current [`EngineSnapshot`] — behind one
//! mutex that is held only for *state transitions* (load, swap, handle
//! clone), never across an evaluation. Readers clone the `Arc` out and
//! evaluate lock-free; `LOAD FACTS` rebuilds a fresh engine, pre-forces
//! its caches via [`Engine::snapshot`], and swaps the `Arc` in place,
//! leaving in-flight queries on the old snapshot (they finish against a
//! consistent view and simply miss the new facts — snapshot isolation).
//!
//! The grounds-once discipline the acceptance test pins down: `LOAD
//! PROGRAM` only validates and stores text (no grounding), `LOAD FACTS`
//! grounds exactly once while building the swap-in snapshot, and every
//! subsequent `QUERY`/`BATCH` — whatever mix of semirings — reuses that
//! frozen grounding. The session's [`PipelineMetrics`] stream survives
//! rebuilds (it is handed to each new engine via
//! [`EngineBuilder::metrics_collector`]), so `METRICS` reports cumulative
//! grounding counts a client can assert on.
//!
//! [`EngineBuilder::metrics_collector`]: provcirc::EngineBuilder::metrics_collector

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datalog::GroundedProgram;
use incremental::MaintainedFixpoint;
use provcirc::{DeltaOutcome, Engine, EngineSnapshot, FixpointCache};
use provcirc_error::Error;
use semiring::valuation::PerFact;
use semiring::{Bool, Bottleneck, Counting, Fuzzy, Semiring, Tropical};
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
    fix_cache: FixCache,
}

/// Cache key for one `(semiring, valuation)` fixpoint group: the wire
/// semiring plus the unit weight's bits (`None` = the `ones` valuation).
/// `perfact` valuations are never cached — their weight tables are
/// per-request.
type FixKey = (WireSemiring, Option<u64>);

/// The cacheable key of a group, or `None` when the valuation shape is
/// uncacheable (`perfact`).
fn fix_key(sem: WireSemiring, val: &WireValuation) -> Option<FixKey> {
    match val {
        WireValuation::Ones => Some((sem, None)),
        WireValuation::Unit(w) => Some((sem, Some(w.to_bits()))),
        WireValuation::PerFact(_) => None,
    }
}

/// A cached fixpoint behind type erasure: the concrete semiring lives
/// inside ([`TypedEntry`]); the write path repairs entries through this
/// object-safe surface without knowing their types.
trait AnyEntry: Send {
    /// Repair after an incremental write (`insert`: `extend_grounding`
    /// appended rules `delta.base_rules..`; otherwise a retract removed
    /// rules headed by `delta.roots`). Exact on every semiring; returns
    /// whether the repair drained within `budget`.
    fn repair(
        &mut self,
        gp: &GroundedProgram,
        delta: &DeltaOutcome,
        insert: bool,
        budget: usize,
        rec: &dyn Recorder,
    ) -> bool;
    /// Whether the entry's values are a converged fixpoint.
    fn converged(&self) -> bool;
    /// The write epoch the values correspond to.
    fn epoch(&self) -> u64;
    fn set_epoch(&mut self, epoch: u64);
    fn as_any(&self) -> &dyn Any;
}

struct TypedEntry<S: Semiring> {
    fix: MaintainedFixpoint<S>,
    assign: PerFact<S>,
    epoch: u64,
}

impl<S: Semiring> AnyEntry for TypedEntry<S> {
    fn repair(
        &mut self,
        gp: &GroundedProgram,
        delta: &DeltaOutcome,
        insert: bool,
        budget: usize,
        rec: &dyn Recorder,
    ) -> bool {
        if insert {
            self.fix
                .apply_insert(gp, &self.assign, delta.base_rules, budget, rec)
        } else {
            self.fix
                .apply_retract(gp, &self.assign, &delta.roots, budget, rec)
        }
    }

    fn converged(&self) -> bool {
        self.fix.converged()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The session's per-`(semiring, valuation)` fixpoint cache. `QUERY` and
/// `BATCH` groups populate it (one [`MaintainedFixpoint`] per cacheable
/// group); `INSERT`/`RETRACT` **repair** every entry in place via the
/// incremental maintenance subsystem instead of invalidating it — on
/// every semiring, by the same fixpoint kernel a from-scratch run uses —
/// so a write-heavy session keeps answering reads without re-running full
/// fixpoints. Entries are dropped only when a repair fails to converge,
/// when the write path itself fell back to re-grounding, or when the
/// program/fact base is reloaded wholesale.
#[derive(Default)]
struct FixCache {
    entries: Mutex<HashMap<FixKey, Box<dyn AnyEntry>>>,
}

impl FixCache {
    /// Repair every cached fixpoint after an incremental write `delta`
    /// that maintained the grounding in place. Entries whose epoch is not
    /// the pre-write epoch were created against a different grounding
    /// generation and are dropped (repairing them would be unsound), as
    /// are entries whose repair fails to converge (each counted in
    /// `incremental_fallbacks`). Each other repair bumps
    /// `incremental_applied` and moves the entry to the write's epoch.
    fn repair(
        &self,
        gp: &GroundedProgram,
        delta: &DeltaOutcome,
        insert: bool,
        budget: usize,
        metrics: &PipelineMetrics,
    ) {
        let pre_epoch = delta.epoch.saturating_sub(1);
        let mut entries = self.entries.lock().expect("fix cache poisoned");
        entries.retain(|_, e| {
            if e.epoch() != pre_epoch {
                return false;
            }
            if !e.repair(gp, delta, insert, budget, metrics) {
                metrics.counter(Counter::IncrementalFallbacks, 1);
                return false;
            }
            e.set_epoch(delta.epoch);
            metrics.counter(Counter::IncrementalApplied, 1);
            true
        });
    }

    /// Drop every entry (program or fact base replaced wholesale, or the
    /// write path fell back to re-grounding).
    fn clear(&self) {
        self.entries.lock().expect("fix cache poisoned").clear();
    }
}

/// The session cache as the evaluator's [`FixpointCache`] hook for one
/// group: its key, the snapshot's write epoch, and the valuation a stored
/// entry is repaired under.
struct CacheHook<'a, S> {
    cache: &'a FixCache,
    key: FixKey,
    epoch: u64,
    assign: &'a PerFact<S>,
}

impl<S: Semiring> FixpointCache<S> for CacheHook<'_, S> {
    /// Read the entry for the key at exactly the snapshot's epoch. The
    /// cache lock is held while `read` runs, so a read takes only the
    /// values it needs instead of copying the whole vector out.
    fn with_values(&self, read: &mut dyn FnMut(&[S])) -> bool {
        let entries = self.cache.entries.lock().expect("fix cache poisoned");
        let Some(e) = entries.get(&self.key) else {
            return false;
        };
        if e.epoch() != self.epoch || !e.converged() {
            return false;
        }
        let Some(t) = e.as_any().downcast_ref::<TypedEntry<S>>() else {
            return false;
        };
        read(t.fix.values());
        true
    }

    /// Store the fixpoint unless a newer-epoch entry is already present
    /// (an in-flight reader on an old snapshot must not clobber a
    /// repaired entry).
    fn store(&self, values: Vec<S>) {
        let mut entries = self.cache.entries.lock().expect("fix cache poisoned");
        if entries
            .get(&self.key)
            .is_some_and(|e| e.epoch() > self.epoch)
        {
            return;
        }
        let entry = TypedEntry {
            fix: MaintainedFixpoint::from_values(values, true),
            assign: self.assign.clone(),
            epoch: self.epoch,
        };
        entries.insert(self.key, Box::new(entry));
    }
}

struct SessionState {
    program: Option<String>,
    facts: Vec<(String, Vec<String>)>,
    /// The live engine behind the current snapshot. Kept resident so
    /// `INSERT`/`RETRACT` can take the incremental write path
    /// ([`Engine::insert_facts`]/[`Engine::retract_facts`]) instead of
    /// rebuilding; dropped when the *program* changes.
    engine: Option<Engine>,
    snapshot: Option<Arc<EngineSnapshot>>,
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
            state: Mutex::new(SessionState {
                program: None,
                facts: Vec::new(),
                engine: None,
                snapshot: None,
            }),
            fix_cache: FixCache::default(),
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

    /// The session's cumulative telemetry stream (survives snapshot
    /// rebuilds).
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.metrics
    }

    /// Store (and validate) program text. No grounding happens here — the
    /// first `LOAD FACTS` or query builds the snapshot. Returns the rule
    /// count. Invalidates any existing snapshot: the program changed.
    pub fn load_program(&self, text: &str) -> Result<usize, WireError> {
        self.touch();
        let program = datalog::parse_program(text)
            .map_err(|e| WireError::new(ErrCode::Parse, e.to_string()))?;
        let rules = program.rules.len();
        let mut st = self.state.lock().expect("session state poisoned");
        st.program = Some(text.to_owned());
        st.engine = None;
        st.snapshot = None;
        // A fresh engine restarts its epoch clock — cached fixpoints from
        // the old one must not survive into the new numbering.
        self.fix_cache.clear();
        Ok(rules)
    }

    /// Append facts (`(pred, constants)` tuples), rebuild the engine, and
    /// atomically swap in the fresh snapshot. This is the bulk write path:
    /// it grounds exactly once per call; concurrent readers keep the old
    /// snapshot until they next ask for one. (For single-fact maintenance
    /// without re-grounding, see [`insert`](Session::insert) /
    /// [`retract`](Session::retract).)
    pub fn load_facts(&self, facts: Vec<(String, Vec<String>)>) -> Result<usize, WireError> {
        self.touch();
        let added = facts.len();
        let mut st = self.state.lock().expect("session state poisoned");
        if st.program.is_none() {
            return Err(WireError::new(
                ErrCode::NoProgram,
                "LOAD PROGRAM before LOAD FACTS",
            ));
        }
        let mut all = st.facts.clone();
        all.extend(facts);
        // Build outside nothing: the rebuild grounds, which can be heavy,
        // but correctness first — holding the lock serializes writers and
        // keeps readers on the old Arc (they cloned it out already).
        let (engine, snapshot) = self.build_engine(st.program.as_deref().unwrap(), &all)?;
        st.facts = all;
        st.engine = Some(engine);
        st.snapshot = Some(Arc::new(snapshot));
        // Bulk loads re-ground from scratch: cached fixpoints belong to
        // the replaced engine's epoch clock.
        self.fix_cache.clear();
        Ok(added)
    }

    /// Incrementally insert one EDB fact via [`Engine::insert_facts`]: the
    /// resident engine maintains its cached grounding in place (no
    /// re-grounding, no engine rebuild) and the next snapshot is swapped
    /// in atomically. Returns `(facts actually inserted, write epoch)` —
    /// 0 facts for a duplicate.
    pub fn insert(&self, pred: &str, args: &[String]) -> Result<(usize, u64), WireError> {
        self.write_delta(pred, args, true)
    }

    /// Incrementally retract one EDB fact — the mirror of
    /// [`insert`](Session::insert); grounded rules citing the fact are
    /// retired in place and readers swap to the next snapshot. Retracting
    /// an absent (or derived) fact is an error.
    pub fn retract(&self, pred: &str, args: &[String]) -> Result<(usize, u64), WireError> {
        self.write_delta(pred, args, false)
    }

    fn write_delta(
        &self,
        pred: &str,
        args: &[String],
        insert: bool,
    ) -> Result<(usize, u64), WireError> {
        self.touch();
        let mut st = self.state.lock().expect("session state poisoned");
        let Some(program) = st.program.clone() else {
            return Err(WireError::new(
                ErrCode::NoProgram,
                "LOAD PROGRAM before INSERT/RETRACT",
            ));
        };
        // Make sure the resident engine exists (first write straight after
        // LOAD PROGRAM builds it once, grounding lazily as usual).
        if st.engine.is_none() {
            let (engine, _) = self.build_engine(&program, &st.facts)?;
            st.engine = Some(engine);
        }
        // Release the session's own hold on the current snapshot: the
        // engine's copy-on-write then clones the grounding and database
        // only while a reader still holds them, not on every write.
        st.snapshot = None;
        let st = &mut *st;
        let engine = st.engine.as_mut().expect("resident engine ensured above");
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let outcome = if insert {
            engine.insert_fact(pred, &refs)
        } else {
            engine.retract_fact(pred, &refs)
        };
        let changed = outcome.as_ref().map_or(0, |o| o.facts.len());
        if changed > 0 {
            // Keep the rebuild fact list in sync so a later LOAD
            // PROGRAM/LOAD FACTS rebuild sees the same database. The list
            // may name a fact more than once (LOAD FACTS keeps duplicates);
            // a retract removes every copy.
            if insert {
                st.facts.push((pred.to_owned(), args.to_vec()));
            } else {
                st.facts
                    .retain(|(p, a)| !(p == pred && a.as_slice() == args));
            }
        }
        let repaired = match &outcome {
            Ok(outcome) if changed > 0 => self.repair_fix_cache(engine, outcome, insert),
            _ => Ok(()),
        };
        // Re-freeze on every path — failed and no-op writes included — so
        // the next read never has to rebuild the engine. In-flight readers
        // finish on the Arc they cloned.
        st.snapshot = Some(Arc::new(engine.snapshot().map_err(|e| engine_err(&e))?));
        let outcome = outcome.map_err(|e| engine_err(&e))?;
        repaired?;
        Ok((changed, outcome.epoch))
    }

    /// Repair the cached per-(semiring, valuation) fixpoints in place when
    /// the write maintained the grounding; drop them when the engine had
    /// to fall back to re-grounding.
    fn repair_fix_cache(
        &self,
        engine: &Engine,
        outcome: &DeltaOutcome,
        insert: bool,
    ) -> Result<(), WireError> {
        if !(outcome.maintained && outcome.incremental) {
            self.fix_cache.clear();
            return Ok(());
        }
        let budget = engine.budget().map_err(|e| engine_err(&e))?;
        let gp = engine.grounding().map_err(|e| engine_err(&e))?;
        self.fix_cache
            .repair(gp, outcome, insert, budget, &self.metrics);
        Ok(())
    }

    /// The current snapshot, building it lazily when a program is loaded
    /// but no write has happened yet (e.g. queries straight after
    /// `LOAD PROGRAM` on an empty database).
    pub fn snapshot(&self) -> Result<Arc<EngineSnapshot>, WireError> {
        let mut st = self.state.lock().expect("session state poisoned");
        if let Some(snap) = &st.snapshot {
            return Ok(Arc::clone(snap));
        }
        let Some(program) = st.program.clone() else {
            return Err(WireError::new(
                ErrCode::NoProgram,
                "no program loaded in this session",
            ));
        };
        let facts = st.facts.clone();
        let (engine, snap) = self.build_engine(&program, &facts)?;
        let snap = Arc::new(snap);
        st.engine = Some(engine);
        st.snapshot = Some(Arc::clone(&snap));
        Ok(snap)
    }

    fn build_engine(
        &self,
        program: &str,
        facts: &[(String, Vec<String>)],
    ) -> Result<(Engine, EngineSnapshot), WireError> {
        let mut builder = Engine::builder()
            .program_text(program)
            .parallelism(self.eval_threads)
            .metrics_collector(Arc::clone(&self.metrics));
        for (pred, tuple) in facts {
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            builder = builder.fact(pred, &refs);
        }
        let engine = builder.build().map_err(|e| engine_err(&e))?;
        let snapshot = engine.snapshot().map_err(|e| engine_err(&e))?;
        Ok((engine, snapshot))
    }

    /// Evaluate one `QUERY`, bumping the serve counters and attributing
    /// wall-clock to [`Stage::Serve`].
    pub fn query(&self, spec: &QuerySpec) -> Result<String, WireError> {
        self.touch();
        let snap = self.snapshot()?;
        self.metrics.counter(Counter::QueriesServed, 1);
        telemetry::time(&*self.metrics, Stage::Serve, || {
            eval_group(&snap, &[(0, spec)], &self.fix_cache)
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
                for (i, res) in eval_group(&snap, &goals, &self.fix_cache) {
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
    snap: &EngineSnapshot,
    goals: &[(usize, &QuerySpec)],
    cache: &FixCache,
) -> Vec<(usize, Result<String, WireError>)> {
    let Some(&(_, head)) = goals.first() else {
        return Vec::new();
    };
    match head.semiring {
        WireSemiring::Bool => eval_typed::<Bool>(snap, head, goals, cache),
        WireSemiring::Tropical => eval_typed::<Tropical>(snap, head, goals, cache),
        WireSemiring::Counting => eval_typed::<Counting>(snap, head, goals, cache),
        WireSemiring::Fuzzy => eval_typed::<Fuzzy>(snap, head, goals, cache),
        WireSemiring::Bottleneck => eval_typed::<Bottleneck>(snap, head, goals, cache),
    }
}

/// The typed read path: build the group's valuation once, resolve each
/// goal (a goal that fails to resolve fails alone), and answer the rest
/// through the snapshot's one evaluator, with the session cache as its
/// hook on materialized fixpoints of cacheable valuations.
fn eval_typed<S: WireValue>(
    snap: &EngineSnapshot,
    head: &QuerySpec,
    goals: &[(usize, &QuerySpec)],
    cache: &FixCache,
) -> Vec<(usize, Result<String, WireError>)> {
    let assign = match valuation::<S>(snap, &head.valuation) {
        Ok(assign) => assign,
        Err(e) => return goals.iter().map(|(i, _)| (*i, Err(e.clone()))).collect(),
    };
    let reader = snap.reader();
    let mut out = Vec::with_capacity(goals.len());
    let mut resolved = Vec::with_capacity(goals.len());
    let mut positions = Vec::with_capacity(goals.len());
    for (i, q) in goals {
        match reader.resolve(&q.pred, &q.args) {
            Ok(goal) => {
                resolved.push(goal);
                positions.push(*i);
            }
            Err(e) => out.push((*i, Err(engine_err(&e)))),
        }
    }
    let hook = fix_key(head.semiring, &head.valuation).map(|key| CacheHook {
        cache,
        key,
        epoch: snap.epoch(),
        assign: &assign,
    });
    let hook = hook.as_ref().map(|h| h as &dyn FixpointCache<S>);
    let answers = reader.eval(head.pipeline, &assign, &resolved, hook);
    out.extend(positions.into_iter().zip(answers).map(|(i, answer)| {
        let rendered = answer.map(|v| v.render()).map_err(|e| engine_err(&e));
        (i, rendered)
    }));
    out
}

/// Build a group's valuation as one [`PerFact`] map: `ones` is the empty
/// map, `unit:<w>` the empty map defaulting to `w`, and `perfact` the
/// `WEIGHT` lines over a default of 1. Each `WEIGHT` line must name an
/// EDB fact of the frozen database — a typo must not silently weigh
/// nothing — and every weight passes the semiring's range check.
fn valuation<S: WireValue>(
    snap: &EngineSnapshot,
    val: &WireValuation,
) -> Result<PerFact<S>, WireError> {
    let weights = match val {
        WireValuation::Ones => return Ok(PerFact::new()),
        WireValuation::Unit(w) => return Ok(PerFact::with_default(S::parse_weight(*w)?)),
        WireValuation::PerFact(weights) => weights,
    };
    let reader = snap.reader();
    let mut assign = PerFact::new();
    for w in weights {
        let fact = reader
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
    Ok(assign)
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
    fn incremental_fact_loads_reground() {
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
        // Two writes, two groundings — queries added none.
        assert_eq!(
            session
                .metrics()
                .cache_count(telemetry::CacheEvent::Grounding),
            2
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
        assert_eq!((n, epoch), (1, 1));
        assert_eq!(
            session.query(&spec("T v0 v4 SEMIRING bool")).unwrap(),
            "true"
        );
        // Duplicate insert: no-op, epoch unchanged.
        let (n, epoch) = session
            .insert("E", &["v3".to_owned(), "v4".to_owned()])
            .unwrap();
        assert_eq!((n, epoch), (0, 1));

        // Incremental retract severs the path.
        let (n, epoch) = session
            .retract("E", &["v1".to_owned(), "v2".to_owned()])
            .unwrap();
        assert_eq!((n, epoch), (1, 2));
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
        // A LOAD FACTS rebuild replays the session's fact list.
        session
            .load_facts(vec![("E".to_owned(), args("v5", "v6").to_vec())])
            .unwrap();
        assert_eq!(t01(), "false");
        // So does the rebuild after a LOAD PROGRAM.
        session.load_program(TC).unwrap();
        assert_eq!(t01(), "false");
        assert_eq!(
            session.query(&spec("T v1 v2 SEMIRING bool")).unwrap(),
            "true"
        );
    }

    fn args(a: &str, b: &str) -> [String; 2] {
        [a.to_owned(), b.to_owned()]
    }

    /// Address of the grounding behind the session's current snapshot
    /// (the snapshot handle is dropped before returning).
    fn grounding_addr(session: &Session) -> usize {
        session.snapshot().unwrap().grounding() as *const GroundedProgram as usize
    }

    /// Answer `line` against `snap` through the session's read path.
    fn read(snap: &EngineSnapshot, cache: &FixCache, line: &str) -> String {
        let q = spec(line);
        let mut out = eval_group(snap, &[(0, &q)], cache);
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
        assert_eq!(held.grounding() as *const GroundedProgram as usize, before);
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
        assert_eq!(old.epoch(), 0);
        assert_eq!(read(&old, &session.fix_cache, q), "3");
        assert_eq!(
            read(&old, &session.fix_cache, "T v0 v3 SEMIRING bool"),
            "true"
        );
        assert_eq!(
            read(&old, &session.fix_cache, "T v1 v3 SEMIRING bool"),
            "true"
        );
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
        assert_eq!(session.insert("E", &args("v0", "v1")).unwrap(), (0, 0));
        // Every write re-froze a snapshot from the resident engine: the
        // next read neither rebuilds nor re-grounds it.
        assert_eq!(session.query(&q).unwrap(), "true");
        let groundings = session
            .metrics()
            .cache_count(telemetry::CacheEvent::Grounding);
        assert_eq!(groundings, 1);
        // And the engine still takes incremental writes.
        assert_eq!(session.insert("E", &args("v3", "v0")).unwrap(), (1, 1));
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
