//! The `Engine` session facade: one entry point from Datalog text to
//! semiring answers.
//!
//! The paper's pipeline — parse, ground (§2.1), classify (§4–§6), compile a
//! provenance circuit (§3, §5, §6), evaluate over a semiring (§2.3–§2.4) —
//! used to be a scatter of free functions across five crates. An [`Engine`]
//! owns one program/database pair and **lazily caches** every stage, so a
//! session that asks many questions about the same instance grounds and
//! classifies exactly once:
//!
//! ```
//! use provcirc::{Engine, EvalStrategy, Strategy};
//! use semiring::{Bool, Semiring, Tropical, UnitWeights, AllOnes};
//!
//! let engine = Engine::builder()
//!     .program_text("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).")
//!     .graph(&graphgen::generators::path(4, "E"))
//!     .build()
//!     .unwrap();
//!
//! // One grounding serves evaluation, provenance, and compilation.
//! let q = engine.query("T", &["v0", "v4"]).unwrap();
//! assert_eq!(q.eval::<Bool, _>(&AllOnes).unwrap(), Bool(true));
//! assert_eq!(
//!     q.eval(&UnitWeights::new(Tropical::new(1))).unwrap(),
//!     Tropical::new(4)
//! );
//! let compiled = q.circuit(Strategy::Auto).unwrap();
//! assert_eq!(
//!     compiled.circuit.eval(&UnitWeights::new(Tropical::new(1))),
//!     Tropical::new(4)
//! );
//! assert_eq!(engine.cache_stats().groundings, 1);
//!
//! // Evaluation runs the delta-driven semi-naive fixpoint by default;
//! // opt back into the naive ICO when its iteration count is the point
//! // (the §4 boundedness probe).
//! assert_eq!(engine.eval_strategy(), EvalStrategy::SemiNaive);
//! let probe = Engine::builder()
//!     .program_text("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).")
//!     .graph(&graphgen::generators::path(4, "E"))
//!     .eval_strategy(EvalStrategy::Naive)
//!     .build()
//!     .unwrap();
//! let iters = probe.fixpoint::<Bool, _>(&AllOnes).unwrap().iterations;
//! assert!(iters >= 4); // grows with the path length: unbounded program
//!
//! // Grounding's join enumeration shards across the session's
//! // `parallelism` (available cores by default; 1 = the exact sequential
//! // code path). Groundings and fixpoint outcomes are bit-identical
//! // whatever the thread count.
//! let sharded = Engine::builder()
//!     .program_text("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).")
//!     .graph(&graphgen::generators::path(4, "E"))
//!     .parallelism(4)
//!     .build()
//!     .unwrap();
//! assert_eq!(sharded.parallelism(), 4);
//! assert_eq!(
//!     sharded.query("T", &["v0", "v4"]).unwrap()
//!         .eval(&UnitWeights::new(Tropical::new(1))).unwrap(),
//!     Tropical::new(4)
//! );
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use circuit::Circuit;
use datalog::{
    default_budget, eval_with_strategy, extend_grounding, ground, parse_program,
    retract_facts_from_grounding, ConstId, Database, EvalOutcome, EvalStrategy, Exec, FactId,
    GroundedProgram, GroundingIndex, PredId, Program,
};
use graphgen::{LabeledDigraph, NodeId};
use provcirc_error::Error;
use semiring::valuation::{AllOnes, Valuation, VarTags};
use semiring::{Semiring, Sorp};
use telemetry::{CacheEvent, Counter, MetricsReport, PipelineMetrics, Recorder, Stage};

use crate::classify::{classify_program, Classification};
use crate::compile::{self, Compiled, Strategy};
use crate::fixpoints::Fixpoints;
use crate::read::{pred_table, resolve_pred, Goal, Pipeline, PredTable};

/// Counters describing how much work an [`Engine`] actually performed —
/// repeated queries against the same session must not redo shared stages.
///
/// Since the telemetry layer landed this is a *view*: the counters live in
/// the session's [`PipelineMetrics`] collector (as
/// [`CacheEvent`]s, counted whether or not
/// telemetry is enabled) and [`Engine::cache_stats`] snapshots them here
/// for compatibility.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Times the grounded program was computed (at most 1 per session).
    pub groundings: usize,
    /// Times the program was classified (at most 1 per session).
    pub classifications: usize,
    /// Times the provenance fixpoint (over [`Sorp`]) was run (at most 1).
    pub provenance_runs: usize,
    /// Circuits actually constructed.
    pub circuits_built: usize,
    /// Circuit requests served from the per-fact cache.
    pub circuit_cache_hits: usize,
    /// Evaluations that requested [`EvalStrategy::SemiNaive`] but fell
    /// back to naive because the semiring is not ⊕-idempotent (the
    /// fallback is recorded in [`datalog::EvalOutcome::strategy`]).
    pub seminaive_fallbacks: usize,
}

/// Cache key of a compiled circuit: the queried fact plus the resolved
/// strategy.
pub(crate) type CircuitKey = (PredId, Vec<ConstId>, Strategy);

/// What one write batch ([`Engine::insert_facts`] /
/// [`Engine::retract_facts`]) did to the session.
///
/// `base_rules` (inserts) and `roots` (retracts) are the handles the
/// value-maintenance layer needs. The engine passes them, with its
/// updated [`grounding`](Engine::grounding), to
/// `incremental::MaintainedFixpoint::apply_insert` / `apply_retract` to
/// repair each fixpoint it caches for
/// [`answer_uniform`](Engine::answer_uniform) in place instead of
/// re-running it; a caller keeping fixpoints of its own does the same.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The session epoch *after* the write (bumped once per batch that
    /// changed the database; snapshots carry the epoch they froze).
    pub epoch: u64,
    /// Fact ids actually inserted (fresh ids; duplicates of existing
    /// facts are skipped) or retracted (now tombstoned).
    pub facts: Vec<FactId>,
    /// Grounded-rule count before the delta extension — the seed point
    /// for `MaintainedFixpoint::apply_insert`. 0 when no grounding was
    /// cached (nothing was extended).
    pub base_rules: usize,
    /// Heads of the grounded rules removed by a retraction (indices into
    /// `GroundedProgram::idb_facts()`) — the cone roots for
    /// `MaintainedFixpoint::apply_retract`. Empty for inserts.
    pub roots: Vec<usize>,
    /// Whether a cached grounding was updated **in place** (delta
    /// extension or rule retirement). `false` when nothing was cached
    /// yet — the write was a plain database mutation.
    pub maintained: bool,
    /// `false` exactly when a cached grounding had to be discarded (the
    /// delta extension failed, or a cached grounding error went stale):
    /// the next read re-grounds from scratch. Counted in the
    /// `incremental_fallbacks` metric.
    pub incremental: bool,
}

/// Builder for an [`Engine`] session.
///
/// Provide a program (text or AST) and an instance (a [`Database`], a
/// labeled graph, or nothing for an empty database), then [`build`].
///
/// [`build`]: EngineBuilder::build
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    text: Option<String>,
    program: Option<Program>,
    database: Option<Database>,
    graph: Option<LabeledDigraph>,
    seed_facts: Vec<(String, Vec<String>)>,
    horizon: usize,
    max_ground_rules: Option<usize>,
    eval_budget: Option<usize>,
    eval_strategy: EvalStrategy,
    parallelism: usize,
    pipeline: Pipeline,
    telemetry: Option<bool>,
    metrics_collector: Option<Arc<PipelineMetrics>>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The default telemetry mode of a new session: enabled when the
/// `DATALOG_METRICS` environment variable is set to anything other than
/// `0`, `false`, `off`, or the empty string — the knob `dlc --metrics`
/// and CI use — otherwise disabled (the no-op fast path).
fn default_telemetry() -> bool {
    match std::env::var("DATALOG_METRICS") {
        Ok(v) => !matches!(v.trim(), "" | "0" | "false" | "off"),
        Err(_) => false,
    }
}

/// The default `parallelism` of a new session: the `DATALOG_PARALLELISM`
/// environment variable when set to a positive integer (the knob CI uses
/// to pin the whole test suite to a thread count), otherwise the number of
/// available cores, otherwise 1.
fn default_parallelism() -> usize {
    if let Some(n) = std::env::var("DATALOG_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl EngineBuilder {
    /// A fresh builder (classification horizon 5, unlimited grounding,
    /// parallelism = available cores).
    pub fn new() -> Self {
        EngineBuilder {
            text: None,
            program: None,
            database: None,
            graph: None,
            seed_facts: Vec::new(),
            horizon: 5,
            max_ground_rules: None,
            eval_budget: None,
            eval_strategy: EvalStrategy::default(),
            parallelism: default_parallelism(),
            pipeline: Pipeline::default(),
            telemetry: None,
            metrics_collector: None,
        }
    }

    /// Use a program given as Datalog text (parsed at [`build`] time).
    ///
    /// [`build`]: EngineBuilder::build
    pub fn program_text(mut self, text: &str) -> Self {
        self.text = Some(text.to_owned());
        self
    }

    /// Use an already-parsed program.
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Run against an explicit EDB database.
    pub fn database(mut self, db: Database) -> Self {
        self.database = Some(db);
        self
    }

    /// Run against a labeled graph: every label becomes a binary EDB
    /// predicate, every node a constant `v{i}` (see `Database::from_graph`).
    /// Enables the graph-specialized strategies (`MagicFiniteRpq`,
    /// `ProductBellmanFord`, `ProductSquaring`).
    pub fn graph(mut self, graph: &LabeledDigraph) -> Self {
        self.graph = Some(graph.clone());
        self
    }

    /// Insert one extra EDB fact after the instance is set up — the typical
    /// use is seeding unary predicates (`A(v0)`) that graph import cannot
    /// produce.
    ///
    /// The predicate must exist in the program with matching arity
    /// ([`build`] errors otherwise). Constants are interned on the fly: a
    /// name that matches nothing in the instance *extends* the active
    /// domain rather than erroring, so double-check node names (`v3`, not
    /// `v03`) on graph sessions.
    ///
    /// [`build`]: EngineBuilder::build
    pub fn fact(mut self, pred: &str, tuple: &[&str]) -> Self {
        self.seed_facts.push((
            pred.to_owned(),
            tuple.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }

    /// Expansion horizon for the boundedness evidence inside
    /// classification (default 5).
    pub fn horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// Cap the number of grounded rules (default: unlimited).
    pub fn max_grounded_rules(mut self, max_rules: usize) -> Self {
        self.max_ground_rules = Some(max_rules);
        self
    }

    /// Iteration budget for fixpoint evaluation (default:
    /// `datalog::default_budget`, i.e. #IDB facts + 2).
    pub fn eval_budget(mut self, budget: usize) -> Self {
        self.eval_budget = Some(budget);
        self
    }

    /// Which fixpoint algorithm the session's evaluations run (default:
    /// [`EvalStrategy::SemiNaive`] — delta-driven, several times faster on
    /// recursive workloads, with an automatic per-semiring fallback to
    /// naive where delta propagation is unsound, e.g. `Counting`).
    ///
    /// The strategy only affects [`Engine::fixpoint`] and [`Query::eval`];
    /// the cached provenance fixpoint always runs naive because its
    /// iteration count doubles as the Theorem 4.3 layering probe.
    pub fn eval_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.eval_strategy = strategy;
        self
    }

    /// How many threads the session's grounding may shard its join
    /// enumeration across (clamped to at least 1). Circuit evaluation
    /// ([`Query::circuit_eval`]) is sequential at any setting.
    ///
    /// Defaults to the machine's available cores (overridable via the
    /// `DATALOG_PARALLELISM` environment variable). `parallelism(1)` is
    /// the exact sequential code path — no thread is ever spawned — and
    /// higher counts produce **bit-identical groundings** (same `FactId`
    /// order). The fixpoint itself always runs sequentially, so every
    /// [`EvalOutcome`] — values, `iterations`, `rule_firings`, and
    /// `converged` under any [`eval_budget`](EngineBuilder::eval_budget)
    /// — is identical at every thread count.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Which grounding/evaluation pipeline [`Query::eval`] routes through
    /// (default: [`Pipeline::Materialized`]).
    ///
    /// Both pipelines return bit-identical values; they differ in what
    /// gets grounded. See [`Pipeline`] for the trade-offs.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Enable (or explicitly disable) pipeline telemetry for the session.
    ///
    /// When enabled, every stage the session runs — parse, grounding
    /// phases, classification, evaluation, the provenance fixpoint,
    /// circuit construction — records wall-clock spans, per-round fixpoint
    /// series, and per-shard parallel statistics into the session's
    /// [`PipelineMetrics`]; read them back with
    /// [`Engine::metrics_report`]. Defaults to the `DATALOG_METRICS`
    /// environment variable (an explicit call wins), otherwise off.
    ///
    /// Disabled telemetry is the no-op recorder: instrumented code paths
    /// delegate to the exact pre-telemetry code, no clock is read, and
    /// grounding/evaluation results stay bit-identical. Cache-discipline
    /// counters ([`Engine::cache_stats`]) are maintained either way.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = Some(enabled);
        self
    }

    /// Record into an externally owned [`PipelineMetrics`] collector
    /// instead of a fresh per-session one.
    ///
    /// The serving layer uses this to accumulate one metrics stream per
    /// *server session* across the engine rebuilds that `LOAD PROGRAM`
    /// triggers: cache events (groundings in particular) and stage spans
    /// keep counting into the same collector, so "this session grounded
    /// exactly once" stays assertable after a program reload. The
    /// collector's own enabled flag decides whether spans/rounds/shards
    /// are recorded — an explicit collector overrides
    /// [`telemetry`](EngineBuilder::telemetry) and `DATALOG_METRICS`.
    pub fn metrics_collector(mut self, collector: Arc<PipelineMetrics>) -> Self {
        self.metrics_collector = Some(collector);
        self
    }

    /// Assemble the session.
    ///
    /// Errors if no program was provided, the program text fails to parse,
    /// the program fails validation, or both a database and a graph were
    /// given.
    pub fn build(self) -> Result<Engine, Error> {
        let metrics = match self.metrics_collector {
            Some(collector) => collector,
            None => Arc::new(PipelineMetrics::new(
                self.telemetry.unwrap_or_else(default_telemetry),
            )),
        };
        let mut program = match (self.program, self.text) {
            (Some(p), None) => p,
            (None, Some(text)) => {
                telemetry::time(&*metrics, Stage::Parse, || parse_program(&text))?
            }
            (Some(_), Some(_)) => {
                return Err(Error::InvalidProgram(
                    "provide either program text or a parsed program, not both".into(),
                ))
            }
            (None, None) => {
                return Err(Error::InvalidProgram(
                    "EngineBuilder needs a program (program_text or program)".into(),
                ))
            }
        };
        program.validate()?;

        let (mut db, edge_facts, graph) = match (self.database, self.graph) {
            (Some(_), Some(_)) => {
                return Err(Error::unsupported(
                    "provide either a database or a graph, not both",
                ))
            }
            (Some(db), None) => (db, Vec::new(), None),
            (None, Some(g)) => {
                let (db, edge_facts) = Database::from_graph(&mut program, &g);
                (db, edge_facts, Some(g))
            }
            (None, None) => (Database::new(), Vec::new(), None),
        };

        let preds = pred_table(&program, &db)?;
        let mut consts = Vec::new();
        for (pred, tuple) in self.seed_facts {
            let pred_id = resolve_pred(&program, &preds, &pred, tuple.len(), true)?;
            consts.clear();
            consts.extend(tuple.iter().map(|c| db.constant(c)));
            db.insert(pred_id, &consts);
        }

        let node_of_const = graph
            .as_ref()
            .map(|g| {
                (0..g.num_nodes())
                    .filter_map(|i| db.consts.get(&format!("v{i}")).map(|c| (c, i as NodeId)))
                    .collect()
            })
            .unwrap_or_default();

        Ok(Engine {
            program: Arc::new(program),
            preds: Arc::new(preds),
            db: Arc::new(db),
            graph: graph.map(Arc::new),
            edge_facts: Arc::new(edge_facts),
            node_of_const: Arc::new(node_of_const),
            horizon: self.horizon,
            max_ground_rules: self.max_ground_rules.unwrap_or(usize::MAX),
            eval_budget: self.eval_budget,
            eval_strategy: self.eval_strategy,
            parallelism: self.parallelism.max(1),
            pipeline: self.pipeline,
            epoch: 0,
            grounding: OnceLock::new(),
            delta_index: None,
            classification: OnceLock::new(),
            provenance: OnceLock::new(),
            circuits: Mutex::default(),
            multi_outputs: Mutex::default(),
            fixpoints: Arc::default(),
            metrics,
        })
    }
}

/// Lock a cache map. A panic while one was held cannot have left it torn
/// (every critical section is a single lookup or insert), so poisoning
/// is ignored.
fn lock<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A stateful session owning a program, its database, and every derived
/// artifact: the grounding, the classification, the provenance fixpoint,
/// per-fact compiled circuits, and the fixpoints of uniform valuations
/// ([`answer_uniform`](Engine::answer_uniform)). All of them are computed
/// on first use and reused afterwards.
///
/// `Send + Sync` (asserted below): the caches fill through `OnceLock`s
/// and `Mutex`ed maps, so any number of threads can query one `&Engine`.
/// An engine is also its own snapshot: [`Engine::snapshot`] returns an
/// engine sharing every cached artifact by `Arc`, which a serving layer
/// publishes while the original keeps taking writes (a write copies what
/// a snapshot still shares, so the snapshot keeps its world).
#[derive(Debug)]
pub struct Engine {
    program: Arc<Program>,
    /// The program's arities and IDB predicates, for resolving names.
    pub(crate) preds: Arc<PredTable>,
    db: Arc<Database>,
    graph: Option<Arc<LabeledDigraph>>,
    edge_facts: Arc<Vec<FactId>>,
    node_of_const: Arc<HashMap<ConstId, NodeId>>,
    horizon: usize,
    max_ground_rules: usize,
    pub(crate) eval_budget: Option<usize>,
    eval_strategy: EvalStrategy,
    parallelism: usize,
    pipeline: Pipeline,
    epoch: u64,
    grounding: OnceLock<Result<Arc<GroundedProgram>, Error>>,
    /// The join index delta grounding probes, kept from the first write
    /// on so a write folds in only its own facts; `None` whenever no
    /// grounding is cached (dropped with it on every fallback) and in
    /// every snapshot.
    delta_index: Option<GroundingIndex>,
    classification: OnceLock<Arc<Classification>>,
    provenance: OnceLock<Result<Arc<EvalOutcome<Sorp>>, Error>>,
    circuits: Mutex<HashMap<CircuitKey, Arc<Compiled>>>,
    multi_outputs: Mutex<HashMap<Strategy, Arc<circuit::MultiOutput>>>,
    /// The fixpoints of uniform valuations, shared with every snapshot of
    /// this engine and repaired by its writes.
    pub(crate) fixpoints: Arc<Fixpoints>,
    metrics: Arc<PipelineMetrics>,
}

// Sessions are shared across threads (a server publishes them behind
// `Arc`): a field that reintroduces single-threaded interior mutability
// (`Rc`, `RefCell`, …) fails to compile here instead of racing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// Start building a session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The session's (validated) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The session's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The labeled graph the database was imported from, when built with
    /// [`EngineBuilder::graph`].
    pub fn graph(&self) -> Option<&LabeledDigraph> {
        self.graph.as_deref()
    }

    /// Fact ids of the imported graph edges, aligned with the graph's edge
    /// list (empty unless built from a graph) — pair with
    /// `semiring::FromEdgeWeights` for weighted workloads.
    pub fn edge_facts(&self) -> &[FactId] {
        &self.edge_facts
    }

    /// How much work the session has actually performed — a snapshot of
    /// the cache-event counters in the session's [`PipelineMetrics`]
    /// (maintained whether or not telemetry is enabled).
    pub fn cache_stats(&self) -> EngineCacheStats {
        let count = |e| self.metrics.cache_count(e) as usize;
        EngineCacheStats {
            groundings: count(CacheEvent::Grounding),
            classifications: count(CacheEvent::Classification),
            provenance_runs: count(CacheEvent::ProvenanceRun),
            circuits_built: count(CacheEvent::CircuitBuilt),
            circuit_cache_hits: count(CacheEvent::CircuitCacheHit),
            seminaive_fallbacks: count(CacheEvent::SeminaiveFallback),
        }
    }

    /// The session's telemetry collector. Cache events are always counted;
    /// spans, round series, and shard statistics only accumulate when the
    /// session was built with telemetry enabled
    /// ([`EngineBuilder::telemetry`] or `DATALOG_METRICS`).
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Whether the session records pipeline telemetry (spans, rounds,
    /// shards) — see [`EngineBuilder::telemetry`].
    pub fn telemetry_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// Snapshot the session's telemetry as a [`MetricsReport`]: render it
    /// with `Display` for a human-readable per-stage table or
    /// [`MetricsReport::to_json`] for the machine-readable form.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// The grounded program — computed once, then cached, sharding the
    /// join work across the session's [`parallelism`](Engine::parallelism)
    /// (bit-identical to a sequential grounding at any thread count).
    /// Failures (e.g. [`Error::GroundingLimit`]) are cached too and
    /// replayed on later calls instead of re-grounding.
    pub fn grounding(&self) -> Result<&GroundedProgram, Error> {
        self.grounding_cell()
            .as_ref()
            .map(|arc| &**arc)
            .map_err(Error::clone)
    }

    fn grounding_cell(&self) -> &Result<Arc<GroundedProgram>, Error> {
        self.grounding.get_or_init(|| {
            self.metrics.cache_event(CacheEvent::Grounding);
            ground(&self.program, &self.db, &self.exec()).map(Arc::new)
        })
    }

    /// How the session grounds: its parallelism, rule cap and metrics.
    fn exec(&self) -> Exec<'_> {
        Exec {
            threads: self.parallelism,
            max_rules: self.max_ground_rules,
            rec: &*self.metrics,
        }
    }

    /// The paper-level classification (computed once, then cached).
    pub fn classification(&self) -> &Classification {
        self.classification.get_or_init(|| {
            self.metrics.cache_event(CacheEvent::Classification);
            Arc::new(telemetry::time(&*self.metrics, Stage::Classify, || {
                classify_program(&self.program, self.horizon)
            }))
        })
    }

    /// The iteration budget used for fixpoint evaluation.
    pub fn budget(&self) -> Result<usize, Error> {
        Ok(self.budget_over(self.grounding()?))
    }

    /// The fixpoint iteration budget over `gp`: the configured
    /// `eval_budget`, else [`default_budget`].
    pub(crate) fn budget_over(&self, gp: &GroundedProgram) -> usize {
        self.eval_budget.unwrap_or_else(|| default_budget(gp))
    }

    /// The session's fixpoint algorithm (set by
    /// [`EngineBuilder::eval_strategy`]; [`EvalStrategy::SemiNaive`] by
    /// default).
    pub fn eval_strategy(&self) -> EvalStrategy {
        self.eval_strategy
    }

    /// How many threads the session shards join enumeration across (set
    /// by [`EngineBuilder::parallelism`]; available cores by default).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The pipeline [`Query::eval`] routes through (set by
    /// [`EngineBuilder::pipeline`]; [`Pipeline::Materialized`] by default).
    pub fn pipeline(&self) -> Pipeline {
        self.pipeline
    }

    /// The session's write epoch: 0 at build, bumped once per
    /// [`insert_facts`](Engine::insert_facts) /
    /// [`retract_facts`](Engine::retract_facts) batch that changed the
    /// database. A [`snapshot`](Engine::snapshot) keeps the epoch it
    /// froze, so a serving layer can tell which generation a reader is on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Insert one EDB fact — see [`insert_facts`](Engine::insert_facts).
    pub fn insert_fact(&mut self, pred: &str, tuple: &[&str]) -> Result<DeltaOutcome, Error> {
        self.insert_facts(&[(pred, tuple)])
    }

    /// Retract one EDB fact — see [`retract_facts`](Engine::retract_facts).
    pub fn retract_fact(&mut self, pred: &str, tuple: &[&str]) -> Result<DeltaOutcome, Error> {
        self.retract_facts(&[(pred, tuple)])
    }

    /// Insert a batch of EDB facts **without invalidating the cached
    /// grounding**: if the session has already grounded, the delta is
    /// grounded against the cached [`GroundedProgram`] in place
    /// (`datalog::extend_grounding` — new facts as the join frontier,
    /// revived rules on domain growth) instead of re-grounding from
    /// scratch. Constants are interned on the fly; inserting a fact that
    /// already exists is a no-op (its id is *not* reported in
    /// [`DeltaOutcome::facts`]).
    ///
    /// Errors — without touching any state — on unknown predicates, arity
    /// mismatches, and IDB predicates (only EDB relations are writable;
    /// IDB facts are *derived*). If the delta extension itself fails
    /// (e.g. [`Error::GroundingLimit`]), the write still succeeds: the
    /// cached grounding is dropped and the next read re-grounds from
    /// scratch — reported via [`DeltaOutcome::incremental`] `= false` and
    /// the `incremental_fallbacks` counter.
    ///
    /// Value-level caches that cannot be maintained soundly are cleared
    /// for lazy recomputation: the provenance fixpoint (its *naive
    /// iteration count* feeds the Theorem 4.3 `BoundedLayered` layering —
    /// an in-place value repair would not reproduce it) and with it every
    /// compiled circuit and multi-output arena. The classification
    /// survives (it depends only on the program), and the fixpoints cached
    /// by [`answer_uniform`](Engine::answer_uniform) are repaired in place.
    /// Batching several facts
    /// into one call amortizes both the delta-grounding pass and the
    /// copy-on-write of grounding/database `Arc`s shared with live
    /// snapshots.
    pub fn insert_facts(&mut self, facts: &[(&str, &[&str])]) -> Result<DeltaOutcome, Error> {
        // Validate everything before mutating anything: a failed batch
        // must leave the session untouched.
        let mut resolved: Vec<(PredId, &[&str])> = Vec::with_capacity(facts.len());
        for (pred, tuple) in facts {
            let id = resolve_pred(&self.program, &self.preds, pred, tuple.len(), true)?;
            resolved.push((id, tuple));
        }

        // The delta index must see the database as the grounding does,
        // before the write: build it on the first write to a grounded
        // session.
        if self.delta_index.is_none() {
            if let Some(Ok(gp)) = self.grounding.get() {
                self.delta_index = GroundingIndex::new(&self.program, &self.db, gp).ok();
            }
        }
        let db = Arc::make_mut(&mut self.db);
        let (mut inserted, mut consts) = (Vec::new(), Vec::new());
        for (pred_id, tuple) in resolved {
            consts.clear();
            consts.extend(tuple.iter().map(|c| db.constant(c)));
            let before = db.num_facts();
            let id = db.insert(pred_id, &consts);
            if db.num_facts() > before {
                inserted.push(id);
            }
        }
        if inserted.is_empty() {
            // Every fact was a duplicate: nothing changed (duplicates
            // cannot introduce constants either), no epoch bump.
            return Ok(DeltaOutcome {
                epoch: self.epoch,
                incremental: true,
                ..DeltaOutcome::default()
            });
        }

        let mut outcome = DeltaOutcome {
            facts: inserted,
            incremental: true,
            ..DeltaOutcome::default()
        };
        let index = self.delta_index.take();
        if let Some(cell) = self.grounding.take() {
            match (cell, index) {
                (Ok(mut arc), Some(mut index)) => {
                    // Copy-on-write: clones only when a live snapshot
                    // still shares the grounding — the price of snapshot
                    // isolation.
                    let gp = Arc::make_mut(&mut arc);
                    outcome.base_rules = gp.rules.len();
                    match extend_grounding(&self.program, &self.db, gp, &mut index, &self.exec()) {
                        Ok(()) => {
                            outcome.maintained = true;
                            // Re-seat WITHOUT a CacheEvent::Grounding:
                            // nothing was re-grounded from scratch.
                            let _ = self.grounding.set(Ok(arc));
                            self.delta_index = Some(index);
                        }
                        Err(_) => {
                            // The partially-extended grounding and its
                            // index are poisoned; drop both and let the
                            // next read re-ground from scratch (a rebuild
                            // can succeed where the extension overflowed:
                            // zombie rules from earlier retractions do
                            // not count against a fresh grounding).
                            outcome.incremental = false;
                        }
                    }
                }
                _ => {
                    // A cached grounding *failure* went stale with the
                    // database change (or no delta index could be built
                    // for the grounding); retry lazily.
                    outcome.incremental = false;
                }
            }
        }
        self.finish_delta(&mut outcome, true);
        Ok(outcome)
    }

    /// Retract a batch of EDB facts **without invalidating the cached
    /// grounding**: the facts are tombstoned in the database (ids are
    /// never reused — a later re-insert is genuinely new support) and, if
    /// the session has already grounded, every grounded rule citing a
    /// retracted fact is retired in place
    /// (`datalog::retract_facts_from_grounding`). The affected IDB facts
    /// stay in the grounding as *zombies* pinned at value 0 — keeping
    /// fact indices prefix-stable for live snapshots — and
    /// [`DeltaOutcome::roots`] reports the retired rules' heads, the cone
    /// roots for DRed-style value rederivation
    /// (`incremental::MaintainedFixpoint::apply_retract`).
    ///
    /// Errors — without touching any state — on unknown predicates and on
    /// facts that are not present (retracting an absent or derived fact
    /// is a [`Error::BadQuery`]). Cache handling (provenance, circuits,
    /// epoch) is as in [`insert_facts`](Engine::insert_facts).
    pub fn retract_facts(&mut self, facts: &[(&str, &[&str])]) -> Result<DeltaOutcome, Error> {
        // All-or-nothing validation, as for inserts.
        let mut resolved: Vec<(PredId, Vec<ConstId>, FactId)> = Vec::with_capacity(facts.len());
        for (pred, tuple) in facts {
            let Goal {
                pred: pred_id,
                consts,
            } = self.resolve(pred, tuple)?;
            let fid = consts.as_deref().and_then(|t| self.db.fact_id(pred_id, t));
            let (Some(consts), Some(fid)) = (consts, fid) else {
                return Err(Error::BadQuery(format!(
                    "cannot retract {pred}({}): no such EDB fact",
                    tuple.join(", ")
                )));
            };
            resolved.push((pred_id, consts, fid));
        }
        if resolved.is_empty() {
            return Ok(DeltaOutcome {
                epoch: self.epoch,
                incremental: true,
                ..DeltaOutcome::default()
            });
        }

        let db = Arc::make_mut(&mut self.db);
        let mut retracted: Vec<FactId> = Vec::new();
        for (pred_id, consts, fid) in &resolved {
            // A duplicate within the batch retracts once.
            if db.retract(*pred_id, consts).is_some() {
                retracted.push(*fid);
            }
        }

        let mut outcome = DeltaOutcome {
            facts: retracted,
            incremental: true,
            ..DeltaOutcome::default()
        };
        if let Some(cell) = self.grounding.take() {
            match cell {
                Ok(mut arc) => {
                    let gp = Arc::make_mut(&mut arc);
                    outcome.base_rules = gp.rules.len();
                    outcome.roots = retract_facts_from_grounding(gp, &outcome.facts);
                    if let Some(index) = &mut self.delta_index {
                        index.retract(&self.db, &outcome.facts);
                    }
                    outcome.maintained = true;
                    let _ = self.grounding.set(Ok(arc));
                }
                Err(_) => {
                    outcome.incremental = false;
                }
            }
        }
        self.finish_delta(&mut outcome, false);
        Ok(outcome)
    }

    /// Shared tail of a write batch (an insert when `insert`): clear the
    /// value-level caches that cannot be maintained in place, bump the
    /// epoch, count the batch, then repair the cached fixpoints — or drop
    /// them when no grounding was maintained.
    fn finish_delta(&mut self, outcome: &mut DeltaOutcome, insert: bool) {
        // The provenance fixpoint is cleared, not repaired: BoundedLayered
        // unrolls circuits to its *naive iteration count*, and an in-place
        // value repair cannot reproduce that measurement. Circuits embed
        // fact indexing + provenance layering, so they go with it.
        self.provenance.take();
        self.circuits = Mutex::default();
        self.multi_outputs = Mutex::default();
        self.epoch += 1;
        outcome.epoch = self.epoch;
        if !outcome.incremental {
            self.metrics.counter(Counter::IncrementalFallbacks, 1);
        }
        if outcome.maintained {
            self.metrics.counter(Counter::IncrementalApplied, 1);
            self.fixpoints.repair(self, outcome, insert);
        } else {
            self.fixpoints.clear();
        }
    }

    /// Run the session's fixpoint over any semiring under a valuation,
    /// over the cached grounding. The raw [`EvalOutcome`] exposes
    /// iterations-to-fixpoint; non-convergence is reported in the
    /// outcome, not as an error.
    ///
    /// Under the default [`EvalStrategy::SemiNaive`], `iterations` counts
    /// delta rounds. The §4 boundedness probes interpret *naive* ICO
    /// applications — build the session with
    /// `.eval_strategy(EvalStrategy::Naive)` for those.
    pub fn fixpoint<S, V>(&self, valuation: &V) -> Result<EvalOutcome<S>, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        Ok(self.fixpoint_over(self.grounding()?, valuation))
    }

    /// A copy of the session for concurrent readers, sharing every cached
    /// artifact by `Arc`: the grounding (forced first, so readers never
    /// ground anew), the classification and the provenance fixpoint if
    /// computed (a snapshot that needs one the session has not computed
    /// computes its own, on first use), and the compiled circuits, which the
    /// snapshot serves as cache hits (circuits it compiles itself stay in
    /// its own cache). Nothing is deep-copied — the snapshot carries no
    /// delta index — so a serving layer can snapshot after every write;
    /// later writes to `self` copy what the snapshot still shares and
    /// leave it on its epoch.
    ///
    /// Grounding failures surface here exactly as they do from
    /// [`Engine::grounding`].
    pub fn snapshot(&self) -> Result<Engine, Error> {
        let grounding = self.grounding_cell().clone()?;
        Ok(Engine {
            program: Arc::clone(&self.program),
            preds: Arc::clone(&self.preds),
            db: Arc::clone(&self.db),
            graph: self.graph.clone(),
            edge_facts: Arc::clone(&self.edge_facts),
            node_of_const: Arc::clone(&self.node_of_const),
            horizon: self.horizon,
            max_ground_rules: self.max_ground_rules,
            eval_budget: self.eval_budget,
            eval_strategy: self.eval_strategy,
            parallelism: self.parallelism,
            pipeline: self.pipeline,
            epoch: self.epoch,
            grounding: OnceLock::from(Ok(grounding)),
            delta_index: None,
            classification: self
                .classification
                .get()
                .map_or_else(OnceLock::new, |c| OnceLock::from(Arc::clone(c))),
            provenance: self.provenance.clone(),
            circuits: Mutex::new(lock(&self.circuits).clone()),
            multi_outputs: Mutex::new(lock(&self.multi_outputs).clone()),
            fixpoints: Arc::clone(&self.fixpoints),
            metrics: Arc::clone(&self.metrics),
        })
    }

    /// The session's telemetry collector as a shareable handle — what a
    /// serving layer passes to [`EngineBuilder::metrics_collector`] so a
    /// rebuilt engine keeps accumulating into the same stream.
    pub fn metrics_handle(&self) -> Arc<PipelineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The provenance fixpoint over [`Sorp`] (every fact tagged by its own
    /// variable) — computed once, then cached. Backing store of
    /// [`Query::provenance`] and of the `BoundedLayered` probe.
    /// A [`Error::Diverged`] outcome is cached as well, so a divergent
    /// session fails fast instead of re-running the fixpoint.
    ///
    /// This run is **always naive**, whatever the session's
    /// [`EvalStrategy`]: `BoundedLayered` unrolls the grounded circuit to
    /// this outcome's `iterations`, and only naive ICO applications bound
    /// the derivation depth — semi-naive rounds can be fewer, which would
    /// cut proof trees off. The *values* would be identical either way
    /// ([`Sorp`] is absorptive).
    pub fn provenance_outcome(&self) -> Result<&EvalOutcome<Sorp>, Error> {
        self.provenance
            .get_or_init(|| {
                let budget = self.budget()?;
                let gp = self.grounding()?;
                let out = telemetry::time(&*self.metrics, Stage::Provenance, || {
                    eval_with_strategy(
                        EvalStrategy::Naive,
                        gp,
                        &VarTags,
                        budget,
                        &*self.metrics,
                        Stage::Provenance,
                    )
                });
                self.metrics.cache_event(CacheEvent::ProvenanceRun);
                if !out.converged {
                    return Err(Error::Diverged { iterations: budget });
                }
                Ok(Arc::new(out))
            })
            .as_ref()
            .map(|arc| &**arc)
            .map_err(Error::clone)
    }

    /// A query handle for the fact `pred(tuple…)`.
    ///
    /// Errors on unknown predicates and arity mismatches. Constants outside
    /// the active domain are *not* errors: the fact is simply underivable
    /// and evaluates to `0` (matching the paper's semantics).
    pub fn query<'e>(&'e self, pred: &str, tuple: &[&str]) -> Result<Query<'e>, Error> {
        Ok(Query {
            engine: self,
            goal: self.resolve(pred, tuple)?,
        })
    }

    /// Graph-session shorthand: the target fact `target(v{src}, v{dst})`.
    pub fn node_query(&self, src: NodeId, dst: NodeId) -> Result<Query<'_>, Error> {
        if self.graph.is_none() {
            return Err(Error::unsupported(
                "node_query needs a session built from a graph",
            ));
        }
        let target = self.program.preds.name(self.program.target).to_owned();
        let (s, d) = (format!("v{src}"), format!("v{dst}"));
        self.query(&target, &[&s, &d])
    }

    /// Resolve `Auto` against the cached classification. The graph
    /// strategies only apply to the binary target fact over graph nodes;
    /// every other query falls back to the database strategies.
    fn resolve_strategy(&self, query: &Query<'_>, strategy: Strategy) -> Strategy {
        match strategy {
            Strategy::Auto => {
                let graph_target = self.graph.is_some()
                    && query.goal.pred == self.program.target
                    && query.goal.consts.as_ref().is_none_or(|c| {
                        c.len() == 2 && c.iter().all(|c| self.node_of_const.contains_key(c))
                    });
                if graph_target {
                    compile::resolve_graph_auto(self.classification())
                } else {
                    compile::resolve_db_auto(self.classification())
                }
            }
            s => s,
        }
    }

    /// Compile (or fetch from cache) the circuit of a query.
    fn compile(&self, query: &Query<'_>, strategy: Strategy) -> Result<Arc<Compiled>, Error> {
        let resolved = self.resolve_strategy(query, strategy);

        let Some(consts) = query.goal.consts.clone() else {
            // Constants outside the domain: the constant-0 circuit. Not a
            // real compilation — the work counters are left untouched.
            return Ok(Arc::new(self.assemble(constant_zero(), resolved)));
        };

        let key = (query.goal.pred, consts, resolved);
        if let Some(hit) = lock(&self.circuits).get(&key) {
            self.metrics.cache_event(CacheEvent::CircuitCacheHit);
            return Ok(Arc::clone(hit));
        }

        let circuit = match resolved {
            Strategy::Auto => unreachable!("resolved above"),
            Strategy::MagicFiniteRpq | Strategy::ProductBellmanFord | Strategy::ProductSquaring => {
                let graph = self.graph.as_ref().ok_or_else(|| {
                    Error::unsupported(format!(
                        "strategy {resolved:?} needs a graph fact; build the engine from a \
                         graph or use compile_graph_fact"
                    ))
                })?;
                let (src, dst) = self.node_pair(query, &key.1)?;
                if resolved == Strategy::MagicFiniteRpq {
                    telemetry::time(&*self.metrics, Stage::CircuitBuild, || {
                        circuit::finite_rpq_circuit(&self.program, graph, src, dst)
                    })?
                    .circuit
                } else {
                    let dfa = compile::chain_program_dfa(&self.program, graph)?;
                    let tc = if resolved == Strategy::ProductBellmanFord {
                        circuit::TcStrategy::BellmanFord
                    } else {
                        circuit::TcStrategy::RepeatedSquaring
                    };
                    telemetry::time(&*self.metrics, Stage::CircuitBuild, || {
                        circuit::rpq_circuit(graph, &dfa, src, dst, tc)
                    })
                }
            }
            Strategy::GroundedFixpoint | Strategy::BoundedLayered | Strategy::UllmanVanGelder => {
                match query.fact_index()? {
                    None => constant_zero(),
                    Some(fact) => {
                        let mo = self.multi_output(resolved)?;
                        telemetry::time(&*self.metrics, Stage::CircuitBuild, || {
                            mo.circuit_for(fact)
                        })
                    }
                }
            }
        };

        let compiled = Arc::new(self.finish_compiled(circuit, resolved));
        lock(&self.circuits).insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// The shared all-facts circuit of a grounded-family strategy —
    /// constructed once per strategy and cached, so compiling k distinct
    /// facts builds the arena once and extracts k cones instead of
    /// rebuilding it k times.
    fn multi_output(&self, resolved: Strategy) -> Result<Arc<circuit::MultiOutput>, Error> {
        if let Some(mo) = lock(&self.multi_outputs).get(&resolved) {
            return Ok(Arc::clone(mo));
        }
        let mo = Arc::new(match resolved {
            Strategy::GroundedFixpoint => {
                let gp = self.grounding()?;
                telemetry::time(&*self.metrics, Stage::CircuitBuild, || {
                    circuit::grounded_circuit(gp, None)
                })
            }
            Strategy::BoundedLayered => {
                // Provenance probe for the boundedness constant (exact over
                // the universal absorptive semiring) — cached.
                let layers = self.provenance_outcome()?.iterations;
                let gp = self.grounding()?;
                telemetry::time(&*self.metrics, Stage::CircuitBuild, || {
                    circuit::grounded_circuit(gp, Some(layers))
                })
            }
            Strategy::UllmanVanGelder => {
                let gp = self.grounding()?;
                telemetry::time(&*self.metrics, Stage::CircuitBuild, || {
                    circuit::uvg_circuit(gp, None)
                })
            }
            other => unreachable!("{other:?} is not a grounded-family strategy"),
        });
        lock(&self.multi_outputs).insert(resolved, Arc::clone(&mo));
        Ok(mo)
    }

    fn finish_compiled(&self, circuit: Circuit, resolved: Strategy) -> Compiled {
        self.metrics.cache_event(CacheEvent::CircuitBuilt);
        self.assemble(circuit, resolved)
    }

    fn assemble(&self, circuit: Circuit, resolved: Strategy) -> Compiled {
        let stats = circuit::stats(&circuit);
        Compiled {
            circuit,
            strategy: resolved,
            stats,
            classification: self.classification().clone(),
        }
    }

    /// Map a binary target tuple back onto graph node ids.
    fn node_pair(&self, query: &Query<'_>, consts: &[ConstId]) -> Result<(NodeId, NodeId), Error> {
        if query.goal.pred != self.program.target || consts.len() != 2 {
            return Err(Error::unsupported(
                "graph strategies compile binary target facts over graph nodes",
            ));
        }
        let node = |c: ConstId| {
            self.node_of_const
                .get(&c)
                .copied()
                .ok_or_else(|| Error::BadQuery("constant does not name a graph node".into()))
        };
        Ok((node(consts[0])?, node(consts[1])?))
    }
}

/// A handle on one queried fact; created by [`Engine::query`].
///
/// Construction is cheap: the grounding is only materialized by the
/// methods that need it ([`eval`], [`provenance`], [`fact_index`], and the
/// grounded-family strategies of [`circuit`]) — the graph product
/// strategies compile without ever grounding.
///
/// [`eval`]: Query::eval
/// [`provenance`]: Query::provenance
/// [`fact_index`]: Query::fact_index
/// [`circuit`]: Query::circuit
#[derive(Clone, Debug)]
pub struct Query<'e> {
    engine: &'e Engine,
    goal: Goal,
}

impl Query<'_> {
    /// The queried predicate.
    pub fn pred(&self) -> PredId {
        self.goal.pred
    }

    /// Index of the fact in the grounded program, when grounded.
    /// Forces the (cached) grounding.
    ///
    /// After a retraction this is *membership*, not derivability: facts
    /// severed by [`Engine::retract_facts`] stay in the grounding as
    /// zombies (keeping indices stable for live snapshots) but evaluate
    /// to `0` — [`is_derivable`](Query::is_derivable) tells them apart.
    pub fn fact_index(&self) -> Result<Option<usize>, Error> {
        if self.goal.consts.is_none() {
            return Ok(None);
        }
        Ok(self.goal.fact_in(self.engine.grounding()?))
    }

    /// Whether the fact is derivable at all: its [`eval`](Query::eval)
    /// over [`semiring::Bool`], through the session's [`Pipeline`].
    ///
    /// Decided by evaluation, not grounding membership: on a session that
    /// has seen [`Engine::retract_facts`], the grounding retains
    /// underivable zombie facts pinned at `0`, and this answer must stay
    /// bit-identical to a from-scratch rebuild.
    pub fn is_derivable(&self) -> Result<bool, Error> {
        Ok(self.eval::<semiring::Bool, _>(&AllOnes)?.0)
    }

    /// Evaluate the fact over any semiring under a valuation, through the
    /// session's [`Pipeline`] (materialized by default). Underivable
    /// facts evaluate to `0`.
    ///
    /// * [`Pipeline::Materialized`] runs one fixpoint over the (cached)
    ///   grounding with the session's [`EvalStrategy`]. To evaluate
    ///   *many* facts under the same valuation, hand them to
    ///   [`Engine::answer`] as one group.
    /// * [`Pipeline::Magic`] rewrites the program for the goal's bound
    ///   first argument and grounds only the query cone
    ///   ([`datalog::magic_point_eval`]); goals the rewrite does not
    ///   cover fall back to the materialized pipeline.
    ///
    /// Both produce bit-identical values ([`Engine::answer`] is the
    /// one evaluator behind every route). Errors with
    /// [`Error::Diverged`] when the semiring/valuation pair does not
    /// reach a fixpoint within the session budget (e.g. the counting
    /// semiring on a cyclic instance); the magic pipeline can converge
    /// where the materialized one diverges if the divergent component
    /// lies outside the query cone.
    pub fn eval<S, V>(&self, valuation: &V) -> Result<S, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let goals = std::slice::from_ref(&self.goal);
        let mut answers = self.engine.answer(self.engine.pipeline, valuation, goals);
        answers.pop().expect("one goal in, one answer out")
    }

    /// The fact's provenance polynomial (paper §2.4), from the cached
    /// [`Sorp`] fixpoint. Underivable facts yield the zero polynomial.
    pub fn provenance(&self) -> Result<Sorp, Error> {
        match self.fact_index()? {
            None => Ok(Sorp::zero()),
            Some(fact) => Ok(self.engine.provenance_outcome()?.values[fact].clone()),
        }
    }

    /// Compile the fact's provenance circuit with the given strategy
    /// (`Strategy::Auto` dispatches on the cached classification). Results
    /// are cached per `(fact, resolved strategy)` and shared: a cache hit
    /// is an `Arc` bump, not a copy of the gate arena.
    pub fn circuit(&self, strategy: Strategy) -> Result<Arc<Compiled>, Error> {
        self.engine.compile(self, strategy)
    }

    /// Compile the fact's provenance circuit (cached, like
    /// [`circuit`](Query::circuit)) and evaluate it bottom-up
    /// ([`Circuit::eval`]) — the circuit-side twin of
    /// [`eval`](Query::eval). The pass is sequential at every
    /// [`parallelism`](Engine::parallelism) and is timed under
    /// `Stage::CircuitEval` in the session's metrics.
    pub fn circuit_eval<S, V>(&self, strategy: Strategy, assign: &V) -> Result<S, Error>
    where
        S: Semiring,
        V: Valuation<S> + ?Sized,
    {
        let compiled = self.circuit(strategy)?;
        Ok(telemetry::time(
            &*self.engine.metrics,
            Stage::CircuitEval,
            || compiled.circuit.eval(assign),
        ))
    }
}

fn constant_zero() -> Circuit {
    let mut b = circuit::CircuitBuilder::new();
    let z = b.zero();
    b.finish(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::programs;
    use graphgen::generators;
    use semiring::prelude::*;

    fn figure1() -> LabeledDigraph {
        // s=0, u1=1, u2=2, v1=3, v2=4, t=5 (paper Figure 1).
        let mut g = LabeledDigraph::new(6);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)] {
            g.add_edge(u, v, "E");
        }
        g
    }

    #[test]
    fn grounding_and_classification_are_computed_once() {
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&figure1())
            .build()
            .unwrap();
        for _ in 0..3 {
            let q = engine.query("T", &["v0", "v5"]).unwrap();
            assert!(q.is_derivable().unwrap());
            q.eval::<Bool, _>(&AllOnes).unwrap();
            q.circuit(Strategy::Auto).unwrap();
            q.provenance().unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.groundings, 1, "{stats:?}");
        assert_eq!(stats.classifications, 1, "{stats:?}");
        assert_eq!(stats.provenance_runs, 1, "{stats:?}");
        assert_eq!(stats.circuits_built, 1, "{stats:?}");
        assert_eq!(stats.circuit_cache_hits, 2, "{stats:?}");
    }

    #[test]
    fn text_to_answer_without_touching_internals() {
        let engine = Engine::builder()
            .program_text("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).")
            .graph(&generators::path(4, "E"))
            .build()
            .unwrap();
        let q = engine.node_query(0, 4).unwrap();
        assert_eq!(
            q.eval(&UnitWeights::new(Tropical::new(1))).unwrap(),
            Tropical::new(4)
        );
        assert_eq!(q.provenance().unwrap().len(), 1);
    }

    #[test]
    fn product_strategies_never_ground() {
        // The graph constructions (Thms 5.6–5.8) work on the graph itself;
        // querying and compiling through them must not pay the O(n²·m)
        // grounding the grounded-family strategies need.
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::gnm(8, 20, &["E"], 1))
            .build()
            .unwrap();
        let q = engine.node_query(0, 5).unwrap();
        q.circuit(Strategy::ProductSquaring).unwrap();
        q.circuit(Strategy::ProductBellmanFord).unwrap();
        assert_eq!(engine.cache_stats().groundings, 0);
    }

    #[test]
    fn cached_failures_replay_without_recomputation() {
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::complete(6, "E"))
            .max_grounded_rules(10)
            .build()
            .unwrap();
        for _ in 0..3 {
            assert!(matches!(
                engine.grounding().unwrap_err(),
                Error::GroundingLimit { max_rules: 10 }
            ));
        }
        // The failed grounding ran once, not three times.
        assert_eq!(engine.cache_stats().groundings, 1);
    }

    #[test]
    fn bad_seed_facts_are_rejected_at_build() {
        let typo = Engine::builder()
            .program(programs::monadic_reachability())
            .graph(&generators::path(3, "E"))
            .fact("a", &["v3"])
            .build();
        assert!(matches!(typo.unwrap_err(), Error::UnknownPredicate(_)));
        let arity = Engine::builder()
            .program(programs::monadic_reachability())
            .graph(&generators::path(3, "E"))
            .fact("A", &["v3", "v2"])
            .build();
        assert!(matches!(arity.unwrap_err(), Error::BadQuery(_)));
        // IDB facts are derived: a seed is rejected as an insert would be.
        let idb = Engine::builder()
            .program(programs::monadic_reachability())
            .graph(&generators::path(3, "E"))
            .fact("U", &["v3"])
            .build();
        let err = idb.unwrap_err().to_string();
        assert!(err.contains("U is an IDB predicate"), "{err}");
    }

    #[test]
    fn seeded_facts_reach_the_grounding() {
        let engine = Engine::builder()
            .program(programs::monadic_reachability())
            .graph(&generators::path(3, "E"))
            .fact("A", &["v3"])
            .build()
            .unwrap();
        let q = engine.query("U", &["v0"]).unwrap();
        assert!(q.is_derivable().unwrap());
        assert_eq!(q.eval::<Bool, _>(&AllOnes).unwrap(), Bool(true));
    }

    #[test]
    fn unknown_constants_are_zero_not_errors() {
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(2, "E"))
            .build()
            .unwrap();
        let q = engine.query("T", &["v0", "nosuch"]).unwrap();
        assert!(!q.is_derivable().unwrap());
        assert_eq!(q.eval::<Bool, _>(&AllOnes).unwrap(), Bool(false));
        assert!(q
            .circuit(Strategy::GroundedFixpoint)
            .unwrap()
            .circuit
            .polynomial()
            .is_empty());
        assert!(q.provenance().unwrap().is_empty());
    }

    #[test]
    fn bad_queries_are_typed_errors() {
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(2, "E"))
            .build()
            .unwrap();
        assert!(matches!(
            engine.query("Nope", &["v0", "v1"]).unwrap_err(),
            Error::UnknownPredicate(_)
        ));
        assert!(matches!(
            engine.query("T", &["v0"]).unwrap_err(),
            Error::BadQuery(_)
        ));
    }

    #[test]
    fn eval_strategies_agree_through_the_facade() {
        let g = generators::gnm(7, 18, &["E"], 4);
        let semi = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&g)
            .build()
            .unwrap();
        assert_eq!(semi.eval_strategy(), EvalStrategy::SemiNaive);
        let naive = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&g)
            .eval_strategy(EvalStrategy::Naive)
            .build()
            .unwrap();
        assert_eq!(naive.eval_strategy(), EvalStrategy::Naive);
        for src in 0..7u32 {
            for dst in 0..7u32 {
                let unit = UnitWeights::new(Tropical::new(1));
                let a: Tropical = semi.node_query(src, dst).unwrap().eval(&unit).unwrap();
                let b: Tropical = naive.node_query(src, dst).unwrap().eval(&unit).unwrap();
                assert_eq!(a, b, "({src},{dst})");
            }
        }
        // The strategy switch must not disturb the caching contract.
        assert_eq!(semi.cache_stats().groundings, 1);
        assert_eq!(naive.cache_stats().groundings, 1);
    }

    #[test]
    fn parallel_sessions_match_sequential_byte_for_byte() {
        // parallelism(1) is the sequential code path; parallelism(4) must
        // reproduce its grounding (same FactId order) and its answers.
        let g = generators::gnm(8, 20, &["E"], 6);
        let seq = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&g)
            .parallelism(1)
            .build()
            .unwrap();
        let par = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&g)
            .parallelism(4)
            .build()
            .unwrap();
        assert_eq!(seq.parallelism(), 1);
        assert_eq!(par.parallelism(), 4);
        let gs = seq.grounding().unwrap();
        let gparallel = par.grounding().unwrap();
        assert!(gs.idb_facts().eq(gparallel.idb_facts()));
        assert_eq!(gs.rules, gparallel.rules);
        let unit = UnitWeights::new(Tropical::new(1));
        for src in 0..8u32 {
            for dst in 0..8u32 {
                let a: Tropical = seq.node_query(src, dst).unwrap().eval(&unit).unwrap();
                let b: Tropical = par.node_query(src, dst).unwrap().eval(&unit).unwrap();
                assert_eq!(a, b, "({src},{dst})");
            }
        }
        // The provenance probe stays naive and bit-identical, iterations
        // included (they feed the Theorem 4.3 layering).
        let ps = seq.provenance_outcome().unwrap();
        let pp = par.provenance_outcome().unwrap();
        assert_eq!(ps.values, pp.values);
        assert_eq!(ps.iterations, pp.iterations);
        // Circuits compiled from the bit-identical groundings evaluate to
        // the same values.
        for (src, dst) in [(0u32, 4u32), (1, 5), (2, 7)] {
            let a: Tropical = seq
                .node_query(src, dst)
                .unwrap()
                .circuit_eval(Strategy::Auto, &unit)
                .unwrap();
            let b: Tropical = par
                .node_query(src, dst)
                .unwrap()
                .circuit_eval(Strategy::Auto, &unit)
                .unwrap();
            assert_eq!(a, b, "circuit ({src},{dst})");
        }
    }

    #[test]
    fn circuit_eval_is_one_sequential_pass_at_every_parallelism() {
        // Dyck-1 (Example 6.4) over a balanced word: the value does not
        // depend on the session's parallelism, and the pass is timed as
        // one `circuit_eval` span with no per-worker shard rows.
        let g = generators::dyck_path(6, 3);
        let end = g.num_nodes() as u32 - 1;
        let run = |threads: usize| {
            let engine = Engine::builder()
                .program(programs::dyck1())
                .graph(&g)
                .parallelism(threads)
                .telemetry(true)
                .build()
                .unwrap();
            let q = engine.node_query(0, end).unwrap();
            let unit = UnitWeights::new(Tropical::new(1));
            let weight: Tropical = q.circuit_eval(Strategy::Auto, &unit).unwrap();
            let poly: Sorp = q.circuit_eval(Strategy::Auto, &VarTags).unwrap();
            let report = engine.metrics_report();
            let spans = report.stages.iter().find(|l| l.stage == Stage::CircuitEval);
            assert_eq!(spans.map(|l| l.calls), Some(2), "threads={threads}");
            assert!(
                report
                    .shards
                    .iter()
                    .all(|((s, _), _)| *s != Stage::CircuitEval),
                "threads={threads}"
            );
            (weight, poly)
        };
        let seq = run(1);
        assert_eq!(seq.0, Tropical::new(12));
        assert_eq!(seq, run(4));
    }

    #[test]
    fn parallelism_knob_is_clamped_and_defaulted() {
        let clamped = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(2, "E"))
            .parallelism(0)
            .build()
            .unwrap();
        assert_eq!(clamped.parallelism(), 1);
        let defaulted = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(2, "E"))
            .build()
            .unwrap();
        assert!(defaulted.parallelism() >= 1);
    }

    #[test]
    fn seminaive_fallback_is_counted() {
        // Counting is not ⊕-idempotent: a SemiNaive session silently runs
        // naive — the downgrade must be observable in the cache stats.
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .build()
            .unwrap();
        assert_eq!(engine.cache_stats().seminaive_fallbacks, 0);
        let out = engine
            .fixpoint::<Counting, _>(&UnitWeights::new(Counting::new(1)))
            .unwrap();
        assert_eq!(out.strategy, EvalStrategy::Naive);
        assert_eq!(engine.cache_stats().seminaive_fallbacks, 1);
        // Idempotent semirings stay on the delta path: no extra count.
        let out = engine.fixpoint::<Bool, _>(&AllOnes).unwrap();
        assert_eq!(out.strategy, EvalStrategy::SemiNaive);
        assert_eq!(engine.cache_stats().seminaive_fallbacks, 1);
        // A Naive-strategy session never "falls back" — it asked for naive.
        let naive = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .eval_strategy(EvalStrategy::Naive)
            .build()
            .unwrap();
        naive
            .fixpoint::<Counting, _>(&UnitWeights::new(Counting::new(1)))
            .unwrap();
        assert_eq!(naive.cache_stats().seminaive_fallbacks, 0);
    }

    #[test]
    fn divergence_is_reported() {
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::cycle(3, "E"))
            .build()
            .unwrap();
        let q = engine.query("T", &["v0", "v1"]).unwrap();
        assert!(matches!(
            q.eval(&UnitWeights::new(Counting::new(1))).unwrap_err(),
            Error::Diverged { .. }
        ));
        // The same engine still answers convergent questions.
        assert_eq!(q.eval::<Bool, _>(&AllOnes).unwrap(), Bool(true));
    }

    #[test]
    fn strategies_agree_through_the_facade() {
        let engine = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::gnm(6, 13, &["E"], 2))
            .build()
            .unwrap();
        let q = engine.node_query(0, 5).unwrap();
        let reference = q
            .circuit(Strategy::GroundedFixpoint)
            .unwrap()
            .circuit
            .polynomial();
        for strat in [
            Strategy::ProductBellmanFord,
            Strategy::ProductSquaring,
            Strategy::UllmanVanGelder,
            Strategy::Auto,
        ] {
            let c = q.circuit(strat).unwrap();
            assert_eq!(c.circuit.polynomial(), reference, "{strat:?}");
        }
    }

    #[test]
    fn auto_on_non_target_queries_falls_back_to_db_strategies() {
        // A chain program with helper IDBs: Auto on the graph target uses a
        // graph construction, Auto on a helper predicate must not try one.
        let engine = Engine::builder()
            .program_text(
                "P3(X,Y) :- P2(X,Z), E(Z,Y).\n\
                 P2(X,Y) :- P1(X,Z), E(Z,Y).\n\
                 P1(X,Y) :- E(X,Y).\n\
                 @target P3",
            )
            .graph(&generators::path(3, "E"))
            .build()
            .unwrap();
        let target = engine
            .node_query(0, 3)
            .unwrap()
            .circuit(Strategy::Auto)
            .unwrap();
        assert_eq!(target.strategy, Strategy::MagicFiniteRpq);
        let helper = engine
            .query("P1", &["v0", "v1"])
            .unwrap()
            .circuit(Strategy::Auto)
            .unwrap();
        assert!(
            !matches!(
                helper.strategy,
                Strategy::MagicFiniteRpq | Strategy::ProductBellmanFord | Strategy::ProductSquaring
            ),
            "{:?}",
            helper.strategy
        );
        assert_eq!(helper.circuit.polynomial().len(), 1);
    }

    #[test]
    fn default_builder_matches_new() {
        let engine = EngineBuilder::default()
            .program(programs::transitive_closure())
            .graph(&generators::path(2, "E"))
            .build()
            .unwrap();
        // horizon 5 (not 0): the boundedness probe actually runs.
        assert_eq!(engine.classification().boundedness.verdict, {
            let via_new = Engine::builder()
                .program(programs::transitive_closure())
                .graph(&generators::path(2, "E"))
                .build()
                .unwrap();
            via_new.classification().boundedness.verdict.clone()
        });
    }

    #[test]
    fn graph_strategies_need_a_graph_session() {
        let mut p = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p, &generators::path(2, "E"));
        let engine = Engine::builder().program(p).database(db).build().unwrap();
        let q = engine.query("T", &["v0", "v2"]).unwrap();
        let err = q.circuit(Strategy::ProductSquaring).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn builder_misuse_is_rejected() {
        assert!(Engine::builder().build().is_err());
        let both = Engine::builder()
            .program(programs::transitive_closure())
            .program_text("T(X,Y) :- E(X,Y).")
            .build();
        assert!(both.is_err());
        let bad = Engine::builder().program_text("T(X,Y :-").build();
        assert!(matches!(bad.unwrap_err(), Error::Parse { .. }));
    }

    #[test]
    fn grounding_limit_is_enforced_and_typed() {
        // The cap holds on the materialized grounding at any parallelism.
        for threads in [1usize, 4] {
            let engine = Engine::builder()
                .program(programs::transitive_closure())
                .graph(&generators::complete(6, "E"))
                .max_grounded_rules(10)
                .parallelism(threads)
                .build()
                .unwrap();
            let err = engine
                .node_query(0, 5)
                .unwrap()
                .eval::<Tropical, _>(&UnitWeights::new(Tropical::new(1)))
                .unwrap_err();
            assert_eq!(
                err,
                Error::GroundingLimit { max_rules: 10 },
                "at parallelism {threads}"
            );
        }
    }

    #[test]
    fn insert_maintains_the_cached_grounding_in_place() {
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(4, "E"))
            .build()
            .unwrap();
        // Force the grounding, then extend the path by a brand-new node.
        assert!(engine
            .query("T", &["v0", "v4"])
            .unwrap()
            .is_derivable()
            .unwrap());
        let out = engine.insert_fact("E", &["v4", "v5"]).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.facts.len(), 1);
        assert!(out.maintained && out.incremental);
        assert!(out.base_rules > 0);
        assert_eq!(engine.epoch(), 1);
        // The delta was grounded against the cache: no second grounding.
        assert_eq!(engine.cache_stats().groundings, 1);
        assert_eq!(
            engine
                .metrics_handle()
                .counter_value(Counter::IncrementalApplied),
            1
        );
        // The new derivation is there, with the right tropical distance.
        let q = engine.query("T", &["v0", "v5"]).unwrap();
        assert_eq!(
            q.eval(&semiring::UnitWeights::new(Tropical::new(1)))
                .unwrap(),
            Tropical::new(5)
        );
        assert_eq!(engine.cache_stats().groundings, 1);
    }

    #[test]
    fn insert_validation_is_all_or_nothing() {
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .build()
            .unwrap();
        let facts_before = engine.database().num_facts();
        assert!(matches!(
            engine.insert_fact("Z", &["v0", "v1"]),
            Err(Error::UnknownPredicate(_))
        ));
        assert!(matches!(
            engine.insert_fact("T", &["v0", "v1"]), // IDB: derived, not writable
            Err(Error::BadQuery(_))
        ));
        // A bad fact anywhere in the batch rejects the whole batch.
        assert!(matches!(
            engine.insert_facts(&[("E", &["v3", "v4"]), ("E", &["v0"])]),
            Err(Error::BadQuery(_))
        ));
        assert_eq!(engine.database().num_facts(), facts_before);
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn writes_to_a_label_no_rule_names_are_arity_checked() {
        // `F` labels an edge of the graph but no rule names it: its arity
        // is its relation's in the database.
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::word_path(&["E", "F", "E"]))
            .build()
            .unwrap();
        let f = engine.program().preds.get("F").unwrap();
        let facts_before = engine.database().num_facts();
        assert!(matches!(
            engine.insert_fact("F", &["v0"]),
            Err(Error::BadQuery(_))
        ));
        assert_eq!(engine.database().num_facts(), facts_before);
        assert_eq!(engine.database().facts_of(f).len(), 1);
        assert_eq!(engine.epoch(), 0);
        let out = engine.insert_fact("F", &["v0", "v2"]).unwrap();
        assert_eq!(out.facts.len(), 1);
        assert_eq!(engine.database().facts_of(f).len(), 2);
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn a_database_at_another_arity_than_the_rules_is_rejected_at_build() {
        let program = programs::transitive_closure();
        let e = program.preds.get("E").unwrap();
        let mut db = Database::new();
        let a = db.constant("a");
        db.insert(e, &[a]);
        let built = Engine::builder().program(program).database(db).build();
        assert!(matches!(built, Err(Error::InvalidProgram(_))));
    }

    #[test]
    fn duplicate_inserts_are_no_ops() {
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .build()
            .unwrap();
        let out = engine.insert_fact("E", &["v0", "v1"]).unwrap();
        assert_eq!(out.epoch, 0);
        assert!(out.facts.is_empty());
        assert!(out.incremental && !out.maintained);
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn retract_retires_rules_and_keeps_fact_indices_stable() {
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(4, "E"))
            .build()
            .unwrap();
        let reachable = engine.query("T", &["v0", "v4"]).unwrap();
        assert!(reachable.is_derivable().unwrap());
        let idb_before = engine.grounding().unwrap().num_idb_facts();

        let out = engine.retract_fact("E", &["v1", "v2"]).unwrap();
        assert!(out.maintained && out.incremental);
        assert!(!out.roots.is_empty());
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.cache_stats().groundings, 1);

        // Severed: everything across the cut is now underivable — the facts
        // stay in the grounding as zombies (stable indices) at value 0.
        let gp = engine.grounding().unwrap();
        assert_eq!(gp.num_idb_facts(), idb_before);
        assert!(!engine
            .query("T", &["v0", "v4"])
            .unwrap()
            .is_derivable()
            .unwrap());
        assert!(!engine
            .query("T", &["v0", "v2"])
            .unwrap()
            .is_derivable()
            .unwrap());
        // Still derivable on the surviving prefix/suffix.
        assert!(engine
            .query("T", &["v0", "v1"])
            .unwrap()
            .is_derivable()
            .unwrap());
        assert!(engine
            .query("T", &["v2", "v4"])
            .unwrap()
            .is_derivable()
            .unwrap());
        assert_eq!(engine.cache_stats().groundings, 1);
    }

    #[test]
    fn retracting_an_absent_or_derived_fact_is_an_error() {
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .build()
            .unwrap();
        assert!(matches!(
            engine.retract_fact("E", &["v0", "v2"]), // no such edge
            Err(Error::BadQuery(_))
        ));
        assert!(matches!(
            engine.retract_fact("T", &["v0", "v1"]), // derived, not EDB
            Err(Error::BadQuery(_))
        ));
        assert!(matches!(
            engine.retract_fact("Z", &["v0"]),
            Err(Error::UnknownPredicate(_))
        ));
        assert_eq!(engine.epoch(), 0);
        // Retracting then re-inserting yields a *fresh* fact id.
        let gone = engine.retract_fact("E", &["v0", "v1"]).unwrap();
        let back = engine.insert_fact("E", &["v0", "v1"]).unwrap();
        assert_ne!(gone.facts, back.facts);
        assert!(engine
            .query("T", &["v0", "v2"])
            .unwrap()
            .is_derivable()
            .unwrap());
    }

    #[test]
    fn insert_falls_back_to_regrounding_when_the_extension_overflows() {
        // Cap the grounding just above the initial size so the delta
        // extension overflows the budget.
        let probe = Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .build()
            .unwrap();
        let base_rules = probe.grounding().unwrap().rules.len();

        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(3, "E"))
            .max_grounded_rules(base_rules)
            .build()
            .unwrap();
        engine.grounding().unwrap();
        let out = engine.insert_fact("E", &["v3", "v4"]).unwrap();
        // The write itself succeeds; only the cache maintenance gave up.
        assert!(!out.incremental && !out.maintained);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(
            engine
                .metrics_handle()
                .counter_value(Counter::IncrementalFallbacks),
            1
        );
        // The next read re-grounds from scratch — and the rebuild honestly
        // re-hits the limit, typed as ever.
        assert!(matches!(
            engine.grounding().unwrap_err(),
            Error::GroundingLimit { .. }
        ));
        assert_eq!(engine.cache_stats().groundings, 2);
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes_and_carry_the_epoch() {
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(4, "E"))
            .build()
            .unwrap();
        let before = engine.snapshot().unwrap();
        assert_eq!(before.epoch(), 0);

        engine.retract_fact("E", &["v1", "v2"]).unwrap();
        engine.insert_fact("E", &["v4", "v5"]).unwrap();
        let after = engine.snapshot().unwrap();
        assert_eq!(after.epoch(), 2);

        // The old snapshot still sees the old world (copy-on-write), the
        // new one the new world.
        let derivable = |snap: &Engine, tuple: &[&str]| {
            let goals = [snap.resolve("T", tuple).unwrap()];
            let mut answers = snap.answer(Pipeline::Materialized, &AllOnes, &goals);
            answers.pop().unwrap().map(|b: Bool| b.0).unwrap()
        };
        assert!(derivable(&before, &["v0", "v4"]));
        assert!(!derivable(&after, &["v0", "v4"]));
        assert!(!derivable(&before, &["v4", "v5"]));
        assert!(derivable(&after, &["v4", "v5"]));
        // All through one cached-and-maintained grounding.
        assert_eq!(engine.cache_stats().groundings, 1);
    }

    #[test]
    fn delta_outcome_drives_the_value_maintenance_layer() {
        // The Engine maintains the *grounding*; `incremental` maintains the
        // *values*. Wire the two through `DeltaOutcome` and check the
        // maintained fixpoint is bit-identical to recomputation.
        let engine = &mut Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(4, "E"))
            .build()
            .unwrap();
        let unit = semiring::UnitWeights::new(Tropical::new(1));
        let out0 = engine.fixpoint::<Tropical, _>(&unit).unwrap();
        let mut maintained = incremental::MaintainedFixpoint::start(&out0);

        let ins = engine.insert_fact("E", &["v4", "v5"]).unwrap();
        let gp = engine.grounding().unwrap();
        assert!(maintained.apply_insert(
            gp,
            &unit,
            ins.base_rules,
            engine.budget().unwrap(),
            &telemetry::Noop
        ));
        let fresh = engine.fixpoint::<Tropical, _>(&unit).unwrap();
        assert_eq!(maintained.values(), &fresh.values[..]);

        let del = engine.retract_fact("E", &["v1", "v2"]).unwrap();
        let gp = engine.grounding().unwrap();
        assert!(maintained.apply_retract(
            gp,
            &unit,
            &del.roots,
            engine.budget().unwrap(),
            &telemetry::Noop
        ));
        let fresh = engine.fixpoint::<Tropical, _>(&unit).unwrap();
        assert_eq!(maintained.values(), &fresh.values[..]);
    }

    fn tc_path5() -> Engine {
        Engine::builder()
            .program(programs::transitive_closure())
            .graph(&generators::path(5, "E"))
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_matches_engine_results() {
        let engine = tc_path5();
        let snap = engine.snapshot().unwrap();
        let unit = UnitWeights::new(Tropical::new(1));
        let eval =
            |e: &Engine| -> Tropical { e.query("T", &["v0", "v5"]).unwrap().eval(&unit).unwrap() };
        assert_eq!(eval(&snap), eval(&engine));
        assert_eq!(eval(&snap), Tropical::new(5));
    }

    #[test]
    fn snapshot_grounds_nothing_new() {
        let engine = tc_path5();
        let snap = engine.snapshot().unwrap();
        assert_eq!(engine.cache_stats().groundings, 1);
        snap.fixpoint::<Bool, _>(&AllOnes).unwrap();
        let q = snap.query("T", &["v0", "v3"]).unwrap();
        q.eval::<Counting, _>(&AllOnes).unwrap();
        // Evaluations through the snapshot reuse the shared grounding.
        assert_eq!(engine.cache_stats().groundings, 1);
        assert!(std::ptr::eq(
            snap.grounding().unwrap(),
            engine.grounding().unwrap()
        ));
    }

    #[test]
    fn snapshot_leaves_an_uncomputed_classification_lazy() {
        let engine = tc_path5();
        let snap = engine.snapshot().unwrap();
        let unit = UnitWeights::new(Tropical::new(1));
        let q = snap.query("T", &["v0", "v5"]).unwrap();
        assert_eq!(q.eval::<Tropical, _>(&unit).unwrap(), Tropical::new(5));
        snap.fixpoint::<Bool, _>(&AllOnes).unwrap();
        assert_eq!(engine.cache_stats().classifications, 0);
        assert!(snap.classification.get().is_none());
    }

    #[test]
    fn snapshot_shares_a_computed_classification() {
        let engine = tc_path5();
        engine.classification();
        let snap = engine.snapshot().unwrap();
        assert!(Arc::ptr_eq(
            snap.classification.get().unwrap(),
            engine.classification.get().unwrap()
        ));
        snap.classification();
        assert_eq!(engine.cache_stats().classifications, 1);
    }

    #[test]
    fn snapshot_fact_index_mirrors_query_semantics() {
        let engine = tc_path5();
        let snap = engine.snapshot().unwrap();
        let index = |tuple: &[&str]| snap.query("T", tuple)?.fact_index();
        assert!(index(&["v0", "v1"]).unwrap().is_some());
        // Out-of-domain constant: underivable, not an error.
        assert!(index(&["v0", "nope"]).unwrap().is_none());
        assert!(matches!(
            snap.query("Z", &["v0"]),
            Err(Error::UnknownPredicate(_))
        ));
        assert!(matches!(index(&["v0"]), Err(Error::BadQuery(_))));
        let q = snap.query("T", &["v0", "nope"]).unwrap();
        assert_eq!(q.eval::<Bool, _>(&AllOnes).unwrap(), Bool::zero());
    }

    #[test]
    fn precompiled_circuits_ride_along() {
        let engine = tc_path5();
        let compiled = engine
            .query("T", &["v0", "v5"])
            .unwrap()
            .circuit(Strategy::Auto)
            .unwrap();
        let snap = engine.snapshot().unwrap();
        let before = engine.cache_stats();
        let hit = snap
            .query("T", &["v0", "v5"])
            .unwrap()
            .circuit(compiled.strategy)
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &compiled));
        let after = snap.cache_stats();
        assert_eq!(after.circuit_cache_hits, before.circuit_cache_hits + 1);
        assert_eq!(after.circuits_built, before.circuits_built);
    }

    #[test]
    fn snapshot_compiles_the_engines_product_squaring_circuit() {
        let engine = tc_path5();
        let snap = engine.snapshot().unwrap();
        let compile = |e: &Engine| {
            e.query("T", &["v0", "v5"])
                .unwrap()
                .circuit(Strategy::ProductSquaring)
                .unwrap()
        };
        let (ours, theirs) = (compile(&snap), compile(&engine));
        assert!(!Arc::ptr_eq(&ours, &theirs), "built on each side");
        assert_eq!(ours.stats, theirs.stats);
        assert_eq!(
            format!("{:?}", ours.circuit),
            format!("{:?}", theirs.circuit)
        );
        let unit = UnitWeights::new(Tropical::new(1));
        assert_eq!(ours.circuit.eval(&unit), Tropical::new(5));
    }

    /// TC over the edges `v{a} -> v{b}`, recording stage calls.
    fn tc_over(edges: &[(u32, u32)]) -> Engine {
        let names: Vec<[String; 2]> = edges
            .iter()
            .map(|(a, b)| [format!("v{a}"), format!("v{b}")])
            .collect();
        names
            .iter()
            .fold(Engine::builder(), |b, [x, y]| b.fact("E", &[x, y]))
            .program(programs::transitive_closure())
            .telemetry(true)
            .build()
            .unwrap()
    }

    /// `T(src, dst)` under the weight `w` on every fact, through the
    /// cached shell.
    fn uniform<S: Semiring>(e: &Engine, w: S, src: &str, dst: &str) -> S {
        let goals = [e.resolve("T", &[src, dst]).unwrap()];
        let mut answers = e.answer_uniform(Pipeline::Materialized, w, &goals);
        answers.pop().unwrap().unwrap()
    }

    fn evals(e: &Engine) -> u64 {
        e.metrics().stage_calls(Stage::Eval)
    }

    const PATH4: [(u32, u32); 4] = [(0, 1), (1, 2), (2, 3), (3, 4)];

    #[test]
    fn a_uniform_answer_asked_twice_runs_one_fixpoint() {
        let engine = tc_over(&PATH4);
        let one = Tropical::new(1);
        assert_eq!(uniform(&engine, one, "v0", "v4"), Tropical::new(4));
        assert_eq!(uniform(&engine, one, "v1", "v3"), Tropical::new(2));
        assert_eq!(evals(&engine), 1);
        // Another weight or another semiring is another fixpoint.
        assert_eq!(
            uniform(&engine, Tropical::new(2), "v0", "v4"),
            Tropical::new(8)
        );
        assert_eq!(
            uniform(&engine, Counting::new(1), "v0", "v4"),
            Counting::new(1)
        );
        assert_eq!(evals(&engine), 3);
        assert_eq!(
            uniform(&engine, Tropical::new(2), "v0", "v3"),
            Tropical::new(6)
        );
        assert_eq!(evals(&engine), 3);
    }

    #[test]
    fn writes_repair_cached_fixpoints_without_a_fixpoint_run() {
        let engine = &mut tc_over(&PATH4);
        let (one, count) = (Tropical::new(1), Counting::new(1));
        uniform(engine, one, "v0", "v4");
        uniform(engine, count, "v0", "v4");
        let before = evals(engine);
        let check = |engine: &Engine, edges: &[(u32, u32)]| {
            let fresh = tc_over(edges);
            for (src, dst) in [("v0", "v4"), ("v0", "v3"), ("v2", "v4"), ("v0", "v5")] {
                assert_eq!(
                    uniform(engine, one, src, dst),
                    uniform(&fresh, one, src, dst)
                );
                assert_eq!(
                    uniform(engine, count, src, dst),
                    uniform(&fresh, count, src, dst)
                );
            }
            assert_eq!(evals(engine), before);
        };

        engine
            .insert_facts(&[("E", &["v0", "v2"]), ("E", &["v4", "v5"])])
            .unwrap();
        let mut edges = PATH4.to_vec();
        edges.extend([(0, 2), (4, 5)]);
        check(engine, &edges);

        engine.retract_fact("E", &["v1", "v2"]).unwrap();
        edges.retain(|&e| e != (1, 2));
        check(engine, &edges);
        // The engine's grounding and both entries were repaired per write.
        let applied = engine.metrics().counter_value(Counter::IncrementalApplied);
        assert_eq!(applied, 6);
    }

    #[test]
    fn a_snapshot_before_a_write_keeps_its_answer_and_not_the_entry() {
        let engine = &mut tc_over(&PATH4);
        let one = Tropical::new(1);
        assert_eq!(uniform(engine, one, "v0", "v4"), Tropical::new(4));
        let old = engine.snapshot().unwrap();
        engine.insert_fact("E", &["v0", "v3"]).unwrap();
        assert_eq!(uniform(engine, one, "v0", "v4"), Tropical::new(2));
        assert_eq!(evals(engine), 1);
        // The old snapshot misses the repaired entry (a newer epoch) and
        // runs its own fixpoint over its own grounding...
        assert_eq!(uniform(&old, one, "v0", "v4"), Tropical::new(4));
        assert_eq!(evals(engine), 2);
        // ...which does not replace the repaired entry.
        assert_eq!(uniform(engine, one, "v0", "v4"), Tropical::new(2));
        assert_eq!(evals(engine), 2);
    }

    #[test]
    fn query_eval_and_per_fact_valuations_never_cache() {
        let engine = tc_over(&PATH4);
        let unit = UnitWeights::new(Tropical::new(1));
        let q = engine.query("T", &["v0", "v4"]).unwrap();
        for _ in 0..2 {
            assert_eq!(q.eval(&unit).unwrap(), Tropical::new(4));
        }
        assert_eq!(evals(&engine), 2);
        let mut per_fact = PerFact::with_default(Tropical::new(1));
        per_fact.insert(
            engine.database().all_facts().next().unwrap(),
            Tropical::new(5),
        );
        let goals = [engine.resolve("T", &["v0", "v4"]).unwrap()];
        for _ in 0..2 {
            let got = engine.answer(Pipeline::Materialized, &per_fact, &goals);
            assert_eq!(got[0], Ok(Tropical::new(8)));
        }
        assert_eq!(evals(&engine), 4);
        // Nothing was stored: the first cached read runs a fixpoint.
        assert_eq!(
            uniform(&engine, Tropical::new(1), "v0", "v4"),
            Tropical::new(4)
        );
        assert_eq!(evals(&engine), 5);
    }

    #[test]
    fn concurrent_readers_agree_with_sequential() {
        let unit = UnitWeights::new(Tropical::new(1));
        let expected = tc_path5().fixpoint::<Tropical, _>(&unit).unwrap();
        // One engine, its lazy grounding not yet forced: the readers race
        // the fill, which runs once.
        let engine = tc_path5();
        let outs: Vec<EvalOutcome<Tropical>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| engine.fixpoint::<Tropical, _>(&unit).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outs {
            assert_eq!(out.values, expected.values);
            assert_eq!(out.iterations, expected.iterations);
        }
        assert_eq!(engine.cache_stats().groundings, 1);
    }
}
