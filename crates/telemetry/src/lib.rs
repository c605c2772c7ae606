//! Pipeline telemetry for the `datalog-circuits` workspace: who spent the
//! wall-clock, round by round and shard by shard.
//!
//! The grounding bottleneck (ROADMAP item 1) and the unproven parallel
//! speedup (item 4) are both *visibility* problems: the bench prints two
//! coarse end-to-end numbers, so per-stage attribution — grounding vs
//! evaluation, join enumeration vs the serial round merge, round-level
//! frontier decay, per-shard
//! utilization — was guesswork. This crate is the measuring layer:
//!
//! * [`Recorder`] — the trait the pipeline reports into. Every method has
//!   a no-op default body and a cheap [`enabled`](Recorder::enabled)
//!   guard, so the disabled path is a predictable never-taken branch: no
//!   clocks are read, no samples are allocated, and the parallel code
//!   paths are byte-identical to the un-instrumented ones.
//! * [`PipelineMetrics`] — the concrete collector: per-[`Stage`]
//!   wall-clock spans, per-round series ([`RoundStats`]), per-shard
//!   parallel stats ([`ShardStats`]), named [`Counter`]s, and the engine
//!   cache events ([`CacheEvent`]). Hot counters are relaxed atomics;
//!   series go through a mutex only when telemetry is enabled.
//! * [`MetricsReport`] — an owned snapshot with a human-readable table
//!   (`Display`) and a hand-rolled JSON serializer
//!   ([`to_json`](MetricsReport::to_json), same no-dependency style as
//!   the committed `BENCH_*.json` trajectories).
//!
//! The `provcirc::Engine` facade owns one `PipelineMetrics` per session
//! (`EngineBuilder::telemetry`, `DATALOG_METRICS` env override) and
//! threads it through grounding, evaluation, provenance, and circuit
//! construction; `dlc compile/classify --metrics` exposes it end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// The pipeline stages a span can be attributed to, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Program text → AST (`datalog::parser`).
    Parse,
    /// Grounding: the one-pass semi-naive Boolean fixpoint that discovers
    /// the derivable IDB facts and records every grounded rule on the way
    /// (`datalog::ground`). Its JSON name `ground_phase1` predates the
    /// removal of the second enumeration phase and is kept for readers of
    /// `pipeline_metrics_v1`.
    GroundPhase1,
    /// Paper-level classification (`provcirc::classify`).
    Classify,
    /// Fixpoint evaluation over a semiring — naive or semi-naive
    /// (`datalog::eval`).
    Eval,
    /// The cached provenance fixpoint over `Sorp` (always naive; its
    /// iteration count feeds the Theorem 4.3 layering).
    Provenance,
    /// Circuit construction (`provcirc::compile` / `circuit`).
    CircuitBuild,
    /// Server-side query handling in the serving layer (`server`): the
    /// wall-clock of one wire query or batch group, measured around the
    /// snapshot evaluation — the engine stages it drives (grounding on a
    /// lazy snapshot build, `Eval` fixpoints) are attributed to their own
    /// stages as usual, so `serve` minus `eval` is protocol overhead.
    Serve,
    /// Incremental delta-grounding: extending a cached grounded program
    /// with the consequences of newly inserted EDB facts
    /// (`datalog::ground::extend_grounding`).
    DeltaGround,
    /// Incremental fixpoint maintenance: ⊕-propagation from newly
    /// grounded rules and DRed-style cone rederivation
    /// (`incremental::MaintainedFixpoint`). Repairs report their round
    /// samples here, as from-scratch runs do under [`Stage::Eval`].
    Maintain,
    /// Bottom-up circuit evaluation (`circuit::arena`): one sequential
    /// pass over the gates in topological order.
    CircuitEval,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::Parse,
        Stage::GroundPhase1,
        Stage::Classify,
        Stage::Eval,
        Stage::Provenance,
        Stage::CircuitBuild,
        Stage::Serve,
        Stage::DeltaGround,
        Stage::Maintain,
        Stage::CircuitEval,
    ];

    /// Stable machine-readable name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::GroundPhase1 => "ground_phase1",
            Stage::Classify => "classify",
            Stage::Eval => "eval",
            Stage::Provenance => "provenance",
            Stage::CircuitBuild => "circuit_build",
            Stage::Serve => "serve",
            Stage::DeltaGround => "delta_ground",
            Stage::Maintain => "maintain",
            Stage::CircuitEval => "circuit_eval",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::GroundPhase1 => 1,
            Stage::Classify => 2,
            Stage::Eval => 3,
            Stage::Provenance => 4,
            Stage::CircuitBuild => 5,
            Stage::Serve => 6,
            Stage::DeltaGround => 7,
            Stage::Maintain => 8,
            Stage::CircuitEval => 9,
        }
    }
}

/// Monotonic work counters accumulated across a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Hash-index probes performed by the grounding joins.
    IndexProbes,
    /// Grounded-rule firings performed by fixpoint evaluation.
    RuleFirings,
    /// IDB facts discovered by grounding (full or delta).
    FactsDiscovered,
    /// Nanoseconds of grounding's serial round merge: interning each
    /// round's new head facts in task order, resolving the fragments'
    /// pending heads, appending the fragments to the rule store, and
    /// extending the join indices with the round's facts. No ⊕ runs here —
    /// grounding is Boolean.
    GroundMergeNanos,
    /// Serving-layer sessions opened (`SESSION OPEN`).
    SessionsOpened,
    /// Serving-layer sessions closed (`SESSION CLOSE`).
    SessionsClosed,
    /// Wire queries answered by the serving layer (batch members count
    /// individually).
    QueriesServed,
    /// `BATCH` commands evaluated by the serving layer.
    BatchesServed,
    /// Total queries submitted through `BATCH` commands — divide by
    /// [`Counter::BatchesServed`] for the mean batch size.
    BatchQueries,
    /// Write batches (insert or retract) applied through the incremental
    /// maintenance path — delta grounding plus in-place fixpoint repair.
    IncrementalApplied,
    /// Write batches, or cached fixpoint repairs, that fell back to full
    /// recomputation (lazy re-ground / re-eval): the cached grounding was
    /// unusable, or a repair did not converge within its budget. Every
    /// semiring's repair is exact, so no write falls back for soundness.
    IncrementalFallbacks,
    /// Serving-layer sessions evicted by the idle TTL sweeper.
    SessionsEvicted,
    /// Magic-set rewrites performed for demand-driven point queries.
    MagicRewrites,
    /// Connections rejected by the serving layer's bounded pending queue
    /// (`ERR BUSY` single-frame rejects under overload).
    OverloadRejections,
    /// Grounded rules appended by delta grounding on insert
    /// (`datalog::extend_grounding`).
    InsertRulesAppended,
    /// IDB facts in retraction cones — the facts a retract repair resets
    /// to 0 and re-derives — summed over every repaired fixpoint.
    RetractConeFacts,
    /// Grounded rules deriving a retraction cone's facts (the rules the
    /// repair re-fires at least once), summed over every repaired
    /// fixpoint.
    RetractConeRules,
    /// Fixpoint repairs (insert or retract) that ran the ⊕-idempotent
    /// worklist.
    RepairsWorklist,
    /// Fixpoint repairs that ran naive rounds instead — the
    /// non-⊕-idempotent semirings: Jacobi rounds over the cone of the
    /// appended rules' heads on insert, of the removed rules' heads on
    /// retract.
    RepairsNaive,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 19] = [
        Counter::IndexProbes,
        Counter::RuleFirings,
        Counter::FactsDiscovered,
        Counter::GroundMergeNanos,
        Counter::SessionsOpened,
        Counter::SessionsClosed,
        Counter::QueriesServed,
        Counter::BatchesServed,
        Counter::BatchQueries,
        Counter::IncrementalApplied,
        Counter::IncrementalFallbacks,
        Counter::SessionsEvicted,
        Counter::MagicRewrites,
        Counter::OverloadRejections,
        Counter::InsertRulesAppended,
        Counter::RetractConeFacts,
        Counter::RetractConeRules,
        Counter::RepairsWorklist,
        Counter::RepairsNaive,
    ];

    /// Stable machine-readable name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::IndexProbes => "index_probes",
            Counter::RuleFirings => "rule_firings",
            Counter::FactsDiscovered => "facts_discovered",
            Counter::GroundMergeNanos => "ground_merge_nanos",
            Counter::SessionsOpened => "sessions_opened",
            Counter::SessionsClosed => "sessions_closed",
            Counter::QueriesServed => "queries_served",
            Counter::BatchesServed => "batches_served",
            Counter::BatchQueries => "batch_queries",
            Counter::IncrementalApplied => "incremental_applied",
            Counter::IncrementalFallbacks => "incremental_fallbacks",
            Counter::SessionsEvicted => "sessions_evicted",
            Counter::MagicRewrites => "magic_rewrites",
            Counter::OverloadRejections => "overload_rejections",
            Counter::InsertRulesAppended => "insert_rules_appended",
            Counter::RetractConeFacts => "retract_cone_facts",
            Counter::RetractConeRules => "retract_cone_rules",
            Counter::RepairsWorklist => "repairs_worklist",
            Counter::RepairsNaive => "repairs_naive",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::IndexProbes => 0,
            Counter::RuleFirings => 1,
            Counter::FactsDiscovered => 2,
            Counter::GroundMergeNanos => 3,
            Counter::SessionsOpened => 4,
            Counter::SessionsClosed => 5,
            Counter::QueriesServed => 6,
            Counter::BatchesServed => 7,
            Counter::BatchQueries => 8,
            Counter::IncrementalApplied => 9,
            Counter::IncrementalFallbacks => 10,
            Counter::SessionsEvicted => 11,
            Counter::MagicRewrites => 12,
            Counter::OverloadRejections => 13,
            Counter::InsertRulesAppended => 14,
            Counter::RetractConeFacts => 15,
            Counter::RetractConeRules => 16,
            Counter::RepairsWorklist => 17,
            Counter::RepairsNaive => 18,
        }
    }
}

/// Engine cache events — the single home of the counters the
/// `Engine::cache_stats()` compatibility view reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheEvent {
    /// The grounded program was computed (at most once per session).
    Grounding,
    /// The program was classified (at most once per session).
    Classification,
    /// The provenance fixpoint over `Sorp` was run (at most once).
    ProvenanceRun,
    /// A circuit was actually constructed.
    CircuitBuilt,
    /// A circuit request was served from the per-fact cache.
    CircuitCacheHit,
    /// A semi-naive evaluation fell back to naive (non-⊕-idempotent
    /// semiring).
    SeminaiveFallback,
}

impl CacheEvent {
    fn index(self) -> usize {
        match self {
            CacheEvent::Grounding => 0,
            CacheEvent::Classification => 1,
            CacheEvent::ProvenanceRun => 2,
            CacheEvent::CircuitBuilt => 3,
            CacheEvent::CircuitCacheHit => 4,
            CacheEvent::SeminaiveFallback => 5,
        }
    }
}

/// One round of a delta-driven fixpoint (grounding, semi-naive
/// evaluation) or one ICO application (naive evaluation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number, 0-based within its stage run.
    pub round: u64,
    /// Size of the round's input frontier (facts for grounding, rules for
    /// evaluation).
    pub frontier: u64,
    /// New facts discovered (grounding) or head values strictly changed
    /// (evaluation) this round.
    pub delta: u64,
    /// Hash-index probes performed this round (grounding only).
    pub probes: u64,
    /// Grounded-rule firings this round (evaluation only).
    pub firings: u64,
    /// Worklist/queue length at the end of the round (next frontier).
    pub worklist: u64,
}

/// What one parallel shard (worker thread) did during one sharded call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Worker index within the sharded call (0-based).
    pub worker: u64,
    /// Wall-clock the worker spent inside its tasks, in nanoseconds.
    pub busy_nanos: u64,
    /// Number of tasks the worker executed.
    pub tasks: u64,
    /// Items the worker produced (facts, grounded rules, or gate values,
    /// depending on the stage).
    pub produced: u64,
    /// Tasks this worker stole from another worker's chunk range (0 when
    /// every executed task came from its own range).
    pub steals: u64,
}

/// The sink the pipeline reports into.
///
/// Every method has a no-op default, so a recorder only overrides what it
/// wants. Instrumented code MUST gate anything with a cost — reading a
/// clock, allocating a sample, an extra pass over data — on
/// [`enabled`](Recorder::enabled): when it returns `false` the
/// instrumented code paths must do no measurable extra work and produce
/// bit-identical results.
pub trait Recorder: Sync {
    /// Whether the expensive instrumentation (spans, rounds, shards)
    /// should run at all. Defaults to `false`.
    fn enabled(&self) -> bool {
        false
    }
    /// One completed span of `stage`, lasting `nanos` nanoseconds.
    fn stage_nanos(&self, stage: Stage, nanos: u64) {
        let _ = (stage, nanos);
    }
    /// One completed round within `stage`.
    fn round(&self, stage: Stage, stats: RoundStats) {
        let _ = (stage, stats);
    }
    /// One shard's contribution to a sharded call within `stage`.
    fn shard(&self, stage: Stage, stats: ShardStats) {
        let _ = (stage, stats);
    }
    /// Bump a monotonic counter by `delta`.
    fn counter(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }
}

/// The always-disabled recorder. [`NOOP`] is the shared instance the
/// un-instrumented entry points pass down.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Recorder for Noop {}

/// Shared [`Noop`] instance.
pub static NOOP: Noop = Noop;

/// Run `f`, attributing its wall-clock to `stage` when the recorder is
/// enabled. Disabled: no clock is read — this is exactly `f()`.
pub fn time<T>(rec: &dyn Recorder, stage: Stage, f: impl FnOnce() -> T) -> T {
    if !rec.enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    rec.stage_nanos(stage, start.elapsed().as_nanos() as u64);
    out
}

/// Cap on retained per-round samples (across all stages). Runs that
/// overflow it keep counting rounds but drop the samples — the drop count
/// is reported, never hidden.
const MAX_ROUND_SAMPLES: usize = 4096;

/// Aggregated per-`(stage, worker)` shard statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardAgg {
    /// Sharded calls this worker participated in.
    pub calls: u64,
    /// Total busy wall-clock, nanoseconds.
    pub busy_nanos: u64,
    /// Total tasks executed.
    pub tasks: u64,
    /// Total items produced.
    pub produced: u64,
    /// Total tasks stolen from other workers' chunk ranges.
    pub steals: u64,
}

/// The concrete session collector: a [`Recorder`] whose cache events are
/// always counted (they back the `Engine::cache_stats()` view) and whose
/// spans/rounds/shards are recorded only when built enabled.
///
/// Thread-safe by construction — relaxed atomics for the hot counters,
/// short mutexed pushes for the (enabled-only) series — so one collector
/// can be shared with the scoped worker threads of the parallel pipeline
/// without perturbing their deterministic, bit-identical output.
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    enabled: bool,
    stage_calls: [AtomicU64; Stage::ALL.len()],
    stage_nanos: [AtomicU64; Stage::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
    cache: [AtomicU64; 6],
    rounds: Mutex<Vec<(Stage, RoundStats)>>,
    rounds_dropped: AtomicU64,
    shards: Mutex<Vec<((Stage, u64), ShardAgg)>>,
}

impl PipelineMetrics {
    /// A fresh collector. `enabled` gates spans/rounds/shards; cache
    /// events are counted either way.
    pub fn new(enabled: bool) -> Self {
        PipelineMetrics {
            enabled,
            ..Default::default()
        }
    }

    /// Whether span/round/shard recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Count one cache event (always, enabled or not — the
    /// `cache_stats()` compatibility view depends on it).
    pub fn cache_event(&self, event: CacheEvent) {
        self.cache[event.index()].fetch_add(1, Relaxed);
    }

    /// Current value of one cache event counter.
    pub fn cache_count(&self, event: CacheEvent) -> u64 {
        self.cache[event.index()].load(Relaxed)
    }

    /// Total nanoseconds attributed to `stage` so far.
    pub fn stage_total_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage.index()].load(Relaxed)
    }

    /// Number of completed spans attributed to `stage` so far.
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.stage_calls[stage.index()].load(Relaxed)
    }

    /// Current value of a monotonic counter.
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Relaxed)
    }

    /// Owned snapshot of everything recorded so far.
    pub fn report(&self) -> MetricsReport {
        let stages = Stage::ALL
            .iter()
            .map(|&s| StageLine {
                stage: s,
                calls: self.stage_calls(s),
                total_nanos: self.stage_total_nanos(s),
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c, self.counter_value(c)))
            .collect();
        let rounds = self.rounds.lock().expect("rounds poisoned").clone();
        let shards = self.shards.lock().expect("shards poisoned").clone();
        MetricsReport {
            enabled: self.enabled,
            stages,
            counters,
            rounds,
            rounds_dropped: self.rounds_dropped.load(Relaxed),
            shards,
            cache: CacheSnapshot {
                groundings: self.cache_count(CacheEvent::Grounding),
                classifications: self.cache_count(CacheEvent::Classification),
                provenance_runs: self.cache_count(CacheEvent::ProvenanceRun),
                circuits_built: self.cache_count(CacheEvent::CircuitBuilt),
                circuit_cache_hits: self.cache_count(CacheEvent::CircuitCacheHit),
                seminaive_fallbacks: self.cache_count(CacheEvent::SeminaiveFallback),
            },
        }
    }
}

impl Recorder for PipelineMetrics {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn stage_nanos(&self, stage: Stage, nanos: u64) {
        self.stage_calls[stage.index()].fetch_add(1, Relaxed);
        self.stage_nanos[stage.index()].fetch_add(nanos, Relaxed);
    }

    fn round(&self, stage: Stage, stats: RoundStats) {
        if !self.enabled {
            return;
        }
        let mut rounds = self.rounds.lock().expect("rounds poisoned");
        if rounds.len() < MAX_ROUND_SAMPLES {
            rounds.push((stage, stats));
        } else {
            self.rounds_dropped.fetch_add(1, Relaxed);
        }
    }

    fn shard(&self, stage: Stage, stats: ShardStats) {
        if !self.enabled {
            return;
        }
        let key = (stage, stats.worker);
        let mut shards = self.shards.lock().expect("shards poisoned");
        let agg = match shards.iter_mut().find(|(k, _)| *k == key) {
            Some((_, agg)) => agg,
            None => {
                shards.push((key, ShardAgg::default()));
                &mut shards.last_mut().expect("just pushed").1
            }
        };
        agg.calls += 1;
        agg.busy_nanos += stats.busy_nanos;
        agg.tasks += stats.tasks;
        agg.produced += stats.produced;
        agg.steals += stats.steals;
    }

    fn counter(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Relaxed);
    }
}

/// One stage row of a [`MetricsReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageLine {
    /// The stage.
    pub stage: Stage,
    /// Completed spans.
    pub calls: u64,
    /// Total wall-clock, nanoseconds.
    pub total_nanos: u64,
}

/// Snapshot of the engine cache counters (mirrors
/// `provcirc::EngineCacheStats`, which is the compatible public view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Times the grounded program was computed.
    pub groundings: u64,
    /// Times the program was classified.
    pub classifications: u64,
    /// Times the provenance fixpoint was run.
    pub provenance_runs: u64,
    /// Circuits actually constructed.
    pub circuits_built: u64,
    /// Circuit requests served from cache.
    pub circuit_cache_hits: u64,
    /// Semi-naive → naive fallbacks.
    pub seminaive_fallbacks: u64,
}

/// An owned snapshot of a [`PipelineMetrics`] collector: render it as a
/// human-readable table (`Display`) or export it as JSON
/// ([`to_json`](MetricsReport::to_json)).
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Whether span/round/shard recording was on.
    pub enabled: bool,
    /// Per-stage spans, pipeline order.
    pub stages: Vec<StageLine>,
    /// Counter values, display order.
    pub counters: Vec<(Counter, u64)>,
    /// Raw per-round series (capped; see `rounds_dropped`).
    pub rounds: Vec<(Stage, RoundStats)>,
    /// Rounds recorded beyond the sample cap (counted, not retained).
    pub rounds_dropped: u64,
    /// Per-`(stage, worker)` aggregated shard stats.
    pub shards: Vec<((Stage, u64), ShardAgg)>,
    /// Engine cache counters.
    pub cache: CacheSnapshot,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

impl MetricsReport {
    /// Total nanoseconds attributed to `stage`.
    pub fn stage_total_nanos(&self, stage: Stage) -> u64 {
        self.stages
            .iter()
            .find(|l| l.stage == stage)
            .map_or(0, |l| l.total_nanos)
    }

    /// Total milliseconds attributed to `stage`.
    pub fn stage_total_ms(&self, stage: Stage) -> f64 {
        ms(self.stage_total_nanos(stage))
    }

    /// The per-round series of one stage, in recording order.
    pub fn rounds_of(&self, stage: Stage) -> Vec<RoundStats> {
        self.rounds
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, r)| *r)
            .collect()
    }

    /// Serialize the whole report as JSON (hand-rolled, no dependencies —
    /// the same style as the committed `BENCH_*.json` trajectories).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"pipeline_metrics_v1\",\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));

        out.push_str("  \"stages\": [\n");
        let stage_lines: Vec<String> = self
            .stages
            .iter()
            .map(|l| {
                format!(
                    "    {{\"stage\": \"{}\", \"calls\": {}, \"total_ms\": {:.6}}}",
                    l.stage.name(),
                    l.calls,
                    ms(l.total_nanos)
                )
            })
            .collect();
        out.push_str(&stage_lines.join(",\n"));
        out.push_str("\n  ],\n");

        out.push_str("  \"counters\": {");
        let counter_fields: Vec<String> = self
            .counters
            .iter()
            .map(|(c, v)| format!("\"{}\": {v}", c.name()))
            .collect();
        out.push_str(&counter_fields.join(", "));
        out.push_str("},\n");

        out.push_str("  \"rounds\": [\n");
        let round_lines: Vec<String> = self
            .rounds
            .iter()
            .map(|(s, r)| {
                format!(
                    "    {{\"stage\": \"{}\", \"round\": {}, \"frontier\": {}, \
                     \"delta\": {}, \"probes\": {}, \"firings\": {}, \"worklist\": {}}}",
                    s.name(),
                    r.round,
                    r.frontier,
                    r.delta,
                    r.probes,
                    r.firings,
                    r.worklist
                )
            })
            .collect();
        out.push_str(&round_lines.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str(&format!("  \"rounds_dropped\": {},\n", self.rounds_dropped));

        out.push_str("  \"shards\": [\n");
        let shard_lines: Vec<String> = self
            .shards
            .iter()
            .map(|((s, w), a)| {
                format!(
                    "    {{\"stage\": \"{}\", \"worker\": {w}, \"calls\": {}, \
                     \"busy_ms\": {:.6}, \"tasks\": {}, \"produced\": {}, \
                     \"steals\": {}}}",
                    s.name(),
                    a.calls,
                    ms(a.busy_nanos),
                    a.tasks,
                    a.produced,
                    a.steals
                )
            })
            .collect();
        out.push_str(&shard_lines.join(",\n"));
        out.push_str("\n  ],\n");

        out.push_str(&format!(
            "  \"cache\": {{\"groundings\": {}, \"classifications\": {}, \
             \"provenance_runs\": {}, \"circuits_built\": {}, \
             \"circuit_cache_hits\": {}, \"seminaive_fallbacks\": {}}}\n",
            self.cache.groundings,
            self.cache.classifications,
            self.cache.provenance_runs,
            self.cache.circuits_built,
            self.cache.circuit_cache_hits,
            self.cache.seminaive_fallbacks
        ));
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.enabled {
            writeln!(
                f,
                "telemetry disabled (enable with EngineBuilder::telemetry(true) or DATALOG_METRICS=1)"
            )?;
        }
        let total: u64 = self.stages.iter().map(|l| l.total_nanos).sum();
        writeln!(
            f,
            "{:<14} {:>6} {:>12} {:>7}",
            "stage", "calls", "total_ms", "share"
        )?;
        for l in &self.stages {
            if l.calls == 0 {
                continue;
            }
            let share = if total > 0 {
                100.0 * l.total_nanos as f64 / total as f64
            } else {
                0.0
            };
            writeln!(
                f,
                "{:<14} {:>6} {:>12.3} {:>6.1}%",
                l.stage.name(),
                l.calls,
                ms(l.total_nanos),
                share
            )?;
        }
        let live: Vec<&(Counter, u64)> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !live.is_empty() {
            writeln!(f, "counters:")?;
            for (c, v) in live {
                writeln!(f, "  {:<20} {v}", c.name())?;
            }
        }
        for stage in [Stage::GroundPhase1, Stage::Eval, Stage::Provenance] {
            let rounds = self.rounds_of(stage);
            if rounds.is_empty() {
                continue;
            }
            writeln!(
                f,
                "{} rounds ({}):  round  frontier  delta  worklist",
                stage.name(),
                rounds.len()
            )?;
            for r in &rounds {
                writeln!(
                    f,
                    "  {:>28} {:>9} {:>6} {:>9}",
                    r.round, r.frontier, r.delta, r.worklist
                )?;
            }
        }
        if self.rounds_dropped > 0 {
            writeln!(
                f,
                "  ({} further rounds counted but not retained)",
                self.rounds_dropped
            )?;
        }
        if !self.shards.is_empty() {
            writeln!(
                f,
                "shards:        {:<14} {:>6} {:>6} {:>12} {:>10} {:>7}",
                "stage", "worker", "calls", "busy_ms", "produced", "steals"
            )?;
            for ((s, w), a) in &self.shards {
                writeln!(
                    f,
                    "               {:<14} {:>6} {:>6} {:>12.3} {:>10} {:>7}",
                    s.name(),
                    w,
                    a.calls,
                    ms(a.busy_nanos),
                    a.produced,
                    a.steals
                )?;
            }
        }
        writeln!(
            f,
            "cache:         groundings={} classifications={} provenance_runs={} \
             circuits_built={} circuit_cache_hits={} seminaive_fallbacks={}",
            self.cache.groundings,
            self.cache.classifications,
            self.cache.provenance_runs,
            self.cache.circuits_built,
            self.cache.circuit_cache_hits,
            self.cache.seminaive_fallbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        assert!(!NOOP.enabled());
        // All default methods are no-ops — nothing to observe, but they
        // must not panic.
        NOOP.stage_nanos(Stage::Parse, 1);
        NOOP.round(Stage::Eval, RoundStats::default());
        NOOP.shard(Stage::Eval, ShardStats::default());
        NOOP.counter(Counter::IndexProbes, 1);
    }

    #[test]
    fn time_attributes_only_when_enabled() {
        let off = PipelineMetrics::new(false);
        assert_eq!(time(&off, Stage::Parse, || 41 + 1), 42);
        assert_eq!(off.stage_calls(Stage::Parse), 0);
        assert_eq!(off.stage_total_nanos(Stage::Parse), 0);

        let on = PipelineMetrics::new(true);
        assert_eq!(time(&on, Stage::Parse, || 42), 42);
        assert_eq!(on.stage_calls(Stage::Parse), 1);
    }

    #[test]
    fn cache_events_count_even_when_disabled() {
        let m = PipelineMetrics::new(false);
        m.cache_event(CacheEvent::Grounding);
        m.cache_event(CacheEvent::CircuitCacheHit);
        m.cache_event(CacheEvent::CircuitCacheHit);
        assert_eq!(m.cache_count(CacheEvent::Grounding), 1);
        assert_eq!(m.cache_count(CacheEvent::CircuitCacheHit), 2);
        assert_eq!(m.report().cache.circuit_cache_hits, 2);
    }

    #[test]
    fn rounds_and_shards_are_gated_on_enabled() {
        let off = PipelineMetrics::new(false);
        off.round(Stage::Eval, RoundStats::default());
        off.shard(Stage::Eval, ShardStats::default());
        assert!(off.report().rounds.is_empty());
        assert!(off.report().shards.is_empty());

        let on = PipelineMetrics::new(true);
        on.round(
            Stage::GroundPhase1,
            RoundStats {
                round: 0,
                frontier: 3,
                delta: 2,
                probes: 10,
                firings: 0,
                worklist: 2,
            },
        );
        on.shard(
            Stage::Eval,
            ShardStats {
                worker: 1,
                busy_nanos: 500,
                tasks: 2,
                produced: 7,
                steals: 1,
            },
        );
        on.shard(
            Stage::Eval,
            ShardStats {
                worker: 1,
                busy_nanos: 300,
                tasks: 1,
                produced: 3,
                steals: 0,
            },
        );
        let r = on.report();
        assert_eq!(r.rounds_of(Stage::GroundPhase1).len(), 1);
        assert_eq!(r.shards.len(), 1);
        let agg = r.shards[0].1;
        assert_eq!(agg.calls, 2);
        assert_eq!(agg.busy_nanos, 800);
        assert_eq!(agg.produced, 10);
        assert_eq!(agg.steals, 1);
    }

    #[test]
    fn round_samples_are_capped_not_silently_lost() {
        let on = PipelineMetrics::new(true);
        for i in 0..(MAX_ROUND_SAMPLES as u64 + 5) {
            on.round(
                Stage::Eval,
                RoundStats {
                    round: i,
                    ..Default::default()
                },
            );
        }
        let r = on.report();
        assert_eq!(r.rounds.len(), MAX_ROUND_SAMPLES);
        assert_eq!(r.rounds_dropped, 5);
        assert!(r.to_json().contains("\"rounds_dropped\": 5"));
    }

    #[test]
    fn json_has_every_stage_and_counter() {
        let on = PipelineMetrics::new(true);
        on.stage_nanos(Stage::GroundPhase1, 1_500_000);
        on.counter(Counter::IndexProbes, 12);
        let json = on.report().to_json();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "stage indices are dense");
            assert!(json.contains(stage.name()), "{} missing", stage.name());
        }
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(counter.index(), i, "counter indices are dense");
            assert!(json.contains(counter.name()), "{} missing", counter.name());
        }
        assert!(json.contains("\"schema\": \"pipeline_metrics_v1\""));
        assert!(json.contains("\"index_probes\": 12"));
        // Balanced braces/brackets — the cheap well-formedness check the
        // shape test in `tests/` deepens with a real parser.
        let braces = json.matches('{').count() == json.matches('}').count();
        let brackets = json.matches('[').count() == json.matches(']').count();
        assert!(braces && brackets);
    }

    #[test]
    fn display_renders_a_table() {
        let on = PipelineMetrics::new(true);
        on.stage_nanos(Stage::GroundPhase1, 2_000_000);
        on.stage_nanos(Stage::Eval, 1_000_000);
        let text = on.report().to_string();
        assert!(text.contains("ground_phase1"));
        assert!(text.contains("eval"));
        assert!(text.contains("share"));
    }
}
