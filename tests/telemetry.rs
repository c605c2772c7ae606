//! Integration tests of the telemetry subsystem: the JSON exporter shape,
//! the disabled-path bit-identity guarantee, per-shard parallel stats, and
//! the `DATALOG_METRICS` environment default.
//!
//! Every engine in this file sets `.telemetry(..)` explicitly (except the
//! env-default test, which owns the variable), so the tests stay
//! order-independent even though `DATALOG_METRICS` is process-global.

use datalog_circuits::datalog::{self, programs, Exec};
use datalog_circuits::graphgen::generators;
use datalog_circuits::provcirc::prelude::*;
use datalog_circuits::semiring::prelude::*;
use datalog_circuits::semiring::AllOnes;
use datalog_circuits::telemetry::Stage;

fn tc_engine(parallelism: usize, telemetry: bool) -> Engine {
    Engine::builder()
        .program(programs::transitive_closure())
        .graph(&generators::gnm(12, 40, &["E"], 3))
        .parallelism(parallelism)
        .telemetry(telemetry)
        .build()
        .unwrap()
}

/// Braces and brackets balance outside of string literals — the exporter
/// is hand-rolled, so the shape test actually walks the bytes.
fn assert_balanced_json(json: &str) {
    let (mut depth, mut in_str, mut escape) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            match (escape, c) {
                (true, _) => escape = false,
                (false, '\\') => escape = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in exporter output");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in exporter output");
    assert_eq!(depth, 0, "unbalanced braces in exporter output");
}

#[test]
fn json_export_covers_every_pipeline_stage() {
    let engine = tc_engine(1, true);
    let q = engine.query("T", &["v0", "v5"]).unwrap();
    q.eval::<Bool, _>(&AllOnes).unwrap();
    q.circuit(Strategy::GroundedFixpoint).unwrap();
    q.provenance().unwrap();
    let json = engine.metrics_report().to_json();
    assert_balanced_json(&json);
    assert!(
        json.contains("\"schema\": \"pipeline_metrics_v1\""),
        "{json}"
    );
    assert!(json.contains("\"enabled\": true"), "{json}");
    for stage in Stage::ALL {
        assert!(
            json.contains(&format!("\"stage\": \"{}\"", stage.name())),
            "stage {} missing from exporter output:\n{json}",
            stage.name()
        );
    }
    // The round series carry the per-round frontier sizes.
    for key in ["\"rounds\"", "\"frontier\"", "\"delta\"", "\"worklist\""] {
        assert!(json.contains(key), "{key} missing from exporter output");
    }
    // Cache events surface alongside the spans.
    assert!(json.contains("\"groundings\": 1"), "{json}");
    assert!(json.contains("\"provenance_runs\": 1"), "{json}");
}

#[test]
fn human_report_names_grounding_and_eval_separately() {
    let engine = tc_engine(1, true);
    engine
        .query("T", &["v0", "v5"])
        .unwrap()
        .eval::<Bool, _>(&AllOnes)
        .unwrap();
    let table = engine.metrics_report().to_string();
    for name in ["ground_phase1", "eval"] {
        assert!(table.contains(name), "{name} missing from:\n{table}");
    }
}

#[test]
fn disabled_telemetry_records_nothing_and_stays_bit_identical() {
    let seq = tc_engine(1, false);
    let par = tc_engine(4, false);
    // Bit-identity of the disabled path: same FactId order, same rules,
    // same answers at any thread count (the PR-5 guarantee, untouched).
    let gs = seq.grounding().unwrap();
    let gp = par.grounding().unwrap();
    assert!(gs.idb_facts().eq(gp.idb_facts()));
    assert_eq!(gs.rules, gp.rules);
    let unit = UnitWeights::new(Tropical::new(1));
    for dst in 1..12u32 {
        let a: Tropical = seq.node_query(0, dst).unwrap().eval(&unit).unwrap();
        let b: Tropical = par.node_query(0, dst).unwrap().eval(&unit).unwrap();
        assert_eq!(a, b, "dst={dst}");
    }
    // Nothing measurable was recorded: no spans, no rounds, no shards.
    for engine in [&seq, &par] {
        assert!(!engine.telemetry_enabled());
        let report = engine.metrics_report();
        assert!(!report.enabled);
        assert!(report
            .stages
            .iter()
            .all(|s| s.calls == 0 && s.total_nanos == 0));
        assert!(report.rounds.is_empty());
        assert!(report.shards.is_empty());
        // The cache-discipline counters still work — they are the
        // compatibility surface of `cache_stats()`.
        assert_eq!(engine.cache_stats().groundings, 1);
    }
}

#[test]
fn shard_stats_are_sane_at_parallelism_4() {
    let engine = Engine::builder()
        .program(programs::transitive_closure())
        .graph(&generators::gnm(30, 120, &["E"], 7))
        .parallelism(4)
        .telemetry(true)
        .build()
        .unwrap();
    engine
        .query("T", &["v0", "v5"])
        .unwrap()
        .eval::<Bool, _>(&AllOnes)
        .unwrap();
    let report = engine.metrics_report();
    assert!(!report.shards.is_empty(), "parallel run reported no shards");
    let mut saw_ground = false;
    for ((stage, worker), agg) in &report.shards {
        assert!(*worker < 4, "worker id {worker} out of range");
        assert!(agg.tasks > 0, "worker {worker} reported zero tasks");
        assert!(agg.calls > 0, "worker {worker} reported zero calls");
        saw_ground |= *stage == Stage::GroundPhase1;
    }
    assert!(saw_ground, "grounding shards missing: {:?}", report.shards);
    let produced: u64 = report.shards.iter().map(|(_, a)| a.produced).sum();
    assert!(produced > 0, "no shard produced anything");
}

#[test]
fn rule_firings_expose_the_strategy_independent_work_measure() {
    let p = programs::transitive_closure();
    let g = generators::gnm(10, 30, &["E"], 5);
    let mut p2 = p.clone();
    let (db, _) = datalog::Database::from_graph(&mut p2, &g);
    let gp = datalog::ground(&p2, &db, &Exec::default()).unwrap();
    let budget = datalog::default_budget(&gp);
    let naive = datalog::naive_eval::<Bool, _>(&gp, &AllOnes, budget);
    let semi = datalog::semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget);
    assert!(naive.converged && semi.converged);
    // Naive fires every grounded rule once per ICO application.
    assert_eq!(naive.rule_firings, naive.iterations * gp.rules.len());
    // Semi-naive fires at least the initial full pass, and the whole point
    // of the strategy is firing (far) fewer rules overall.
    assert!(semi.rule_firings >= gp.rules.len());
    assert!(
        semi.rule_firings <= naive.rule_firings,
        "semi-naive fired more rules ({}) than naive ({})",
        semi.rule_firings,
        naive.rule_firings
    );
}

#[test]
fn datalog_metrics_env_is_the_default_and_explicit_wins() {
    std::env::set_var("DATALOG_METRICS", "1");
    let defaulted = Engine::builder()
        .program(programs::transitive_closure())
        .graph(&generators::path(2, "E"))
        .build()
        .unwrap();
    assert!(defaulted.telemetry_enabled());
    let explicit_off = Engine::builder()
        .program(programs::transitive_closure())
        .graph(&generators::path(2, "E"))
        .telemetry(false)
        .build()
        .unwrap();
    assert!(!explicit_off.telemetry_enabled());
    std::env::set_var("DATALOG_METRICS", "0");
    let off = Engine::builder()
        .program(programs::transitive_closure())
        .graph(&generators::path(2, "E"))
        .build()
        .unwrap();
    assert!(!off.telemetry_enabled());
    std::env::remove_var("DATALOG_METRICS");
}
