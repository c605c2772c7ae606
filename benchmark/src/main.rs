//! The engine's benchmark: three seeded workloads measured end to end, and
//! a traced mode that breaks the same work into per-layer numbers.
//!
//! ```text
//! enginebench --workload <oneshot_tc|circuits_dyck|serve_mixed>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The report lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this crate for the workloads and metric definitions.

mod circuits;
mod inputs;
mod layers;
mod oneshot;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Engine threads for `parallelism` (the host this was sized on has 2 cores).
pub const ENGINE_THREADS: usize = 2;
/// The environment knobs that would otherwise change engine defaults.
const ENGINE_ENV: [&str; 3] = ["DATALOG_PARALLELISM", "DATALOG_PIPELINE", "DATALOG_METRICS"];
/// Failure messages kept for the report.
const MAX_ERRORS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s)
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("trace")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run measured: checked answers, latency series in milliseconds,
/// and exact counts.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub series: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, f64>,
    /// Operations completed inside the timed loop and the loop's length.
    pub ops: u64,
    pub loop_s: f64,
}

impl Measured {
    pub fn sample(&mut self, series: &'static str, elapsed: Duration) {
        self.series
            .entry(series)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);
    }

    /// Count one attempted operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }

    pub fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.note(e);
        }
        for (k, v) in other.series {
            self.series.entry(k).or_default().extend(v);
        }
        self.counts.extend(other.counts);
        self.ops += other.ops;
    }

    pub fn p50(&self, series: &str) -> f64 {
        self.series
            .get(series)
            .map_or(f64::NAN, |v| stats::median(v))
    }
}

/// One workload: a set-up that makes its inputs from the seed, and a
/// closed loop of timed operations.
pub trait Workload: Sized {
    /// The latency series reported as `heavy_ms` and `light_ms`.
    const HEAVY: &'static str;
    const LIGHT: &'static str;
    /// Times set-up runs per process; `setup_s` is their median.
    const SETUP_REPS: usize = 9;
    fn setup(seed: u64) -> Result<Self, String>;
    fn describe(&self) -> String;
    /// Run operations until `deadline`, recording spans into `tr`.
    fn run(&mut self, deadline: Instant, tr: &mut Tracer, m: &mut Measured);
    /// What the per-layer probes run on.
    fn target(&self) -> layers::Target<'_>;
}

/// An engine builder over string facts with every knob set explicitly:
/// the one place the benchmark chooses engine settings.
pub fn engine_builder(
    facts: &[(&'static str, [String; 2])],
    threads: usize,
    telemetry: bool,
) -> provcirc::EngineBuilder {
    let mut b = provcirc::Engine::builder()
        .parallelism(threads)
        .pipeline(provcirc::Pipeline::Materialized)
        .eval_strategy(provcirc::EvalStrategy::SemiNaive)
        .telemetry(telemetry);
    for (pred, [a, c]) in facts {
        b = b.fact(pred, &[a, c]);
    }
    b
}

/// One result metric: name, unit, value and the samples behind it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The latency metrics of every series: sample count and each percentile
/// the count supports.
fn series_metrics(m: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, values) in &m.series {
        let ps = stats::reportable(values.len());
        if ps.is_empty() {
            out.push(Metric::new(
                format!("{name}.median"),
                "ms",
                stats::median(values),
                values.len(),
            ));
        }
        for p in ps {
            out.push(Metric::new(
                format!("{name}.{}", stats::suffix(p)),
                "ms",
                stats::percentile(values, p),
                values.len(),
            ));
        }
    }
    out
}

fn run<W: Workload>(args: &Args, cleared: &[&str]) -> ExitCode {
    let mut setups = Vec::with_capacity(W::SETUP_REPS);
    let mut workload = None;
    for _ in 0..W::SETUP_REPS {
        // Drop the previous instance first, so set-ups do not overlap.
        drop(workload.take());
        let t0 = Instant::now();
        match W::setup(args.seed) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set-up ran at least once");
    let setup_s = stats::median(&setups);

    println!(
        "run {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"engine_threads\": {ENGINE_THREADS}, \"server_workers\": {}, \
         \"clients\": {}, \"instance\": {}, \"commit\": {}, \"cleared_env\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        serve::WORKERS,
        serve::CLIENTS,
        json_str(&w.describe()),
        json_str(&git_commit()),
        cleared
            .iter()
            .map(|v| json_str(v))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let loop_time = Duration::from_secs_f64(args.seconds);
    let mut m = Measured::default();
    let mut layer_metrics = Vec::new();
    if args.trace {
        // Half the loop untraced and half traced, so the spans' own cost
        // shows as `trace.overhead_pct`; then the per-layer probes.
        let half = loop_time / 2;
        let mut plain = Measured::default();
        w.run(Instant::now() + half, &mut Tracer::off(), &mut plain);
        let mut tr = Tracer::new(Instant::now());
        let mut traced = Measured::default();
        w.run(Instant::now() + half, &mut tr, &mut traced);
        let overhead = |s: &str| (traced.p50(s) / plain.p50(s) - 1.0) * 100.0;
        let trace_overhead = (overhead(W::HEAVY) + overhead(W::LIGHT)) / 2.0;
        m.absorb(plain);
        m.absorb(traced);
        layer_metrics = layers::probe(&w.target(), &mut tr, &mut m);
        layer_metrics.push(Metric::new("trace.overhead_pct", "%", trace_overhead, 2));
        let spans_path = spans_dir().join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tr.write_tsv(&spans_path) {
            Ok(()) => println!(
                "spans {} written to {}",
                tr.spans().len(),
                spans_path.display()
            ),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    } else {
        let t0 = Instant::now();
        w.run(t0 + loop_time, &mut Tracer::off(), &mut m);
        m.loop_s = t0.elapsed().as_secs_f64();
    }
    drop(w);

    let mut e2e = vec![Metric::new("setup_s", "s", setup_s, setups.len())];
    e2e.extend(series_metrics(&m));
    for (name, value) in &m.counts {
        e2e.push(Metric::new(*name, "count", *value, 1));
    }
    let n = |s: &str| m.series.get(s).map_or(0, Vec::len);
    let ops_per_s = m.ops as f64 / m.loop_s;
    e2e.push(Metric::new(
        "error_rate",
        "ratio",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.attempted as usize,
    ));
    if !args.trace {
        e2e.push(Metric::new("ops_per_s", "ops/s", ops_per_s, m.ops as usize));
        e2e.push(Metric::new(
            "heavy_ms.p50",
            "ms",
            m.p50(W::HEAVY),
            n(W::HEAVY),
        ));
        e2e.push(Metric::new(
            "light_ms.p50",
            "ms",
            m.p50(W::LIGHT),
            n(W::LIGHT),
        ));
    }
    e2e.push(Metric::new("peak_rss_mib", "MiB", peak_rss_mib(), 1));

    for metric in e2e.iter().chain(&layer_metrics) {
        println!(
            "metric {:<34} {:>14.4} {:<6} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for e in &m.errors {
        println!("failure {e}");
    }

    // The gated set: end-to-end untraced, per-layer traced.
    let gated: Vec<&Metric> = if args.trace {
        layer_metrics.iter().collect()
    } else {
        GATED
            .iter()
            .map(|g| {
                e2e.iter()
                    .find(|x| x.name == *g)
                    .expect("gated metric computed")
            })
            .collect()
    };
    let mut failed = m.failed;
    let fields: Vec<String> = gated
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() {
                x.value.to_string()
            } else {
                // A metric the run could not measure fails the run.
                eprintln!("error: metric {} was not measured", x.name);
                failed += 1;
                "null".to_owned()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&x.name),
                json_str(x.unit)
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates on, in its order.
const GATED: [&str; 5] = [
    "setup_s",
    "heavy_ms.p50",
    "light_ms.p50",
    "ops_per_s",
    "peak_rss_mib",
];

/// Where span dumps go: beside the build output.
fn spans_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("benchmark/target"))
        .join("enginebench")
}

fn main() -> ExitCode {
    // Every engine knob is set explicitly below; clear the environment
    // overrides so they cannot change what is measured either.
    let cleared: Vec<&str> = ENGINE_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    for v in &cleared {
        std::env::remove_var(v);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: enginebench --workload <oneshot_tc|circuits_dyck|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "oneshot_tc" => run::<oneshot::OneshotTc>(&args, &cleared),
        "circuits_dyck" => run::<circuits::CircuitsDyck>(&args, &cleared),
        "serve_mixed" => run::<serve::ServeMixed>(&args, &cleared),
        other => {
            eprintln!("error: unknown workload {other:?}");
            ExitCode::from(2)
        }
    }
}
