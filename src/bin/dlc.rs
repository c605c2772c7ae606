//! `dlc` — the datalog-circuits command line.
//!
//! ```text
//! dlc classify <program.dl> [--metrics] [--metrics-json <path>]
//! dlc compile  <program.dl> --graph <edges.txt> --src N --dst M
//!              [--strategy auto|grounded|bounded|magic|bellman-ford|squaring|uvg]
//!              [--semiring tropical|boolean|fuzzy|bottleneck|counting]
//!              [--weights w0,w1,…] [--show-polynomial]
//!              [--metrics] [--metrics-json <path>]
//! dlc bounded  <program.dl>
//! dlc serve    [--addr <host:port>] [--workers N] [--eval-threads N]
//!              [--timeout-secs S] [--session-ttl <secs>] [--pending-limit N]
//! dlc client   <host:port> [--script <file>] [--metrics-json <path>]
//! ```
//!
//! Program files use the `datalog::parser` syntax; graph files have one
//! `src dst label` triple per line (`#` comments allowed). All subcommands
//! are thin wrappers over the [`Engine`] session facade.
//!
//! `--metrics` enables the session's pipeline telemetry and prints the
//! per-stage breakdown (wall-clock spans, fixpoint round series, parallel
//! shard stats, cache events) after the normal output; `--metrics-json`
//! additionally writes the machine-readable report to a file (implies
//! `--metrics`). The `DATALOG_METRICS` environment variable enables the
//! same collection without a flag. Under `--metrics`, `compile` also runs
//! one semiring evaluation through the Datalog fixpoint so grounding and
//! evaluation stages show up even for strategies that never ground.

use std::process::ExitCode;

use datalog_circuits::graphgen::LabeledDigraph;
use datalog_circuits::provcirc::prelude::*;
use datalog_circuits::provcirc::{Engine, Error};
use datalog_circuits::semiring::prelude::*;
use datalog_circuits::semiring::{AllOnes, FromEdgeWeights};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  dlc classify <program.dl> [--metrics] [--metrics-json <path>]");
            eprintln!("  dlc bounded  <program.dl>");
            eprintln!(
                "  dlc compile  <program.dl> --graph <edges.txt> --src N --dst M \
                 [--strategy S] [--semiring R] [--weights w0,w1,...] [--show-polynomial] \
                 [--metrics] [--metrics-json <path>]"
            );
            eprintln!(
                "  dlc serve    [--addr <host:port>] [--workers N] [--eval-threads N] \
                 [--timeout-secs S] [--session-ttl <secs>] [--pending-limit N]"
            );
            eprintln!("  dlc client   <host:port> [--script <file>] [--metrics-json <path>]");
            ExitCode::FAILURE
        }
    }
}

fn cli_err(message: impl Into<String>) -> Error {
    Error::usage(message)
}

fn run() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| cli_err("missing subcommand"))?;
    match cmd.as_str() {
        "classify" => classify_cmd(rest),
        "bounded" => bounded_cmd(rest),
        "compile" => compile_cmd(rest),
        "serve" => serve_cmd(rest),
        "client" => client_cmd(rest),
        other => Err(cli_err(format!("unknown subcommand '{other}'"))),
    }
}

fn read_file(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })
}

fn load_graph(path: &str) -> Result<LabeledDigraph, Error> {
    let text = read_file(path)?;
    let mut triples: Vec<(u32, u32, String)> = Vec::new();
    let mut max_node = 0u32;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(Error::parse_at(
                "graph",
                lineno + 1,
                format!("{path}: expected 'src dst label'"),
            ));
        }
        let u: u32 = parts[0]
            .parse()
            .map_err(|_| Error::parse_at("graph", lineno + 1, format!("{path}: bad src")))?;
        let v: u32 = parts[1]
            .parse()
            .map_err(|_| Error::parse_at("graph", lineno + 1, format!("{path}: bad dst")))?;
        max_node = max_node.max(u).max(v);
        triples.push((u, v, parts[2].to_owned()));
    }
    let mut g = LabeledDigraph::new(max_node as usize + 1);
    for (u, v, label) in triples {
        g.add_edge(u, v, &label);
    }
    Ok(g)
}

/// The `--metrics` / `--metrics-json <path>` pair shared by subcommands.
/// `--metrics-json` implies `--metrics`.
#[derive(Default)]
struct MetricsOpts {
    enabled: bool,
    json_path: Option<String>,
}

impl MetricsOpts {
    /// Consume the flag if it is one of ours; `Ok(false)` means the caller
    /// should handle it.
    fn consume<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, Error> {
        match flag {
            "--metrics" => self.enabled = true,
            "--metrics-json" => {
                self.json_path = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--metrics-json needs a path"))?
                        .clone(),
                );
                self.enabled = true;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Print the report (and write the JSON file) if requested.
    fn emit(&self, engine: &Engine) -> Result<(), Error> {
        if !self.enabled {
            return Ok(());
        }
        let report = engine.metrics_report();
        println!();
        print!("{report}");
        if let Some(path) = &self.json_path {
            std::fs::write(path, report.to_json()).map_err(|e| Error::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
        }
        Ok(())
    }
}

fn classify_cmd(args: &[String]) -> Result<(), Error> {
    let path = args
        .first()
        .ok_or_else(|| cli_err("classify needs a program file"))?;
    let mut metrics = MetricsOpts::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        if !metrics.consume(flag, &mut it)? {
            return Err(cli_err(format!("unknown flag '{flag}'")));
        }
    }
    let mut builder = Engine::builder().program_text(&read_file(path)?);
    if metrics.enabled {
        builder = builder.telemetry(true);
    }
    let engine = builder.build()?;
    let c = engine.classification();
    println!("program: {path}");
    println!("  linear:            {}", c.syntax.is_linear);
    println!("  monadic:           {}", c.syntax.is_monadic);
    println!("  basic chain:       {}", c.syntax.is_chain);
    println!("  left-linear (RPQ): {}", c.syntax.is_left_linear_chain);
    println!("  connected:         {}", c.syntax.is_connected);
    if let Some(g) = &c.grammar {
        println!(
            "  grammar:           {:?}, regular: {}, longest word: {:?}",
            g.language, g.regular, g.longest_word
        );
    }
    println!("  boundedness:       {:?}", c.boundedness.verdict);
    println!("  depth upper bound: {:?}", c.depth_upper);
    println!("  depth lower bound: {:?}", c.depth_lower);
    println!("  formula verdict:   {:?}", c.formula);
    metrics.emit(&engine)
}

fn bounded_cmd(args: &[String]) -> Result<(), Error> {
    let path = args
        .first()
        .ok_or_else(|| cli_err("bounded needs a program file"))?;
    let engine = Engine::builder().program_text(&read_file(path)?).build()?;
    let report = &engine.classification().boundedness;
    println!("{:?}", report.verdict);
    if let Some(e) = &report.evidence {
        println!(
            "expansion evidence: bound {:?}, horizon {}, truncated {}",
            e.bound, e.horizon, e.truncated
        );
    }
    Ok(())
}

fn compile_cmd(args: &[String]) -> Result<(), Error> {
    let path = args
        .first()
        .ok_or_else(|| cli_err("compile needs a program file"))?;
    let mut graph_path = None;
    let mut src = None;
    let mut dst = None;
    let mut strategy = Strategy::Auto;
    let mut semiring = "tropical".to_owned();
    let mut weights: Vec<u64> = Vec::new();
    let mut show_poly = false;
    let mut metrics = MetricsOpts::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        if metrics.consume(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--graph" => {
                graph_path = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--graph needs a path"))?
                        .clone(),
                )
            }
            "--src" => {
                src = Some(parse_u32(
                    it.next().ok_or_else(|| cli_err("--src needs a node"))?,
                )?);
            }
            "--dst" => {
                dst = Some(parse_u32(
                    it.next().ok_or_else(|| cli_err("--dst needs a node"))?,
                )?);
            }
            "--strategy" => {
                strategy = parse_strategy(
                    it.next()
                        .ok_or_else(|| cli_err("--strategy needs a name"))?,
                )?;
            }
            "--semiring" => {
                semiring = it
                    .next()
                    .ok_or_else(|| cli_err("--semiring needs a name"))?
                    .clone();
            }
            "--weights" => {
                weights = it
                    .next()
                    .ok_or_else(|| cli_err("--weights needs a list"))?
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse()
                            .map_err(|_| cli_err(format!("bad weight '{w}'")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--show-polynomial" => show_poly = true,
            other => return Err(cli_err(format!("unknown flag '{other}'"))),
        }
    }
    let graph = load_graph(&graph_path.ok_or_else(|| cli_err("--graph is required"))?)?;
    let (src, dst) = (
        src.ok_or_else(|| cli_err("--src is required"))?,
        dst.ok_or_else(|| cli_err("--dst is required"))?,
    );

    let mut builder = Engine::builder()
        .program_text(&read_file(path)?)
        .graph(&graph);
    if metrics.enabled {
        builder = builder.telemetry(true);
    }
    let engine = builder.build()?;
    let query = engine.node_query(src, dst)?;
    if metrics.enabled {
        // Force one evaluation through the Datalog fixpoint so the
        // grounding and eval stages are populated even when the chosen
        // strategy compiles straight off the graph (e.g. ProductSquaring
        // never grounds). Divergence is a report detail here, not an error.
        match query.eval::<Bool, _>(&AllOnes) {
            Ok(_) | Err(Error::Diverged { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    let compiled = query.circuit(strategy)?;
    println!(
        "strategy: {:?}   gates: {}   depth: {}   formula size: {}",
        compiled.strategy,
        compiled.stats.num_gates,
        compiled.stats.depth,
        compiled.stats.formula_size
    );
    // The i-th graph edge carries weights[i] (default 1); non-edge facts
    // (there are none in a graph session) fall back to `1`. Evaluation
    // goes through `Query::circuit_eval`, which reuses the cached
    // compilation and runs one sequential bottom-up pass, timed under the
    // `circuit_eval` telemetry stage.
    let weight = |i: usize| weights.get(i).copied().unwrap_or(1);
    match semiring.as_str() {
        "boolean" => println!(
            "value (boolean): {}",
            query.circuit_eval::<Bool, _>(strategy, &AllOnes)?
        ),
        "tropical" => println!(
            "value (tropical): {}",
            query.circuit_eval(
                strategy,
                &FromEdgeWeights::from_fn(engine.edge_facts(), |i| Tropical::new(weight(i)))
            )?
        ),
        "fuzzy" => println!(
            "value (fuzzy): {}",
            query.circuit_eval(
                strategy,
                &FromEdgeWeights::from_fn(engine.edge_facts(), |i| {
                    Fuzzy::new(1.0 / (1.0 + weight(i) as f64))
                })
            )?
        ),
        "bottleneck" => println!(
            "value (bottleneck): {}",
            query.circuit_eval(
                strategy,
                &FromEdgeWeights::from_fn(engine.edge_facts(), |i| Bottleneck::new(weight(i)))
            )?
        ),
        "counting" => println!(
            "value (counting): {}",
            query.circuit_eval::<Counting, _>(strategy, &AllOnes)?
        ),
        other => return Err(cli_err(format!("unknown semiring '{other}'"))),
    }
    if show_poly {
        println!("polynomial: {}", compiled.circuit.polynomial());
    }
    metrics.emit(&engine)
}

/// `dlc serve` — run the engine-as-a-service TCP server (see the
/// `server` crate for the protocol). Blocks until a client sends
/// `SHUTDOWN`, then drains the worker pool and exits cleanly.
fn serve_cmd(args: &[String]) -> Result<(), Error> {
    let mut config = datalog_circuits::server::ServerConfig::default().addr("127.0.0.1:7171");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                config = config.addr(
                    it.next()
                        .ok_or_else(|| cli_err("--addr needs host:port"))?
                        .clone(),
                );
            }
            "--workers" => {
                let n: usize = it
                    .next()
                    .ok_or_else(|| cli_err("--workers needs a count"))?
                    .parse()
                    .map_err(|_| cli_err("--workers needs a number"))?;
                config = config.workers(n);
            }
            "--eval-threads" => {
                let n: usize = it
                    .next()
                    .ok_or_else(|| cli_err("--eval-threads needs a count"))?
                    .parse()
                    .map_err(|_| cli_err("--eval-threads needs a number"))?;
                config = config.eval_threads(n);
            }
            "--timeout-secs" => {
                let s: u64 = it
                    .next()
                    .ok_or_else(|| cli_err("--timeout-secs needs seconds"))?
                    .parse()
                    .map_err(|_| cli_err("--timeout-secs needs a number"))?;
                config = config.read_timeout((s > 0).then(|| std::time::Duration::from_secs(s)));
            }
            "--session-ttl" => {
                let s: u64 = it
                    .next()
                    .ok_or_else(|| cli_err("--session-ttl needs seconds"))?
                    .parse()
                    .map_err(|_| cli_err("--session-ttl needs a number"))?;
                config = config.session_ttl((s > 0).then(|| std::time::Duration::from_secs(s)));
            }
            "--pending-limit" => {
                let n: usize = it
                    .next()
                    .ok_or_else(|| cli_err("--pending-limit needs a count"))?
                    .parse()
                    .map_err(|_| cli_err("--pending-limit needs a number"))?;
                config = config.pending_limit(n);
            }
            other => return Err(cli_err(format!("unknown flag '{other}'"))),
        }
    }
    let handle = datalog_circuits::server::Server::bind(config).map_err(|e| Error::Io {
        path: "serve".to_owned(),
        message: e.to_string(),
    })?;
    println!("serving on {}", handle.addr());
    // Make the address reach pipes promptly so scripted callers can
    // connect as soon as the line appears.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    handle.wait().map_err(|_| Error::Io {
        path: "serve".to_owned(),
        message: "server thread panicked".to_owned(),
    })?;
    println!("server drained, bye");
    Ok(())
}

/// `dlc client` — drive a protocol script against a running server.
/// Commands come from `--script <file>` or stdin; every reply line is
/// printed to stdout prefixed with `< `. `--metrics-json <path>` writes
/// the body of the last `OK METRICS` reply to a file (handy for CI).
fn client_cmd(args: &[String]) -> Result<(), Error> {
    let addr = args
        .first()
        .ok_or_else(|| cli_err("client needs a server address"))?;
    let mut script_path = None;
    let mut metrics_json = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--script" => {
                script_path = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--script needs a path"))?
                        .clone(),
                );
            }
            "--metrics-json" => {
                metrics_json = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--metrics-json needs a path"))?
                        .clone(),
                );
            }
            other => return Err(cli_err(format!("unknown flag '{other}'"))),
        }
    }
    let script = match script_path {
        Some(path) => read_file(&path)?,
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| Error::Io {
                    path: "stdin".to_owned(),
                    message: e.to_string(),
                })?;
            buf
        }
    };
    let io_err = |e: std::io::Error| Error::Io {
        path: addr.clone(),
        message: e.to_string(),
    };
    let mut client = datalog_circuits::server::client::Client::connect(addr).map_err(io_err)?;
    let replies = client.run_script(&script).map_err(io_err)?;
    let mut last_metrics: Option<String> = None;
    let mut any_err = false;
    for reply in &replies {
        println!("< {}", reply.status);
        for line in &reply.body {
            println!("< {line}");
        }
        any_err |= !reply.is_ok();
        if reply.status.starts_with("OK METRICS") {
            last_metrics = Some(reply.body.join("\n"));
        }
    }
    if let Some(path) = metrics_json {
        let json = last_metrics
            .ok_or_else(|| cli_err("--metrics-json set but the script never ran METRICS"))?;
        std::fs::write(&path, json).map_err(|e| Error::Io {
            path,
            message: e.to_string(),
        })?;
    }
    if any_err {
        return Err(cli_err("one or more commands returned ERR"));
    }
    Ok(())
}

fn parse_u32(s: &str) -> Result<u32, Error> {
    s.parse().map_err(|_| cli_err(format!("bad number '{s}'")))
}

fn parse_strategy(s: &str) -> Result<Strategy, Error> {
    Ok(match s {
        "auto" => Strategy::Auto,
        "grounded" => Strategy::GroundedFixpoint,
        "bounded" => Strategy::BoundedLayered,
        "magic" => Strategy::MagicFiniteRpq,
        "bellman-ford" => Strategy::ProductBellmanFord,
        "squaring" => Strategy::ProductSquaring,
        "uvg" => Strategy::UllmanVanGelder,
        other => return Err(cli_err(format!("unknown strategy '{other}'"))),
    })
}
