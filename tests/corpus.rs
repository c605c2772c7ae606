//! Snapshot-test corpus for the two query pipelines.
//!
//! Each `tests/corpus/*.dl` file is a tiny script — a program block, EDB
//! facts, optional per-fact weights, and a list of bound point queries.
//! The runner evaluates **every query under both pipelines**
//! (materialized, magic), asserts the rendered answers are
//! byte-identical across pipelines, and then diffs the materialized
//! answers against the committed `<case>.dl.out` snapshot. It also loads
//! each case into a server session and answers its queries over the wire,
//! one `BATCH` per pipeline with `perfact` weights sent as `WEIGHT` lines:
//! every row must render the engine's answer, a `DIVERGED` one as an
//! `ERR EVAL` row.
//!
//! Workflow knobs (env vars):
//! - `CORPUS_UPDATE=1` — rewrite every `.dl.out` from the current
//!   materialized answers instead of diffing (run after an intentional
//!   semantics change, then review the diff in git).
//! - `CORPUS_FILTER=<substring>` — only run case files whose name
//!   contains the substring (the CI fast lane uses this as a smoke run).
//!
//! Script grammar (one directive per line, `#` starts a comment):
//! ```text
//! PROGRAM          # datalog rules until END (may be empty)
//!   T(X,Y) :- E(X,Y).
//! END
//! FACT E v0 v1     # one EDB fact
//! WEIGHT E v0 v1 3 # per-fact weight, used by VALUATION perfact
//! QUERY T v0 v1 SEMIRING tropical VALUATION unit:1
//! ```
//! Valuations are `ones` (default), `unit:<w>`, or `perfact`. A query
//! whose evaluation exceeds the budget renders `DIVERGED` — divergence
//! behaviour is part of the snapshot contract, and both pipelines must
//! agree on it too.

use std::fs;
use std::path::{Path, PathBuf};

use datalog_circuits::provcirc::{Engine, Error, Pipeline};
use datalog_circuits::semiring::valuation::{AllOnes, PerFact, UnitWeights};
use datalog_circuits::semiring::{Bool, Bottleneck, Counting, Fuzzy, Semiring, Tropical};
use datalog_circuits::server::protocol::{parse_weight_line, QuerySpec, WireValuation};
use datalog_circuits::server::session::Registry;

struct Case {
    program: String,
    facts: Vec<(String, Vec<String>)>,
    weights: Vec<(String, Vec<String>, f64)>,
    queries: Vec<CorpusQuery>,
}

struct CorpusQuery {
    pred: String,
    args: Vec<String>,
    semiring: String,
    valuation: String,
}

impl CorpusQuery {
    /// The stable left-hand side of a snapshot line.
    fn label(&self) -> String {
        format!(
            "{} {} {} {}",
            self.pred,
            self.args.join(" "),
            self.semiring,
            self.valuation
        )
    }
}

fn parse_case(path: &Path, text: &str) -> Case {
    let mut program = String::new();
    let mut facts = Vec::new();
    let mut weights = Vec::new();
    let mut queries = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((n, raw)) = lines.next() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |msg: &str| -> ! { panic!("{}:{}: {msg}: {raw:?}", path.display(), n + 1) };
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        match toks[0] {
            "PROGRAM" => {
                for (_, raw) in lines.by_ref() {
                    if raw.trim() == "END" {
                        break;
                    }
                    program.push_str(raw);
                    program.push('\n');
                }
            }
            "FACT" => {
                if toks.len() < 2 {
                    bad("FACT needs a predicate");
                }
                facts.push((
                    toks[1].to_owned(),
                    toks[2..].iter().map(|s| (*s).to_owned()).collect(),
                ));
            }
            "WEIGHT" => {
                if toks.len() < 4 {
                    bad("WEIGHT needs <pred> <c…> <w>");
                }
                let w: f64 = toks[toks.len() - 1]
                    .parse()
                    .unwrap_or_else(|_| bad("WEIGHT needs a numeric weight"));
                weights.push((
                    toks[1].to_owned(),
                    toks[2..toks.len() - 1]
                        .iter()
                        .map(|s| (*s).to_owned())
                        .collect(),
                    w,
                ));
            }
            "QUERY" => {
                let sem_pos = toks
                    .iter()
                    .position(|t| *t == "SEMIRING")
                    .unwrap_or_else(|| bad("QUERY needs a SEMIRING clause"));
                if sem_pos < 2 || sem_pos + 1 >= toks.len() {
                    bad("QUERY <pred> <c…> SEMIRING <name> [VALUATION <spec>]");
                }
                let valuation = match toks.get(sem_pos + 2) {
                    None => "ones".to_owned(),
                    Some(&"VALUATION") => toks
                        .get(sem_pos + 3)
                        .unwrap_or_else(|| bad("VALUATION needs a spec"))
                        .to_string(),
                    Some(_) => bad("trailing tokens after SEMIRING name"),
                };
                queries.push(CorpusQuery {
                    pred: toks[1].to_owned(),
                    args: toks[2..sem_pos].iter().map(|s| (*s).to_owned()).collect(),
                    semiring: toks[sem_pos + 1].to_owned(),
                    valuation,
                });
            }
            _ => bad("unknown directive"),
        }
    }
    assert!(
        !queries.is_empty(),
        "{}: a corpus case must hold at least one QUERY",
        path.display()
    );
    Case {
        program,
        facts,
        weights,
        queries,
    }
}

fn build_engine(case: &Case, pipeline: Pipeline) -> Engine {
    let mut b = Engine::builder()
        .program_text(&case.program)
        .pipeline(pipeline)
        .parallelism(
            std::env::var("DATALOG_PARALLELISM")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
        );
    for (p, args) in &case.facts {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        b = b.fact(p, &refs);
    }
    b.build().expect("corpus case must build")
}

/// Resolve the case's `WEIGHT` lines into a [`PerFact`] valuation against
/// the engine's frozen database. Weights must name real EDB facts — a
/// typo in a corpus file should fail loudly, not weigh nothing.
fn perfact<S: Semiring>(engine: &Engine, case: &Case, mk: &dyn Fn(f64) -> S) -> PerFact<S> {
    let snap = engine.snapshot().expect("snapshot for perfact weights");
    let mut v = PerFact::new();
    for (p, args, w) in &case.weights {
        let pred = snap
            .program()
            .preds
            .get(p)
            .unwrap_or_else(|| panic!("WEIGHT names unknown predicate {p:?}"));
        let tuple: Vec<u32> = args
            .iter()
            .map(|c| {
                snap.database()
                    .consts
                    .get(c)
                    .unwrap_or_else(|| panic!("WEIGHT names unknown constant {c:?}"))
            })
            .collect();
        let fact = snap
            .database()
            .fact_id(pred, &tuple)
            .unwrap_or_else(|| panic!("WEIGHT names unknown EDB fact {p} {}", args.join(" ")));
        v.insert(fact, mk(*w));
    }
    v
}

/// Evaluate one query on one engine and render the answer. `DIVERGED` is
/// a first-class answer; any other error is a corpus-authoring bug.
fn eval_one<S: Semiring>(
    engine: &Engine,
    case: &Case,
    q: &CorpusQuery,
    unit: &dyn Fn(f64) -> S,
    render: &dyn Fn(&S) -> String,
) -> String {
    let args: Vec<&str> = q.args.iter().map(String::as_str).collect();
    let query = engine
        .query(&q.pred, &args)
        .unwrap_or_else(|e| panic!("QUERY {}: {e}", q.label()));
    let out = match q.valuation.as_str() {
        "ones" => query.eval::<S, _>(&AllOnes),
        "perfact" => query.eval(&perfact(engine, case, unit)),
        u => match u.strip_prefix("unit:") {
            Some(w) => {
                let w: f64 = w
                    .parse()
                    .unwrap_or_else(|_| panic!("bad unit weight {u:?}"));
                query.eval(&UnitWeights::new(unit(w)))
            }
            None => panic!("unknown valuation {u:?} (ones | unit:<w> | perfact)"),
        },
    };
    match out {
        Ok(v) => render(&v),
        Err(Error::Diverged { .. }) => "DIVERGED".to_owned(),
        Err(e) => panic!("QUERY {}: {e}", q.label()),
    }
}

fn eval_case_on(engine: &Engine, case: &Case) -> Vec<String> {
    case.queries
        .iter()
        .map(|q| match q.semiring.as_str() {
            "bool" => eval_one::<Bool>(engine, case, q, &|_| Bool(true), &|b| b.0.to_string()),
            "tropical" => {
                eval_one::<Tropical>(engine, case, q, &|w| Tropical::new(w as u64), &|t| match t
                    .finite()
                {
                    Some(w) => w.to_string(),
                    None => "inf".to_owned(),
                })
            }
            "counting" => {
                eval_one::<Counting>(engine, case, q, &|w| Counting::new(w as u64), &|c| {
                    c.0.to_string()
                })
            }
            "fuzzy" => eval_one::<Fuzzy>(engine, case, q, &Fuzzy::new, &|f| f.value().to_string()),
            "bottleneck" => {
                eval_one::<Bottleneck>(engine, case, q, &|w| Bottleneck::new(w as u64), &|b| {
                    b.0.to_string()
                })
            }
            other => panic!("unknown semiring {other:?} in corpus query"),
        })
        .collect()
}

/// Answer the case's queries over the wire: one server session holds the
/// case, and one `BATCH` per pipeline answers every query. Rows render as
/// the engine's answers do; an `ERR EVAL` row renders `DIVERGED`.
fn eval_case_on_wire(case: &Case) -> Vec<(Pipeline, Vec<String>)> {
    let session = Registry::new(1).open();
    session
        .load_program(&case.program)
        .expect("corpus program loads over the wire");
    session
        .load_facts(case.facts.clone())
        .expect("corpus facts load over the wire");
    let weights: Vec<_> = case
        .weights
        .iter()
        .map(|(p, args, w)| {
            parse_weight_line(&format!("WEIGHT {p} {} {w}", args.join(" "))).expect("WEIGHT line")
        })
        .collect();
    [Pipeline::Materialized, Pipeline::Magic]
        .into_iter()
        .map(|pipeline| {
            let batch: Vec<QuerySpec> = case
                .queries
                .iter()
                .map(|q| {
                    let line = format!(
                        "{} {} SEMIRING {} VALUATION {} PIPELINE {}",
                        q.pred,
                        q.args.join(" "),
                        q.semiring,
                        q.valuation,
                        pipeline.name()
                    );
                    let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
                    let mut spec = QuerySpec::parse(&tokens)
                        .unwrap_or_else(|e| panic!("QUERY {}: {e}", q.label()));
                    if let WireValuation::PerFact(ws) = &mut spec.valuation {
                        ws.clone_from(&weights);
                    }
                    spec
                })
                .collect();
            let rows = session.batch(&batch).expect("corpus BATCH");
            let rendered = rows
                .into_iter()
                .map(|row| match row {
                    Ok(v) => v,
                    Err(e) if e.render().starts_with("ERR EVAL") => "DIVERGED".to_owned(),
                    Err(e) => e.render(),
                })
                .collect();
            (pipeline, rendered)
        })
        .collect()
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Run one case: cross-pipeline agreement first, then the snapshot diff
/// (or rewrite, under `CORPUS_UPDATE`). Returns human-readable failure
/// lines instead of panicking so one bad case doesn't hide the rest.
fn run_case(path: &Path, update: bool, failures: &mut Vec<String>) {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let text = fs::read_to_string(path).expect("read corpus case");
    let case = parse_case(path, &text);

    let materialized = eval_case_on(&build_engine(&case, Pipeline::Materialized), &case);
    let magic = eval_case_on(&build_engine(&case, Pipeline::Magic), &case);
    for (i, q) in case.queries.iter().enumerate() {
        if materialized[i] != magic[i] {
            failures.push(format!(
                "{name}: {}: magic {:?} != materialized {:?}",
                q.label(),
                magic[i],
                materialized[i]
            ));
        }
    }
    for (pipeline, wire) in eval_case_on_wire(&case) {
        for (i, q) in case.queries.iter().enumerate() {
            if wire[i] != materialized[i] {
                failures.push(format!(
                    "{name}: {}: wire {} {:?} != engine {:?}",
                    q.label(),
                    pipeline.name(),
                    wire[i],
                    materialized[i]
                ));
            }
        }
    }

    let rendered: String = case
        .queries
        .iter()
        .zip(&materialized)
        .map(|(q, v)| format!("{} = {v}\n", q.label()))
        .collect();
    let out_path = path.with_extension("dl.out");
    if update {
        fs::write(&out_path, &rendered).expect("write snapshot");
        return;
    }
    match fs::read_to_string(&out_path) {
        Ok(expected) if expected == rendered => {}
        Ok(expected) => failures.push(format!(
            "{name}: snapshot mismatch (CORPUS_UPDATE=1 to accept)\n--- expected\n{expected}--- got\n{rendered}"
        )),
        Err(_) => failures.push(format!(
            "{name}: missing snapshot {} (CORPUS_UPDATE=1 to create)",
            out_path.display()
        )),
    }
}

#[test]
fn corpus_cases_agree_across_pipelines_and_match_snapshots() {
    let update = std::env::var("CORPUS_UPDATE").is_ok_and(|v| v == "1");
    let filter = std::env::var("CORPUS_FILTER").ok();
    let mut cases: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "dl"))
        .filter(|p| {
            filter.as_deref().is_none_or(|f| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().contains(f))
            })
        })
        .collect();
    cases.sort();
    if filter.is_none() {
        assert!(
            cases.len() >= 20,
            "corpus shrank below 20 cases ({} found) — the acceptance bar requires ≥20",
            cases.len()
        );
    }
    assert!(!cases.is_empty(), "no corpus cases matched the filter");

    let mut failures = Vec::new();
    for path in &cases {
        run_case(path, update, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "{} corpus failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
