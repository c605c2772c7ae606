//! The line-oriented wire protocol: request parsing and reply framing.
//!
//! # Grammar
//!
//! Requests are single UTF-8 lines (LF- or CRLF-terminated, at most
//! [`MAX_LINE`] bytes), tokenized on ASCII whitespace:
//!
//! ```text
//! SESSION OPEN                      → OK SESSION <id>
//! SESSION ATTACH <id>               → OK SESSION <id>
//! SESSION CLOSE                     → OK CLOSED <id>
//! LOAD PROGRAM                      → (lines of Datalog text …) END → OK PROGRAM <rules>
//! LOAD FACTS                        → (lines `Pred c1 c2 …` …) END → OK FACTS <n>
//! INSERT <pred> <c…>                → OK INSERTED <n> EPOCH <e>   (incremental write path)
//! RETRACT <pred> <c…>               → OK RETRACTED <n> EPOCH <e>  (incremental write path)
//! QUERY <pred> <c…> SEMIRING <name> [VALUATION <spec>] [PIPELINE <name>]
//!                                   → OK VALUE <rendered>
//! BATCH                             → (QUERY-shaped lines …) END
//!                                   → OK BATCH <n>, then n lines `<i> OK <v>` | `<i> ERR <code> <msg>`
//! METRICS                           → OK METRICS <n>, then n lines of pipeline_metrics_v1 JSON
//! PING                              → OK PONG
//! SHUTDOWN                          → OK SHUTDOWN, server drains and exits
//! QUIT                              → OK BYE, connection closes
//! ```
//!
//! Every failure is a single `ERR <CODE> <message>` line; the connection
//! always survives a protocol error (the acceptance bar for the serving
//! layer). Multi-line replies are count-prefixed so clients never sniff.
//! The one exception is admission: when the server's bounded pending
//! queue is full, a *new* connection is answered with a single
//! `ERR BUSY <retry-hint>` frame and closed before any command is read —
//! established connections are unaffected.
//!
//! Semiring names: `bool`, `tropical`, `counting`, `fuzzy`, `bottleneck`.
//! Valuation specs: `ones` (the default; every fact ↦ 1), `unit:<w>`
//! (every fact ↦ the same weight `w`; rejected for `bool`, whose only
//! usable unit is its 1), and `perfact` — individual fact weights follow
//! as `WEIGHT <pred> <c…> <w>` lines, terminated by `END` for a bare
//! `QUERY` or attached to the preceding item inside a `BATCH` block;
//! unlisted facts default to the semiring's 1.
//!
//! The optional `PIPELINE` clause picks the grounding/evaluation route
//! per query: `materialized` (the default — the session's cached full
//! grounding) or `magic` (demand-driven point query; goals the magic
//! rewrite does not cover fall back to `materialized` transparently).
//! Both return bit-identical values; any other name is a `QUERY` error.
//!
//! `INSERT`/`RETRACT` are the incremental write path: unlike `LOAD FACTS`
//! (which rebuilds the engine and re-grounds), they maintain the session's
//! cached grounding in place via `Engine::insert_facts` /
//! `Engine::retract_facts` and atomically swap in the next snapshot —
//! concurrent readers keep the old one. `<n>` is the number of facts
//! actually changed (0 for a duplicate insert), `<e>` the session's write
//! epoch after the command.

use std::fmt;

use provcirc::Pipeline;
use semiring::{Bool, Bottleneck, Counting, Fuzzy, Semiring, Tropical};

/// Maximum accepted request-line length in bytes. Longer lines are
/// discarded up to the next newline and answered with `ERR TOOLONG` —
/// the connection survives.
pub const MAX_LINE: usize = 64 * 1024;

/// Machine-readable error codes carried on `ERR` lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// The verb is not part of the protocol.
    UnknownCommand,
    /// The command needs an open session and none is attached.
    NoSession,
    /// `SESSION ATTACH` named a session that does not exist (or was closed).
    BadSession,
    /// A request line exceeded [`MAX_LINE`] bytes.
    TooLong,
    /// The session has no program loaded yet.
    NoProgram,
    /// Program text or fact lines failed to parse / build.
    Parse,
    /// Unknown semiring name.
    Semiring,
    /// Malformed or unsupported valuation spec.
    Valuation,
    /// The query itself is malformed (unknown predicate, arity, syntax).
    Query,
    /// Evaluation failed (e.g. divergence within the session budget).
    Eval,
    /// Unexpected end of a payload block (connection closed before `END`).
    Payload,
    /// The server's pending-connection queue is full; the connection was
    /// rejected with a single frame before any command was read. Clients
    /// should back off and retry.
    Busy,
}

impl ErrCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::UnknownCommand => "UNKNOWN-COMMAND",
            ErrCode::NoSession => "NO-SESSION",
            ErrCode::BadSession => "BAD-SESSION",
            ErrCode::TooLong => "TOOLONG",
            ErrCode::NoProgram => "NO-PROGRAM",
            ErrCode::Parse => "PARSE",
            ErrCode::Semiring => "SEMIRING",
            ErrCode::Valuation => "VALUATION",
            ErrCode::Query => "QUERY",
            ErrCode::Eval => "EVAL",
            ErrCode::Payload => "PAYLOAD",
            ErrCode::Busy => "BUSY",
        }
    }
}

/// A protocol-level failure: code + single-line human message, rendered
/// as `ERR <CODE> <message>`.
#[derive(Clone, Debug)]
pub struct WireError {
    /// Machine-readable code.
    pub code: ErrCode,
    /// One-line diagnostic (newlines are squashed at render time).
    pub message: String,
}

impl WireError {
    /// Build an error reply.
    pub fn new(code: ErrCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Render the `ERR` line (without trailing newline). Embedded
    /// newlines are flattened so the reply stays a single frame.
    pub fn render(&self) -> String {
        let msg = self.message.replace(['\n', '\r'], " ");
        format!("ERR {} {}", self.code.as_str(), msg.trim())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The semirings the wire protocol can evaluate over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireSemiring {
    /// `bool` — derivability.
    Bool,
    /// `tropical` — min-plus shortest proofs.
    Tropical,
    /// `counting` — derivation counting (naive fallback; may diverge).
    Counting,
    /// `fuzzy` — max-min truth degrees on `[0, 1]`.
    Fuzzy,
    /// `bottleneck` — max-min capacities.
    Bottleneck,
}

impl WireSemiring {
    /// Resolve a wire name (case-insensitive).
    pub fn parse(name: &str) -> Result<Self, WireError> {
        match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Ok(WireSemiring::Bool),
            "tropical" | "trop" => Ok(WireSemiring::Tropical),
            "counting" | "count" => Ok(WireSemiring::Counting),
            "fuzzy" => Ok(WireSemiring::Fuzzy),
            "bottleneck" => Ok(WireSemiring::Bottleneck),
            other => Err(WireError::new(
                ErrCode::Semiring,
                format!("unknown semiring {other:?} (bool|tropical|counting|fuzzy|bottleneck)"),
            )),
        }
    }

    /// The canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            WireSemiring::Bool => "bool",
            WireSemiring::Tropical => "tropical",
            WireSemiring::Counting => "counting",
            WireSemiring::Fuzzy => "fuzzy",
            WireSemiring::Bottleneck => "bottleneck",
        }
    }
}

/// How the wire reads and writes one semiring's values: a `unit:<w>` or
/// `WEIGHT` weight is parsed with the semiring's range check, and an
/// answer is rendered as the `OK VALUE` text.
pub trait WireValue: Semiring {
    /// Parse a weight, or answer `ERR VALUATION` when it is out of the
    /// semiring's range.
    fn parse_weight(w: f64) -> Result<Self, WireError>;
    /// The value as the wire prints it.
    fn render(&self) -> String;
}

/// A non-negative integer weight, for the `u64`-weighted semirings.
fn integer_weight<S: Semiring>(w: f64) -> Result<u64, WireError> {
    if w.fract() != 0.0 || w < 0.0 || w > u64::MAX as f64 {
        return Err(WireError::new(
            ErrCode::Valuation,
            format!("weight must be a non-negative integer for {}", S::NAME),
        ));
    }
    Ok(w as u64)
}

impl WireValue for Bool {
    fn parse_weight(_: f64) -> Result<Self, WireError> {
        Err(WireError::new(
            ErrCode::Valuation,
            "bool only supports the ones valuation",
        ))
    }

    fn render(&self) -> String {
        self.0.to_string()
    }
}

impl WireValue for Tropical {
    fn parse_weight(w: f64) -> Result<Self, WireError> {
        integer_weight::<Self>(w).map(Tropical::new)
    }

    fn render(&self) -> String {
        match self.finite() {
            Some(w) => w.to_string(),
            None => "inf".to_owned(),
        }
    }
}

impl WireValue for Counting {
    fn parse_weight(w: f64) -> Result<Self, WireError> {
        integer_weight::<Self>(w).map(Counting::new)
    }

    fn render(&self) -> String {
        self.0.to_string()
    }
}

impl WireValue for Bottleneck {
    fn parse_weight(w: f64) -> Result<Self, WireError> {
        integer_weight::<Self>(w).map(Bottleneck::new)
    }

    fn render(&self) -> String {
        self.0.to_string()
    }
}

impl WireValue for Fuzzy {
    fn parse_weight(w: f64) -> Result<Self, WireError> {
        if !(0.0..=1.0).contains(&w) {
            return Err(WireError::new(
                ErrCode::Valuation,
                "weight must be in [0, 1] for fuzzy",
            ));
        }
        Ok(Fuzzy::new(w))
    }

    fn render(&self) -> String {
        self.value().to_string()
    }
}

/// One `WEIGHT` line: an EDB fact and its weight.
#[derive(Clone, Debug, PartialEq)]
pub struct WireWeight {
    /// Fact predicate name.
    pub pred: String,
    /// Fact constants.
    pub args: Vec<String>,
    /// The weight, interpreted per semiring at evaluation time.
    pub weight: f64,
}

/// Parse one `WEIGHT <pred> <c…> <w>` payload line (the `WEIGHT` keyword
/// already stripped or still leading — both accepted).
pub fn parse_weight_line(line: &str) -> Result<WireWeight, WireError> {
    let mut toks: Vec<&str> = line.split_ascii_whitespace().collect();
    if toks
        .first()
        .is_some_and(|t| t.eq_ignore_ascii_case("WEIGHT"))
    {
        toks.remove(0);
    }
    if toks.len() < 3 {
        return Err(WireError::new(
            ErrCode::Valuation,
            "usage: WEIGHT <pred> <c…> <w>",
        ));
    }
    let w_tok = toks.pop().expect("len checked");
    let weight: f64 = w_tok.parse().map_err(|_| {
        WireError::new(
            ErrCode::Valuation,
            format!("bad weight {w_tok:?} (expected a number)"),
        )
    })?;
    if !weight.is_finite() || weight < 0.0 {
        return Err(WireError::new(
            ErrCode::Valuation,
            "fact weight must be finite and non-negative",
        ));
    }
    Ok(WireWeight {
        pred: toks[0].to_owned(),
        args: toks[1..].iter().map(|s| (*s).to_owned()).collect(),
        weight,
    })
}

/// A parsed valuation spec: `ones`, `unit:<weight>`, or `perfact`.
#[derive(Clone, Debug, PartialEq)]
pub enum WireValuation {
    /// Every fact ↦ the semiring's 1 (the default).
    Ones,
    /// Every fact ↦ the same weight, parsed per semiring.
    Unit(f64),
    /// Listed facts ↦ their own weight, unlisted facts ↦ the semiring's 1.
    /// Parsed empty from the `perfact` token; the `WEIGHT` lines that
    /// follow the command fill it in.
    PerFact(Vec<WireWeight>),
}

impl WireValuation {
    /// Parse a `VALUATION` spec token.
    pub fn parse(spec: &str) -> Result<Self, WireError> {
        let lower = spec.to_ascii_lowercase();
        if lower == "ones" {
            return Ok(WireValuation::Ones);
        }
        if lower == "perfact" {
            return Ok(WireValuation::PerFact(Vec::new()));
        }
        if let Some(w) = lower.strip_prefix("unit:") {
            let v: f64 = w.parse().map_err(|_| {
                WireError::new(
                    ErrCode::Valuation,
                    format!("bad unit weight {w:?} (expected a number)"),
                )
            })?;
            if !v.is_finite() || v < 0.0 {
                return Err(WireError::new(
                    ErrCode::Valuation,
                    "unit weight must be finite and non-negative",
                ));
            }
            return Ok(WireValuation::Unit(v));
        }
        Err(WireError::new(
            ErrCode::Valuation,
            format!("unknown valuation {spec:?} (ones | unit:<w> | perfact)"),
        ))
    }
}

/// One `(goal, semiring, valuation, pipeline)` tuple — a `QUERY` line's
/// payload, also the element type of a `BATCH`.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Goal predicate name.
    pub pred: String,
    /// Goal constants.
    pub args: Vec<String>,
    /// Semiring to evaluate over.
    pub semiring: WireSemiring,
    /// Valuation assigning fact weights.
    pub valuation: WireValuation,
    /// Grounding/evaluation pipeline to route through
    /// (`materialized` — the default — | `magic`).
    pub pipeline: Pipeline,
}

impl QuerySpec {
    /// Parse the tokens after the `QUERY` verb:
    /// `<pred> <c…> SEMIRING <name> [VALUATION <spec>] [PIPELINE <name>]`
    /// (the optional clauses may appear in either order, each at most
    /// once).
    pub fn parse(tokens: &[&str]) -> Result<Self, WireError> {
        let sem_pos = tokens
            .iter()
            .position(|t| t.eq_ignore_ascii_case("SEMIRING"))
            .ok_or_else(|| WireError::new(ErrCode::Query, "missing SEMIRING clause in query"))?;
        if sem_pos == 0 {
            return Err(WireError::new(ErrCode::Query, "missing goal predicate"));
        }
        let pred = tokens[0].to_owned();
        let args: Vec<String> = tokens[1..sem_pos].iter().map(|s| (*s).to_owned()).collect();
        let rest = &tokens[sem_pos + 1..];
        let Some((sem_name, mut rest)) = rest.split_first() else {
            return Err(WireError::new(ErrCode::Query, "SEMIRING needs a name"));
        };
        let semiring = WireSemiring::parse(sem_name)?;
        let mut valuation: Option<WireValuation> = None;
        let mut pipeline: Option<Pipeline> = None;
        while let Some((kw, tail)) = rest.split_first() {
            let Some((spec, tail)) = tail.split_first() else {
                return Err(WireError::new(
                    ErrCode::Query,
                    format!("{} needs a value", kw.to_ascii_uppercase()),
                ));
            };
            if kw.eq_ignore_ascii_case("VALUATION") {
                if valuation.is_some() {
                    return Err(WireError::new(ErrCode::Query, "duplicate VALUATION clause"));
                }
                valuation = Some(WireValuation::parse(spec)?);
            } else if kw.eq_ignore_ascii_case("PIPELINE") {
                if pipeline.is_some() {
                    return Err(WireError::new(ErrCode::Query, "duplicate PIPELINE clause"));
                }
                pipeline = Some(Pipeline::parse(spec).ok_or_else(|| {
                    WireError::new(
                        ErrCode::Query,
                        format!("unknown pipeline {spec:?} (materialized | magic)"),
                    )
                })?);
            } else {
                return Err(WireError::new(
                    ErrCode::Query,
                    "trailing tokens (expected VALUATION <spec> or PIPELINE <name>)",
                ));
            }
            rest = tail;
        }
        let valuation = valuation.unwrap_or(WireValuation::Ones);
        if matches!(semiring, WireSemiring::Bool) && !matches!(valuation, WireValuation::Ones) {
            return Err(WireError::new(
                ErrCode::Valuation,
                "bool only supports the ones valuation",
            ));
        }
        Ok(QuerySpec {
            pred,
            args,
            semiring,
            valuation,
            pipeline: pipeline.unwrap_or_default(),
        })
    }
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Command {
    /// `SESSION OPEN`
    SessionOpen,
    /// `SESSION ATTACH <id>`
    SessionAttach(u64),
    /// `SESSION CLOSE`
    SessionClose,
    /// `LOAD PROGRAM` — payload lines follow until `END`.
    LoadProgram,
    /// `LOAD FACTS` — payload lines follow until `END`.
    LoadFacts,
    /// `INSERT <pred> <c…>` — incremental single-fact insert.
    Insert(String, Vec<String>),
    /// `RETRACT <pred> <c…>` — incremental single-fact retraction.
    Retract(String, Vec<String>),
    /// `QUERY …`
    Query(QuerySpec),
    /// `BATCH` — QUERY-shaped payload lines follow until `END`.
    Batch,
    /// `METRICS`
    Metrics,
    /// `PING`
    Ping,
    /// `SHUTDOWN`
    Shutdown,
    /// `QUIT`
    Quit,
}

/// Parse one request line (already stripped of the newline).
pub fn parse_command(line: &str) -> Result<Command, WireError> {
    let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err(WireError::new(ErrCode::UnknownCommand, "empty command"));
    };
    match verb.to_ascii_uppercase().as_str() {
        "SESSION" => match rest {
            [sub] if sub.eq_ignore_ascii_case("OPEN") => Ok(Command::SessionOpen),
            [sub] if sub.eq_ignore_ascii_case("CLOSE") => Ok(Command::SessionClose),
            [sub, id] if sub.eq_ignore_ascii_case("ATTACH") => id
                .parse::<u64>()
                .map(Command::SessionAttach)
                .map_err(|_| WireError::new(ErrCode::BadSession, format!("bad session id {id:?}"))),
            _ => Err(WireError::new(
                ErrCode::UnknownCommand,
                "usage: SESSION OPEN | SESSION ATTACH <id> | SESSION CLOSE",
            )),
        },
        "LOAD" => match rest {
            [sub] if sub.eq_ignore_ascii_case("PROGRAM") => Ok(Command::LoadProgram),
            [sub] if sub.eq_ignore_ascii_case("FACTS") => Ok(Command::LoadFacts),
            _ => Err(WireError::new(
                ErrCode::UnknownCommand,
                "usage: LOAD PROGRAM | LOAD FACTS",
            )),
        },
        "INSERT" | "RETRACT" => {
            let Some((pred, args)) = rest.split_first() else {
                return Err(WireError::new(
                    ErrCode::Query,
                    format!("usage: {} <pred> <c…>", verb.to_ascii_uppercase()),
                ));
            };
            if args.is_empty() {
                return Err(WireError::new(
                    ErrCode::Query,
                    format!("fact {pred:?} has no constants"),
                ));
            }
            let pred = (*pred).to_owned();
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            if verb.eq_ignore_ascii_case("INSERT") {
                Ok(Command::Insert(pred, args))
            } else {
                Ok(Command::Retract(pred, args))
            }
        }
        "QUERY" => QuerySpec::parse(rest).map(Command::Query),
        "BATCH" if rest.is_empty() => Ok(Command::Batch),
        "METRICS" if rest.is_empty() => Ok(Command::Metrics),
        "PING" if rest.is_empty() => Ok(Command::Ping),
        "SHUTDOWN" if rest.is_empty() => Ok(Command::Shutdown),
        "QUIT" if rest.is_empty() => Ok(Command::Quit),
        other => Err(WireError::new(
            ErrCode::UnknownCommand,
            format!("unknown command {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_command_set() {
        assert!(matches!(
            parse_command("SESSION OPEN"),
            Ok(Command::SessionOpen)
        ));
        assert!(matches!(
            parse_command("session attach 42"),
            Ok(Command::SessionAttach(42))
        ));
        assert!(matches!(
            parse_command("SESSION CLOSE"),
            Ok(Command::SessionClose)
        ));
        assert!(matches!(
            parse_command("LOAD PROGRAM"),
            Ok(Command::LoadProgram)
        ));
        assert!(matches!(
            parse_command("LOAD FACTS"),
            Ok(Command::LoadFacts)
        ));
        assert!(matches!(parse_command("BATCH"), Ok(Command::Batch)));
        assert!(matches!(parse_command("METRICS"), Ok(Command::Metrics)));
        assert!(matches!(parse_command("PING"), Ok(Command::Ping)));
        assert!(matches!(parse_command("SHUTDOWN"), Ok(Command::Shutdown)));
        assert!(matches!(parse_command("QUIT"), Ok(Command::Quit)));
    }

    #[test]
    fn parses_query_with_and_without_valuation() {
        let q = match parse_command("QUERY T v0 v4 SEMIRING tropical VALUATION unit:1") {
            Ok(Command::Query(q)) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.pred, "T");
        assert_eq!(q.args, vec!["v0", "v4"]);
        assert_eq!(q.semiring, WireSemiring::Tropical);
        assert_eq!(q.valuation, WireValuation::Unit(1.0));

        let q = match parse_command("QUERY T v0 v4 SEMIRING bool") {
            Ok(Command::Query(q)) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.valuation, WireValuation::Ones);
    }

    #[test]
    fn rejects_malformed_queries_with_codes() {
        let err = |s: &str| parse_command(s).unwrap_err().code;
        assert_eq!(err("QUERY T v0 v4"), ErrCode::Query);
        assert_eq!(err("QUERY SEMIRING bool"), ErrCode::Query);
        assert_eq!(err("QUERY T v0 SEMIRING madeup"), ErrCode::Semiring);
        assert_eq!(
            err("QUERY T v0 SEMIRING bool VALUATION unit:2"),
            ErrCode::Valuation
        );
        assert_eq!(
            err("QUERY T v0 SEMIRING tropical VALUATION unit:NaN"),
            ErrCode::Valuation
        );
        assert_eq!(err("FROBNICATE"), ErrCode::UnknownCommand);
        assert_eq!(err(""), ErrCode::UnknownCommand);
        assert_eq!(err("SESSION ATTACH xyz"), ErrCode::BadSession);
    }

    #[test]
    fn parses_incremental_write_verbs() {
        match parse_command("INSERT E v0 v1") {
            Ok(Command::Insert(pred, args)) => {
                assert_eq!(pred, "E");
                assert_eq!(args, vec!["v0", "v1"]);
            }
            other => panic!("{other:?}"),
        }
        match parse_command("retract E v0 v1") {
            Ok(Command::Retract(pred, args)) => {
                assert_eq!(pred, "E");
                assert_eq!(args, vec!["v0", "v1"]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_command("INSERT").unwrap_err().code, ErrCode::Query);
        assert_eq!(parse_command("RETRACT E").unwrap_err().code, ErrCode::Query);
    }

    #[test]
    fn parses_perfact_valuation_and_weight_lines() {
        let q = match parse_command("QUERY T v0 v4 SEMIRING tropical VALUATION perfact") {
            Ok(Command::Query(q)) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.valuation, WireValuation::PerFact(Vec::new()));
        // Bool still only supports ones.
        assert_eq!(
            parse_command("QUERY T v0 SEMIRING bool VALUATION perfact")
                .unwrap_err()
                .code,
            ErrCode::Valuation
        );

        let w = parse_weight_line("WEIGHT E v0 v1 3").unwrap();
        assert_eq!(w.pred, "E");
        assert_eq!(w.args, vec!["v0", "v1"]);
        assert_eq!(w.weight, 3.0);
        // The keyword is optional (items inside parsed blocks).
        assert_eq!(parse_weight_line("E v0 v1 0.5").unwrap().weight, 0.5);
        assert_eq!(
            parse_weight_line("WEIGHT E v0").unwrap_err().code,
            ErrCode::Valuation
        );
        assert_eq!(
            parse_weight_line("WEIGHT E v0 v1 nope").unwrap_err().code,
            ErrCode::Valuation
        );
        assert_eq!(
            parse_weight_line("WEIGHT E v0 v1 -1").unwrap_err().code,
            ErrCode::Valuation
        );
    }

    #[test]
    fn parses_pipeline_clause_in_either_order() {
        let q = |s: &str| match parse_command(s) {
            Ok(Command::Query(q)) => q,
            other => panic!("{other:?}"),
        };
        // Default is materialized when the clause is absent.
        assert_eq!(
            q("QUERY T v0 v4 SEMIRING bool").pipeline,
            provcirc::Pipeline::Materialized
        );
        // Every pipeline parses back from its wire name.
        for p in [provcirc::Pipeline::Materialized, provcirc::Pipeline::Magic] {
            assert_eq!(provcirc::Pipeline::parse(p.name()), Some(p));
        }
        // VALUATION and PIPELINE commute.
        let a = q("QUERY T v0 v4 SEMIRING tropical VALUATION unit:2 PIPELINE magic");
        let b = q("QUERY T v0 v4 SEMIRING tropical PIPELINE magic VALUATION unit:2");
        assert_eq!(a.pipeline, provcirc::Pipeline::Magic);
        assert_eq!(a.valuation, b.valuation);
        assert_eq!(a.pipeline, b.pipeline);
    }

    #[test]
    fn rejects_bad_pipeline_clauses() {
        let err = |s: &str| parse_command(s).unwrap_err().code;
        for name in ["warp", "fused"] {
            let e =
                parse_command(&format!("QUERY T v0 SEMIRING bool PIPELINE {name}")).unwrap_err();
            assert_eq!(e.code, ErrCode::Query, "{name}");
            assert!(
                e.message.contains("(materialized | magic)"),
                "{name}: {}",
                e.message
            );
        }
        assert_eq!(err("QUERY T v0 SEMIRING bool PIPELINE"), ErrCode::Query);
        assert_eq!(
            err("QUERY T v0 SEMIRING bool PIPELINE magic PIPELINE magic"),
            ErrCode::Query
        );
        assert_eq!(
            err("QUERY T v0 SEMIRING tropical VALUATION unit:1 VALUATION unit:2"),
            ErrCode::Query
        );
    }

    #[test]
    fn err_lines_are_single_frame() {
        let e = WireError::new(ErrCode::Parse, "line 1\nline 2");
        let r = e.render();
        assert!(r.starts_with("ERR PARSE "));
        assert!(!r.contains('\n'));
    }
}
