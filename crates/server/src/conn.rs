//! Per-connection protocol loop: bounded line reading, command dispatch,
//! and the never-panic error path.
//!
//! Each worker thread runs [`serve_connection`] for one accepted socket at
//! a time. The loop is defensive by construction:
//!
//! - lines are read through a **bounded** reader — a line longer than
//!   [`MAX_LINE`] is drained to its newline, answered with `ERR TOOLONG`,
//!   and the connection continues;
//! - every command handler returns `Result<_, WireError>`; failures render
//!   as a single `ERR <code> <msg>` frame and never tear the connection;
//! - the worker wraps the whole loop in `catch_unwind` (see `lib.rs`), so
//!   even a bug that panics mid-command kills one connection, not the
//!   server.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::protocol::{
    parse_command, parse_weight_line, Command, ErrCode, QuerySpec, WireError, WireValuation,
    MAX_LINE,
};
use crate::session::{Registry, Session};

/// What one poll of the line reader produced.
enum Poll {
    /// A complete line (newline and trailing `\r` stripped).
    Line(String),
    /// The peer closed the connection cleanly.
    Eof,
    /// The line (or its parse) was bad; the stream is re-framed at the
    /// next newline and the connection continues.
    Bad(WireError),
    /// The read timed out with no (or partial) data — the caller decides
    /// whether to keep waiting (checking the shutdown flag) or hang up.
    /// Partial bytes stay buffered in the reader.
    Pending,
}

/// A bounded, resumable line reader.
///
/// Reads byte-at-a-time through a `BufReader` (so the syscall count stays
/// sane) into an internal buffer that **survives read timeouts**: the
/// socket carries a short poll timeout so the worker can notice the
/// server-wide shutdown flag between bytes, and a half-received line is
/// simply resumed by the next [`poll`](LineReader::poll) call. Lines
/// longer than [`MAX_LINE`] are drained to their newline and reported as
/// [`Poll::Bad`] without unbounded buffering.
struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    overflow: bool,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            overflow: false,
        }
    }

    fn poll(&mut self) -> std::io::Result<Poll> {
        let mut byte = [0u8; 1];
        loop {
            match self.inner.read(&mut byte) {
                Ok(0) => {
                    if self.buf.is_empty() && !self.overflow {
                        return Ok(Poll::Eof);
                    }
                    // EOF mid-line: treat what we have as the final line.
                    return Ok(self.take_line());
                }
                Ok(_) => {
                    if byte[0] == b'\n' {
                        return Ok(self.take_line());
                    }
                    if self.buf.len() >= MAX_LINE {
                        self.overflow = true;
                        // Keep draining to the newline; drop the excess.
                        continue;
                    }
                    self.buf.push(byte[0]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Poll::Pending);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn take_line(&mut self) -> Poll {
        let overflow = std::mem::take(&mut self.overflow);
        let mut buf = std::mem::take(&mut self.buf);
        if overflow {
            return Poll::Bad(WireError::new(
                ErrCode::TooLong,
                format!("line exceeds {MAX_LINE} bytes"),
            ));
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        match String::from_utf8(buf) {
            Ok(s) => Poll::Line(s),
            Err(_) => Poll::Bad(WireError::new(ErrCode::UnknownCommand, "non-UTF-8 line")),
        }
    }
}

/// How often a worker wakes from a blocked read to check the shutdown
/// flag and the idle deadline. This is the socket-level timeout; the
/// user-visible idle timeout is `ServerConfig::read_timeout`.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Outcome of waiting for one line with shutdown/idle supervision.
enum NextLine {
    Line(String),
    Eof,
    Bad(WireError),
    /// The server-wide shutdown flag was set while we were idle.
    ShuttingDown,
    /// The connection sat idle past the configured read timeout.
    IdleTimeout,
}

/// Wait for the next line, waking every [`POLL_INTERVAL`] to notice a
/// server shutdown or an expired idle deadline. The deadline is per line:
/// a client must complete each line within `read_timeout` of starting to
/// wait for it.
fn next_line<R: Read>(
    reader: &mut LineReader<R>,
    shutdown: &AtomicBool,
    read_timeout: Option<Duration>,
) -> std::io::Result<NextLine> {
    let started = Instant::now();
    loop {
        match reader.poll()? {
            Poll::Line(line) => return Ok(NextLine::Line(line)),
            Poll::Eof => return Ok(NextLine::Eof),
            Poll::Bad(wire) => return Ok(NextLine::Bad(wire)),
            Poll::Pending => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(NextLine::ShuttingDown);
                }
                if let Some(limit) = read_timeout {
                    if started.elapsed() >= limit {
                        return Ok(NextLine::IdleTimeout);
                    }
                }
            }
        }
    }
}

/// A payload block read to its `END`: its lines, or the error that
/// corrupted it (an oversized or non-UTF-8 line, EOF before `END`) — the
/// connection survives either. `None` when shutdown or an idle timeout
/// interrupted the block: hang up.
type Block = Option<Result<Vec<String>, WireError>>;

/// Read payload lines until a bare `END`. Oversized or non-UTF-8 payload
/// lines abort the block with their error (the block's data would be
/// corrupt); EOF before `END` is a `PAYLOAD` error.
fn read_block<R: Read>(
    reader: &mut LineReader<R>,
    shutdown: &AtomicBool,
    read_timeout: Option<Duration>,
) -> std::io::Result<Block> {
    let mut lines = Vec::new();
    loop {
        match next_line(reader, shutdown, read_timeout)? {
            NextLine::Line(line) => {
                if line.trim().eq_ignore_ascii_case("END") {
                    return Ok(Some(Ok(lines)));
                }
                lines.push(line);
            }
            NextLine::Eof => {
                return Ok(Some(Err(WireError::new(
                    ErrCode::Payload,
                    "connection closed before END",
                ))))
            }
            NextLine::Bad(wire) => return Ok(Some(Err(wire))),
            NextLine::ShuttingDown | NextLine::IdleTimeout => return Ok(None),
        }
    }
}

/// The non-blank lines of a payload block.
fn payload(lines: &[String]) -> impl Iterator<Item = &String> {
    lines.iter().filter(|l| !l.trim().is_empty())
}

/// Parse a `LOAD FACTS` payload line: `Pred c1 c2 …`.
fn parse_fact_line(line: &str) -> Result<(String, Vec<String>), WireError> {
    let mut toks = line.split_ascii_whitespace();
    let pred = toks
        .next()
        .ok_or_else(|| WireError::new(ErrCode::Parse, "empty fact line"))?;
    let args: Vec<String> = toks.map(str::to_owned).collect();
    if args.is_empty() {
        return Err(WireError::new(
            ErrCode::Parse,
            format!("fact {pred:?} has no constants"),
        ));
    }
    Ok((pred.to_owned(), args))
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Drive one accepted connection until EOF, `QUIT`, `SHUTDOWN`, a read
/// timeout, or an I/O error. Returns `Ok(true)` when the client asked the
/// whole server to shut down.
pub(crate) fn serve_connection(
    stream: TcpStream,
    registry: &Registry,
    shutdown: &Arc<AtomicBool>,
    read_timeout: Option<std::time::Duration>,
) -> std::io::Result<bool> {
    // The socket timeout is the supervision poll, NOT the user-facing idle
    // timeout: `next_line` wakes every POLL_INTERVAL to check the shutdown
    // flag, and enforces `read_timeout` as an idle deadline itself.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(BufReader::new(stream));
    let mut session: Option<Arc<Session>> = None;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Graceful drain: finish nothing new once shutdown is flagged.
            return Ok(false);
        }
        let line = match next_line(&mut reader, shutdown, read_timeout)? {
            NextLine::Line(line) => line,
            NextLine::Eof | NextLine::ShuttingDown | NextLine::IdleTimeout => return Ok(false),
            NextLine::Bad(wire) => {
                write_line(&mut writer, &wire.render())?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let command = match parse_command(&line) {
            Ok(c) => c,
            Err(wire) => {
                write_line(&mut writer, &wire.render())?;
                continue;
            }
        };
        // Commands with a payload block read it first; `None` hangs up.
        let block = match &command {
            Command::LoadProgram | Command::LoadFacts | Command::Batch => {
                read_block(&mut reader, shutdown, read_timeout)?
            }
            // `VALUATION perfact` carries its weights as a payload block
            // of `WEIGHT <pred> <c…> <w>` lines ending in `END`.
            Command::Query(spec) if matches!(spec.valuation, WireValuation::PerFact(_)) => {
                read_block(&mut reader, shutdown, read_timeout)?
            }
            _ => Some(Ok(Vec::new())),
        };
        let Some(block) = block else {
            return Ok(false);
        };
        // The reply frame: the `OK` text (count-prefixed lines for
        // multi-line replies), or the failure's single `ERR` line.
        let reply: Result<String, WireError> = match command {
            Command::Ping => Ok("OK PONG".to_owned()),
            Command::Quit => {
                write_line(&mut writer, "OK BYE")?;
                return Ok(false);
            }
            Command::Shutdown => {
                // Flag BEFORE the reply: a client that reads `OK SHUTDOWN`
                // must be able to observe the server as shutting down.
                shutdown.store(true, Ordering::SeqCst);
                write_line(&mut writer, "OK SHUTDOWN")?;
                return Ok(true);
            }
            Command::SessionOpen => {
                let s = registry.open();
                let id = s.id();
                session = Some(s);
                Ok(format!("OK SESSION {id}"))
            }
            Command::SessionAttach(id) => registry.attach(id).map(|s| {
                session = Some(s);
                format!("OK SESSION {id}")
            }),
            Command::SessionClose => match session.take() {
                Some(s) => registry
                    .close(s.id())
                    .map(|()| format!("OK CLOSED {}", s.id())),
                None => Err(WireError::new(ErrCode::NoSession, "no session attached")),
            },
            Command::LoadProgram => block
                .and_then(|lines| require(&session)?.load_program(&lines.join("\n")))
                .map(|rules| format!("OK PROGRAM {rules}")),
            Command::LoadFacts => block
                .and_then(|lines| {
                    let s = require(&session)?;
                    let facts = payload(&lines)
                        .map(|l| parse_fact_line(l))
                        .collect::<Result<Vec<_>, WireError>>()?;
                    s.load_facts(facts)
                })
                .map(|n| format!("OK FACTS {n}")),
            Command::Insert(pred, args) => require(&session)
                .and_then(|s| s.insert(&pred, &args))
                .map(|(n, e)| format!("OK INSERTED {n} EPOCH {e}")),
            Command::Retract(pred, args) => require(&session)
                .and_then(|s| s.retract(&pred, &args))
                .map(|(n, e)| format!("OK RETRACTED {n} EPOCH {e}")),
            Command::Query(mut spec) => block
                .and_then(|lines| {
                    if let WireValuation::PerFact(weights) = &mut spec.valuation {
                        *weights = payload(&lines)
                            .map(|l| parse_weight_line(l))
                            .collect::<Result<Vec<_>, WireError>>()?;
                    }
                    require(&session)?.query(&spec)
                })
                .map(|v| format!("OK VALUE {v}")),
            Command::Batch => block.and_then(|lines| batch(&*require(&session)?, &lines)),
            Command::Metrics => require(&session).map(|s| {
                s.touch();
                // Admission rejects happen before any session exists,
                // so the counter lives on the registry — fold it into
                // the session's report at read time.
                let mut report = s.metrics().report();
                if let Some(slot) = report
                    .counters
                    .iter_mut()
                    .find(|(c, _)| *c == telemetry::Counter::OverloadRejections)
                {
                    slot.1 += registry.overload_rejections();
                }
                let json = report.to_json();
                let lines: Vec<&str> = json.lines().collect();
                format!("OK METRICS {}\n{}", lines.len(), lines.join("\n"))
            }),
        };
        match reply {
            Ok(frame) => write_line(&mut writer, &frame)?,
            Err(wire) => write_line(&mut writer, &wire.render())?,
        }
    }
}

/// Answer a `BATCH` block as one count-prefixed frame of `<i> OK <v>` /
/// `<i> ERR <code> <msg>` rows. Item-level parse failures become
/// item-level `ERR` rows, not a batch failure — the other items still
/// evaluate (mid-batch error acceptance case).
fn batch(session: &Session, lines: &[String]) -> Result<String, WireError> {
    let mut items: Vec<Result<QuerySpec, WireError>> = Vec::new();
    for item in payload(lines) {
        let toks: Vec<&str> = item.split_ascii_whitespace().collect();
        let keyword = |k: &str| toks.first().is_some_and(|t| t.eq_ignore_ascii_case(k));
        // `WEIGHT` lines are not items: they attach to the preceding
        // `VALUATION perfact` query.
        if keyword("WEIGHT") {
            let attach = parse_weight_line(item).and_then(|w| match items.last_mut() {
                Some(Ok(q)) => {
                    if let WireValuation::PerFact(ws) = &mut q.valuation {
                        ws.push(w);
                        return Ok(());
                    }
                    Err(WireError::new(
                        ErrCode::Valuation,
                        "WEIGHT after a non-perfact query",
                    ))
                }
                _ => Err(WireError::new(
                    ErrCode::Valuation,
                    "WEIGHT line without a preceding perfact query",
                )),
            });
            if let Err(wire) = attach {
                // Poison the item the weight belonged to (or report a
                // stray line as its own row).
                match items.last_mut() {
                    Some(item @ Ok(_)) => *item = Err(wire),
                    _ => items.push(Err(wire)),
                }
            }
            continue;
        }
        let toks = if keyword("QUERY") {
            &toks[1..]
        } else {
            &toks[..]
        };
        items.push(QuerySpec::parse(toks));
    }
    let good: Vec<QuerySpec> = items
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    let mut results = session.batch(&good)?.into_iter();
    let mut frame = format!("OK BATCH {}", items.len());
    for (i, item) in items.into_iter().enumerate() {
        let row = item.and_then(|_| results.next().expect("one result per parsed batch item"));
        let row = match row {
            Ok(v) => format!("{i} OK {v}"),
            Err(wire) => format!("{i} {}", wire.render()),
        };
        frame.push('\n');
        frame.push_str(&row);
    }
    Ok(frame)
}

/// The attached session, or a `NO-SESSION` error.
fn require(session: &Option<Arc<Session>>) -> Result<Arc<Session>, WireError> {
    session
        .as_ref()
        .cloned()
        .ok_or_else(|| WireError::new(ErrCode::NoSession, "open or attach a session first"))
}
