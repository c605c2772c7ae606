//! `serve_mixed`: the wire path. An in-process server holds one session
//! (TC over a seeded graph); two client connections run a closed loop of
//! cached reads, demand-driven reads, uncached `perfact` reads, `BATCH`
//! frames and write pairs (`INSERT` of a non-edge, then `RETRACT` of it),
//! each client waiting for every reply before sending its next command.

use std::sync::Mutex;
use std::time::Instant;

use server::client::{Client, Reply};
use server::{Server, ServerConfig, ServerHandle};

use crate::inputs::{node, tag, wire_deck, Edge, Instance, Oracle, Read, WireOp, TC_PROGRAM};
use crate::layers::Target;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Measured, Workload};

pub const NODES: usize = 150;
pub const EDGES: usize = 600;
/// Seed of the graph's shape; the run seed relabels it (see `README.md`).
const SHAPE_SEED: u64 = 1;
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
const EVAL_THREADS: usize = 1;
/// Goals re-read at the end of a run, when no write is in flight.
const FINAL_CHECKS: usize = 32;

/// Write-pair edges the server may hold right now, and every edge ever
/// inserted, so a read can tell which writes overlapped it.
#[derive(Default)]
struct InFlight {
    state: Mutex<(Vec<Edge>, Vec<Edge>)>,
}

impl InFlight {
    fn begin(&self) -> (Vec<Edge>, usize) {
        let st = self.state.lock().expect("in-flight lock poisoned");
        (st.0.clone(), st.1.len())
    }

    /// Edges that may have been present at any point since `begin`.
    fn end(&self, (mut active, seen): (Vec<Edge>, usize)) -> Vec<Edge> {
        let st = self.state.lock().expect("in-flight lock poisoned");
        for e in &st.1[seen..] {
            if !active.contains(e) {
                active.push(*e);
            }
        }
        active
    }

    fn start_write(&self, e: Edge) {
        let mut st = self.state.lock().expect("in-flight lock poisoned");
        st.0.push(e);
        st.1.push(e);
    }

    fn end_write(&self, e: Edge) {
        self.state
            .lock()
            .expect("in-flight lock poisoned")
            .0
            .retain(|x| *x != e);
    }
}

/// A reply value to verify after the timed loop.
struct Answer {
    read: Read,
    in_flight: Vec<Edge>,
    got: String,
}

pub struct ServeMixed {
    inst: Instance,
    seed: u64,
    clients: Vec<Client>,
    rngs: Vec<Rng>,
    handle: Option<ServerHandle>,
}

fn io<T>(r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("transport: {e}"))
}

fn expect_ok(reply: Reply, what: &str) -> Result<Reply, String> {
    if reply.is_ok() {
        Ok(reply)
    } else {
        Err(format!("{what}: {}", reply.status))
    }
}

/// Run one operation on `client`, timing it and collecting its answers.
fn execute(
    client: &mut Client,
    op: &WireOp,
    flight: &InFlight,
    (tr, k): (&mut Tracer, u64),
    m: &mut Measured,
    answers: &mut Vec<Answer>,
) {
    match op {
        WireOp::Read(read) => {
            let (line, weights) = read.wire();
            let kind = match read {
                Read::Cached { .. } => "read_cached_ms",
                Read::Magic { .. } => "read_magic_ms",
                Read::PerFact { .. } => "read_perfact_ms",
            };
            let window = flight.begin();
            let t0 = Instant::now();
            let reply = tr.span("wire.query", k, |_| {
                if weights.is_empty() {
                    client.run_line(&line)
                } else {
                    let w: Vec<&str> = weights.iter().map(String::as_str).collect();
                    client.send_block(&line, &w)
                }
            });
            let elapsed = t0.elapsed();
            m.sample("read_ms", elapsed);
            m.sample(kind, elapsed);
            let in_flight = flight.end(window);
            match io(reply).and_then(|r| expect_ok(r, &line)) {
                Ok(r) => match r.status.strip_prefix("OK VALUE ") {
                    Some(v) => answers.push(Answer {
                        read: read.clone(),
                        in_flight,
                        got: v.to_owned(),
                    }),
                    None => m.check(false, || format!("{line}: {}", r.status)),
                },
                Err(e) => m.check(false, || e),
            }
        }
        WireOp::Batch(reads) => {
            let lines: Vec<String> = reads.iter().map(|r| r.wire().0).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            let window = flight.begin();
            let t0 = Instant::now();
            let reply = tr.span("wire.batch", k, |_| client.send_block("BATCH", &refs));
            m.sample("batch_ms", t0.elapsed());
            let in_flight = flight.end(window);
            match io(reply).and_then(|r| expect_ok(r, "BATCH")) {
                Ok(r) if r.body.len() == reads.len() => {
                    for (i, (read, row)) in reads.iter().zip(&r.body).enumerate() {
                        match row.strip_prefix(&format!("{i} OK ")) {
                            Some(v) => answers.push(Answer {
                                read: read.clone(),
                                in_flight: in_flight.clone(),
                                got: v.to_owned(),
                            }),
                            None => m.check(false, || format!("BATCH item {i}: {row}")),
                        }
                    }
                }
                Ok(r) => m.check(false, || format!("BATCH: {} rows", r.body.len())),
                Err(e) => m.check(false, || e),
            }
        }
        WireOp::WritePair((u, v)) => {
            flight.start_write((*u, *v));
            // One `write_ms` sample per pair (insert plus retract), so its
            // median moves with either command; each is also kept apart.
            let pair = Instant::now();
            for (verb, series, want) in [
                ("INSERT", "insert_ms", "OK INSERTED 1 "),
                ("RETRACT", "retract_ms", "OK RETRACTED 1 "),
            ] {
                let line = format!("{verb} E {} {}", node(*u), node(*v));
                let t0 = Instant::now();
                let reply = tr.span("wire.write", k, |_| client.run_line(&line));
                m.sample(series, t0.elapsed());
                match io(reply) {
                    Ok(r) => m.check(r.status.starts_with(want), || {
                        format!("{line}: {}", r.status)
                    }),
                    Err(e) => m.check(false, || e),
                }
            }
            m.sample("write_ms", pair.elapsed());
            flight.end_write((*u, *v));
        }
    }
}

/// Verify collected answers against the oracle.
fn verify(inst: &Instance, answers: Vec<Answer>, m: &mut Measured) {
    let mut oracle = Oracle::new(inst);
    for a in answers {
        let ok = a.read.accepts(&mut oracle, &a.in_flight, &a.got);
        m.check(ok, || {
            format!(
                "{} (in flight {:?}): got {}, want {}",
                a.read.wire().0,
                a.in_flight,
                a.got,
                a.read.expected(&mut oracle, &[])
            )
        });
    }
}

/// A loopback server with `workers` workers and one eval thread, and a
/// client of a new session holding `program` over `inst`. Returns the
/// server, the client and the session id; the server is stopped on error.
pub fn open_session(
    program: &str,
    inst: &Instance,
    workers: usize,
) -> Result<(ServerHandle, Client, String), String> {
    let config = ServerConfig::default()
        .addr("127.0.0.1:0")
        .workers(workers)
        .eval_threads(EVAL_THREADS);
    let handle = io(Server::bind(config))?;
    match load_session(handle.addr(), program, inst) {
        Ok((client, id)) => Ok((handle, client, id)),
        Err(e) => {
            handle.shutdown();
            let _ = handle.wait();
            Err(e)
        }
    }
}

fn load_session(
    addr: std::net::SocketAddr,
    program: &str,
    inst: &Instance,
) -> Result<(Client, String), String> {
    let mut c = io(Client::connect(addr))?;
    let opened = expect_ok(io(c.run_line("SESSION OPEN"))?, "SESSION OPEN")?;
    let id = opened
        .status
        .strip_prefix("OK SESSION ")
        .ok_or_else(|| format!("SESSION OPEN: {}", opened.status))?
        .to_owned();
    let program: Vec<&str> = program.lines().collect();
    expect_ok(io(c.send_block("LOAD PROGRAM", &program))?, "LOAD PROGRAM")?;
    let lines = inst.fact_lines();
    let facts: Vec<&str> = lines.iter().map(String::as_str).collect();
    expect_ok(io(c.send_block("LOAD FACTS", &facts))?, "LOAD FACTS")?;
    Ok((c, id))
}

impl ServeMixed {
    fn open(seed: u64) -> Result<Self, String> {
        let (inst, _) = Instance::gnm(NODES, EDGES, &["E"], SHAPE_SEED).relabelled(seed);
        let (handle, first, id) = open_session(TC_PROGRAM, &inst, WORKERS)?;
        let addr = handle.addr();
        let mut w = ServeMixed {
            inst,
            seed,
            clients: vec![first],
            rngs: (0..CLIENTS)
                .map(|c| Rng::stream(seed, tag::MIX + c as u64))
                .collect(),
            handle: Some(handle),
        };
        for _ in 1..CLIENTS {
            let mut c = io(Client::connect(addr))?;
            expect_ok(
                io(c.run_line(&format!("SESSION ATTACH {id}")))?,
                "SESSION ATTACH",
            )?;
            w.clients.push(c);
        }
        Ok(w)
    }

    /// Re-read fixed goals when no write is in flight: the answers must be
    /// those of the start graph, so the write pairs left the EDB unchanged.
    fn quiescent_check(&mut self, m: &mut Measured) {
        let mut rng = Rng::stream(self.seed, tag::GOALS);
        let mut answers = Vec::new();
        let flight = InFlight::default();
        let mut sink = Measured::default();
        for i in 0..FINAL_CHECKS {
            let read = Read::Cached {
                s: rng.below(self.inst.n),
                t: rng.below(self.inst.n),
                boolean: i % 2 == 1,
            };
            let op = WireOp::Read(read);
            execute(
                &mut self.clients[0],
                &op,
                &flight,
                (&mut Tracer::off(), 0),
                &mut sink,
                &mut answers,
            );
        }
        sink.series.clear();
        m.absorb(sink);
        verify(&self.inst, answers, m);
    }
}

impl Workload for ServeMixed {
    const HEAVY: &'static str = "write_ms";
    const LIGHT: &'static str = "read_ms";
    // Each set-up starts a server, whose threads leave freed heap behind;
    // over 9 set-ups `peak_rss_mib` spread about twice as much between runs
    // as over 5.
    const SETUP_REPS: usize = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = ServeMixed::open(seed)?;
        // Warm-up: one deck (every operation kind) through the first client,
        // which also fills the session's fixpoint caches; checked.
        let mut m = Measured::default();
        let mut answers = Vec::new();
        let flight = InFlight::default();
        let mut rng = Rng::stream(seed, tag::MIX + CLIENTS as u64);
        for op in wire_deck(&w.inst, 0, &mut rng) {
            let client = &mut w.clients[0];
            execute(
                client,
                &op,
                &flight,
                (&mut Tracer::off(), 0),
                &mut m,
                &mut answers,
            );
        }
        verify(&w.inst, answers, &mut m);
        match m.errors.first() {
            Some(e) => Err(format!("warm-up failed: {e}")),
            None => Ok(w),
        }
    }

    fn describe(&self) -> String {
        format!(
            "TC over gnm({NODES},{EDGES}) behind a server with {WORKERS} workers and \
             {EVAL_THREADS} eval thread; {CLIENTS} closed-loop clients"
        )
    }

    fn run(&mut self, deadline: Instant, tr: &mut Tracer, m: &mut Measured) {
        let flight = InFlight::default();
        let inst = &self.inst;
        let results: Vec<(Tracer, Measured, Vec<Answer>)> = std::thread::scope(|sc| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.rngs.iter_mut())
                .enumerate()
                .map(|(c, (client, rng))| {
                    let (flight, mut tr) = (&flight, tr.fork());
                    sc.spawn(move || {
                        let (mut local, mut answers) = (Measured::default(), Vec::new());
                        let mut k = (c as u64) << 32;
                        // Whole decks only, so every run has the exact mix.
                        while Instant::now() < deadline {
                            for op in wire_deck(inst, c, rng) {
                                let ops = if matches!(op, WireOp::WritePair(_)) {
                                    2
                                } else {
                                    1
                                };
                                tr.span("op.wire", k, |tr| {
                                    execute(client, &op, flight, (tr, k), &mut local, &mut answers)
                                });
                                local.ops += ops;
                                k += 1;
                            }
                        }
                        (tr, local, answers)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (child, local, answers) in results {
            tr.absorb(child);
            m.absorb(local);
            verify(inst, answers, m);
        }
        self.quiescent_check(m);
    }

    fn target(&self) -> Target<'_> {
        Target {
            program: TC_PROGRAM,
            inst: &self.inst,
            pred: "T",
            goal: crate::inputs::tc_goals(&mut Oracle::new(&self.inst), 1, self.seed)[0],
            seed: self.seed,
        }
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        // Close the connections first so the workers see EOF, then drain.
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            let _ = handle.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use server::protocol::QuerySpec;
    use server::session::Registry;

    #[test]
    fn write_pairs_leave_the_edb_unchanged() {
        let (inst, _) = Instance::gnm(30, 90, &["E"], 1).relabelled(3);
        let session = Registry::new(1).open();
        session.load_program(TC_PROGRAM).unwrap();
        let facts = inst.facts().into_iter();
        session
            .load_facts(facts.map(|(p, a)| (p.to_owned(), a.to_vec())).collect())
            .unwrap();
        let read = |s: usize, t: usize| {
            let (s, t) = (node(s), node(t));
            let tokens = ["T", &s, &t, "SEMIRING", "tropical", "VALUATION", "unit:1"];
            session.query(&QuerySpec::parse(&tokens).unwrap()).unwrap()
        };
        let mut rng = Rng::stream(3, tag::MIX);
        let pairs: Vec<Edge> = (0..CLIENTS)
            .flat_map(|c| wire_deck(&inst, c, &mut rng))
            .filter_map(|op| match op {
                WireOp::WritePair(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(pairs.len(), 4);
        read(0, 1); // fill the fixpoint cache, so the writes repair it
        for (u, v) in pairs {
            let args = [node(u), node(v)];
            assert_eq!(session.insert("E", &args).unwrap().0, 1);
            assert_eq!(read(u, v), "1");
            assert_eq!(session.retract("E", &args).unwrap().0, 1);
        }
        let mut oracle = Oracle::new(&inst);
        for s in 0..inst.n {
            for t in 0..inst.n {
                let want = Read::Cached {
                    s,
                    t,
                    boolean: false,
                }
                .expected(&mut oracle, &[]);
                assert_eq!(read(s, t), want, "T({s},{t})");
            }
        }
    }
}
