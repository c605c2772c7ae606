//! Integration tests for the serving subsystem: a real server on an
//! ephemeral port, driven over real sockets by the protocol client.
//!
//! The acceptance bar (ISSUE 7): 8 concurrent readers over one snapshot
//! return bit-identical results to sequential `Engine` evaluation, a
//! `BATCH` of (Bool, Tropical, Counting) queries grounds exactly once
//! (asserted via the METRICS cache counters), and every protocol-error
//! case leaves the server accepting new connections.

use datalog_circuits::provcirc::Engine;
use datalog_circuits::semiring::{AllOnes, Bool, Counting, Tropical, UnitWeights};
use datalog_circuits::server::client::Client;
use datalog_circuits::server::{Server, ServerConfig, ServerHandle};

const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";

/// A diamond-plus-tail edge set: two distinct v0→v2 paths, then a tail.
/// Counting(T(v0,v3)) = 2, Tropical = 3 — values a wrong merge would
/// visibly corrupt.
const EDGES: &[(&str, &str)] = &[
    ("v0", "v1"),
    ("v1", "v2"),
    ("v0", "a"),
    ("a", "v2"),
    ("v2", "v3"),
];

fn boot(workers: usize) -> ServerHandle {
    Server::bind(ServerConfig::default().workers(workers)).expect("bind ephemeral server")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect to test server")
}

fn fact_lines() -> Vec<String> {
    EDGES.iter().map(|(u, v)| format!("E {u} {v}")).collect()
}

/// Open a session and load the diamond workload; returns the session id.
fn load_workload(c: &mut Client) -> u64 {
    let open = c.roundtrip("SESSION OPEN").unwrap();
    let id: u64 = open.strip_prefix("OK SESSION ").unwrap().parse().unwrap();
    let program: Vec<&str> = TC.lines().collect();
    let reply = c.send_block("LOAD PROGRAM", &program).unwrap();
    assert_eq!(reply.status, "OK PROGRAM 2");
    let facts = fact_lines();
    let fact_refs: Vec<&str> = facts.iter().map(String::as_str).collect();
    let reply = c.send_block("LOAD FACTS", &fact_refs).unwrap();
    assert_eq!(reply.status, "OK FACTS 5");
    id
}

/// The same workload evaluated sequentially, straight through the
/// `Engine` — the oracle the wire answers must match bit-for-bit.
fn sequential_oracle() -> (bool, u64, u64) {
    let mut builder = Engine::builder().program_text(TC);
    for (u, v) in EDGES {
        builder = builder.fact("E", &[u, v]);
    }
    let engine = builder.parallelism(1).build().unwrap();
    let q = engine.query("T", &["v0", "v3"]).unwrap();
    let b: Bool = q.eval(&AllOnes).unwrap();
    let t: Tropical = q.eval(&UnitWeights::new(Tropical::new(1))).unwrap();
    let c: Counting = q.eval(&AllOnes).unwrap();
    (b.0, t.finite().unwrap(), c.0)
}

#[test]
fn happy_path_full_command_set() {
    let handle = boot(2);
    let mut c = connect(&handle);
    assert_eq!(c.roundtrip("PING").unwrap(), "OK PONG");
    load_workload(&mut c);

    let (ob, ot, oc) = sequential_oracle();
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        format!("OK VALUE {ob}")
    );
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING tropical VALUATION unit:1")
            .unwrap(),
        format!("OK VALUE {ot}")
    );
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING counting").unwrap(),
        format!("OK VALUE {oc}")
    );
    // The wider semiring menu answers too.
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING fuzzy VALUATION unit:0.5")
            .unwrap(),
        "OK VALUE 0.5"
    );
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bottleneck VALUATION unit:7")
            .unwrap(),
        "OK VALUE 7"
    );
    // Underivable ⇒ semiring zero, not an error.
    assert_eq!(
        c.roundtrip("QUERY T v3 v0 SEMIRING bool").unwrap(),
        "OK VALUE false"
    );
    assert_eq!(
        c.roundtrip("QUERY T v3 v0 SEMIRING tropical").unwrap(),
        "OK VALUE inf"
    );

    let metrics = c.run_line("METRICS").unwrap();
    assert!(metrics.status.starts_with("OK METRICS "));
    let json = metrics.body.join("\n");
    assert!(json.contains("\"schema\": \"pipeline_metrics_v1\""));

    let close = c.roundtrip("SESSION CLOSE").unwrap();
    assert!(close.starts_with("OK CLOSED "));
    assert_eq!(c.roundtrip("QUIT").unwrap(), "OK BYE");

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn batch_of_three_semirings_grounds_exactly_once() {
    let handle = boot(2);
    let mut c = connect(&handle);
    load_workload(&mut c);

    let (ob, ot, oc) = sequential_oracle();
    let reply = c
        .send_block(
            "BATCH",
            &[
                "QUERY T v0 v3 SEMIRING bool",
                "QUERY T v0 v3 SEMIRING tropical VALUATION unit:1",
                "QUERY T v0 v3 SEMIRING counting",
            ],
        )
        .unwrap();
    assert_eq!(reply.status, "OK BATCH 3");
    assert_eq!(reply.body[0], format!("0 OK {ob}"));
    assert_eq!(reply.body[1], format!("1 OK {ot}"));
    assert_eq!(reply.body[2], format!("2 OK {oc}"));

    // The acceptance assertion: one LOAD FACTS + a three-semiring batch
    // grounds exactly once. The METRICS cache counters are cumulative
    // across the session's engine rebuilds, so this pins the whole
    // lifecycle, not just the batch.
    let metrics = c.run_line("METRICS").unwrap();
    let json = metrics.body.join("\n");
    assert!(
        json.contains("\"groundings\": 1"),
        "expected exactly one grounding, got: {json}"
    );
    assert!(json.contains("\"batches_served\": 1"), "{json}");
    assert!(json.contains("\"batch_queries\": 3"), "{json}");

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn protocol_errors_never_kill_the_server() {
    let handle = boot(2);
    let mut c = connect(&handle);

    // Errors before any session exists.
    let cases: &[(&str, &str)] = &[
        ("FROBNICATE", "ERR UNKNOWN-COMMAND"),
        ("QUERY T v0 SEMIRING bool", "ERR NO-SESSION"),
        ("SESSION ATTACH 99999", "ERR BAD-SESSION"),
        ("SESSION CLOSE", "ERR NO-SESSION"),
        ("METRICS", "ERR NO-SESSION"),
    ];
    for (cmd, prefix) in cases {
        let status = c.roundtrip(cmd).unwrap();
        assert!(status.starts_with(prefix), "{cmd} → {status}");
        // The connection survives every error.
        assert_eq!(c.roundtrip("PING").unwrap(), "OK PONG", "after {cmd}");
    }

    // Errors with a session attached.
    c.roundtrip("SESSION OPEN").unwrap();
    let fact_refs = fact_lines();
    let fact_refs: Vec<&str> = fact_refs.iter().map(String::as_str).collect();
    let status = c.send_block("LOAD FACTS", &fact_refs).unwrap().status;
    assert!(status.starts_with("ERR NO-PROGRAM"), "{status}");
    let status = c
        .send_block("LOAD PROGRAM", &["T(X,Y) :- "])
        .unwrap()
        .status;
    assert!(status.starts_with("ERR PARSE"), "{status}");
    let program: Vec<&str> = TC.lines().collect();
    c.send_block("LOAD PROGRAM", &program).unwrap();
    c.send_block("LOAD FACTS", &fact_refs).unwrap();
    let status = c.roundtrip("QUERY T v0 v3 SEMIRING madeup").unwrap();
    assert!(status.starts_with("ERR SEMIRING"), "{status}");
    let status = c
        .roundtrip("QUERY T v0 v3 SEMIRING bool VALUATION unit:2")
        .unwrap();
    assert!(status.starts_with("ERR VALUATION"), "{status}");
    let status = c.roundtrip("QUERY Nope v0 SEMIRING bool").unwrap();
    assert!(status.starts_with("ERR QUERY"), "{status}");

    // Oversized line: drained, reported, connection still usable.
    let oversized = "A".repeat(70_000);
    let status = c.roundtrip(&oversized).unwrap();
    assert!(status.starts_with("ERR TOOLONG"), "{status}");
    assert_eq!(c.roundtrip("PING").unwrap(), "OK PONG");
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE true"
    );

    // And after all of that, a *fresh* connection still gets served.
    let mut fresh = connect(&handle);
    assert_eq!(fresh.roundtrip("PING").unwrap(), "OK PONG");
    load_workload(&mut fresh);
    assert_eq!(
        fresh.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE true"
    );

    handle.shutdown();
    handle.wait().unwrap();
}

/// The `PIPELINE` clause routes point queries through the materialized
/// grounding or the magic-set rewrite, and both must answer
/// byte-identically to the default path over the wire.
#[test]
fn pipeline_clause_answers_match_materialized_over_the_wire() {
    let handle = boot(2);
    let mut c = connect(&handle);
    load_workload(&mut c);

    let (ob, ot, oc) = sequential_oracle();
    for pipe in ["materialized", "magic"] {
        assert_eq!(
            c.roundtrip(&format!("QUERY T v0 v3 SEMIRING bool PIPELINE {pipe}"))
                .unwrap(),
            format!("OK VALUE {ob}"),
            "pipeline {pipe}"
        );
        assert_eq!(
            c.roundtrip(&format!(
                "QUERY T v0 v3 SEMIRING tropical VALUATION unit:1 PIPELINE {pipe}"
            ))
            .unwrap(),
            format!("OK VALUE {ot}"),
            "pipeline {pipe}"
        );
        assert_eq!(
            c.roundtrip(&format!("QUERY T v0 v3 SEMIRING counting PIPELINE {pipe}"))
                .unwrap(),
            format!("OK VALUE {oc}"),
            "pipeline {pipe}"
        );
        // Underivable goals render the semiring zero on every route.
        assert_eq!(
            c.roundtrip(&format!("QUERY T v3 v0 SEMIRING bool PIPELINE {pipe}"))
                .unwrap(),
            "OK VALUE false",
            "pipeline {pipe}"
        );
    }

    // A mixed batch groups by (semiring, valuation, pipeline) and the
    // answers still line up item-for-item.
    let reply = c
        .send_block(
            "BATCH",
            &[
                "QUERY T v0 v3 SEMIRING counting",
                "QUERY T v0 v3 SEMIRING counting PIPELINE materialized",
                "QUERY T v0 v3 SEMIRING counting PIPELINE magic",
            ],
        )
        .unwrap();
    assert_eq!(reply.status, "OK BATCH 3");
    assert_eq!(reply.body[0], format!("0 OK {oc}"));
    assert_eq!(reply.body[1], format!("1 OK {oc}"));
    assert_eq!(reply.body[2], format!("2 OK {oc}"));

    // An unknown pipeline, `fused` included, is one ERR frame naming
    // the valid ones, and the session keeps serving after it.
    for pipe in ["warp", "fused"] {
        let status = c
            .roundtrip(&format!("QUERY T v0 v3 SEMIRING bool PIPELINE {pipe}"))
            .unwrap();
        assert!(status.starts_with("ERR QUERY"), "{status}");
        assert!(status.contains("(materialized | magic)"), "{status}");
        assert_eq!(c.roundtrip("PING").unwrap(), "OK PONG", "after {pipe}");
    }
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        format!("OK VALUE {ob}")
    );

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn mid_batch_error_evaluates_the_rest() {
    let handle = boot(2);
    let mut c = connect(&handle);
    load_workload(&mut c);

    let reply = c
        .send_block(
            "BATCH",
            &[
                "QUERY T v0 v3 SEMIRING tropical VALUATION unit:1",
                "QUERY T v0 v3",                   // malformed: no SEMIRING
                "QUERY Nope v0 SEMIRING bool",     // unknown predicate
                "QUERY T v0 v3 SEMIRING counting", // still evaluates
            ],
        )
        .unwrap();
    assert_eq!(reply.status, "OK BATCH 4");
    assert_eq!(reply.body[0], "0 OK 3");
    assert!(reply.body[1].starts_with("1 ERR QUERY"), "{:?}", reply.body);
    assert!(reply.body[2].starts_with("2 ERR QUERY"), "{:?}", reply.body);
    assert_eq!(reply.body[3], "3 OK 2");

    // The connection and the session both survive a mid-batch error.
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE true"
    );

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn concurrent_sessions_are_isolated() {
    let handle = boot(4);

    // Session 1: the diamond workload.
    let mut c1 = connect(&handle);
    load_workload(&mut c1);

    // Session 2: a different program (single-hop only) over the same
    // fact shapes — its answers must not leak from session 1.
    let mut c2 = connect(&handle);
    c2.roundtrip("SESSION OPEN").unwrap();
    c2.send_block("LOAD PROGRAM", &["T(X,Y) :- E(X,Y)."])
        .unwrap();
    let facts = fact_lines();
    let fact_refs: Vec<&str> = facts.iter().map(String::as_str).collect();
    c2.send_block("LOAD FACTS", &fact_refs).unwrap();

    assert_eq!(handle.registry().len(), 2);
    // Transitive fact: derivable in session 1, not in session 2.
    assert_eq!(
        c1.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE true"
    );
    assert_eq!(
        c2.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE false"
    );
    assert!(c1
        .roundtrip("SESSION CLOSE")
        .unwrap()
        .starts_with("OK CLOSED"));
    assert!(c2
        .roundtrip("SESSION CLOSE")
        .unwrap()
        .starts_with("OK CLOSED"));
    assert!(handle.registry().is_empty());

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn eight_concurrent_readers_bit_identical_to_sequential_engine() {
    let handle = boot(8);
    let mut admin = connect(&handle);
    let session_id = load_workload(&mut admin);
    let (ob, ot, oc) = sequential_oracle();

    let addr = handle.addr();
    let answers: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("reader connect");
                    let attach = c
                        .roundtrip(&format!("SESSION ATTACH {session_id}"))
                        .unwrap();
                    assert_eq!(attach, format!("OK SESSION {session_id}"));
                    // Single queries and a batch, all against the one
                    // shared snapshot.
                    let mut out = vec![
                        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
                        c.roundtrip("QUERY T v0 v3 SEMIRING tropical VALUATION unit:1")
                            .unwrap(),
                        c.roundtrip("QUERY T v0 v3 SEMIRING counting").unwrap(),
                    ];
                    let batch = c
                        .send_block(
                            "BATCH",
                            &[
                                "QUERY T v0 v3 SEMIRING bool",
                                "QUERY T v0 v3 SEMIRING tropical VALUATION unit:1",
                                "QUERY T v0 v3 SEMIRING counting",
                            ],
                        )
                        .unwrap();
                    out.extend(batch.body);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let expected = vec![
        format!("OK VALUE {ob}"),
        format!("OK VALUE {ot}"),
        format!("OK VALUE {oc}"),
        format!("0 OK {ob}"),
        format!("1 OK {ot}"),
        format!("2 OK {oc}"),
    ];
    for (i, reader) in answers.iter().enumerate() {
        assert_eq!(reader, &expected, "reader {i} diverged from the oracle");
    }

    // 8 readers × (3 singles + 1 batch) reused the session's one frozen
    // grounding: still exactly 1.
    let metrics = admin.run_line("METRICS").unwrap();
    let json = metrics.body.join("\n");
    assert!(
        json.contains("\"groundings\": 1"),
        "concurrent readers must not reground: {json}"
    );
    assert!(json.contains("\"queries_served\": 24"), "{json}");
    assert!(json.contains("\"batches_served\": 8"), "{json}");

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn writes_swap_snapshots_while_readers_keep_answering() {
    let handle = boot(4);
    let mut c = connect(&handle);
    c.roundtrip("SESSION OPEN").unwrap();
    let program: Vec<&str> = TC.lines().collect();
    c.send_block("LOAD PROGRAM", &program).unwrap();
    c.send_block("LOAD FACTS", &["E v0 v1", "E v1 v2"]).unwrap();
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE false"
    );
    // A write extends the chain; the next snapshot sees it.
    c.send_block("LOAD FACTS", &["E v2 v3"]).unwrap();
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE true"
    );
    // Two writes ⇒ two groundings, queries added none.
    let metrics = c.run_line("METRICS").unwrap();
    let json = metrics.body.join("\n");
    assert!(json.contains("\"groundings\": 2"), "{json}");

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn insert_and_retract_round_trip_over_the_wire() {
    let handle = boot(2);
    let mut c = connect(&handle);
    c.roundtrip("SESSION OPEN").unwrap();
    let program: Vec<&str> = TC.lines().collect();
    c.send_block("LOAD PROGRAM", &program).unwrap();
    c.send_block("LOAD FACTS", &["E v0 v1", "E v1 v2"]).unwrap();
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE false"
    );

    // INSERT extends the chain in place; the epoch advances.
    assert_eq!(
        c.roundtrip("INSERT E v2 v3").unwrap(),
        "OK INSERTED 1 EPOCH 1"
    );
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE true"
    );
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING tropical VALUATION unit:1")
            .unwrap(),
        "OK VALUE 3"
    );
    // A duplicate insert is a no-op: nothing changed, epoch held.
    assert_eq!(
        c.roundtrip("INSERT E v2 v3").unwrap(),
        "OK INSERTED 0 EPOCH 1"
    );

    // RETRACT reverts it; retracting again is an error the connection
    // survives.
    assert_eq!(
        c.roundtrip("RETRACT E v2 v3").unwrap(),
        "OK RETRACTED 1 EPOCH 2"
    );
    assert_eq!(
        c.roundtrip("QUERY T v0 v3 SEMIRING bool").unwrap(),
        "OK VALUE false"
    );
    let status = c.roundtrip("RETRACT E v2 v3").unwrap();
    assert!(status.starts_with("ERR QUERY"), "{status}");
    assert_eq!(c.roundtrip("PING").unwrap(), "OK PONG");

    // The whole insert→retract cycle was maintained on the one cached
    // grounding from LOAD FACTS. Four incremental applications: the
    // insert and retract each maintained the engine's grounding, and the
    // retract also repaired the bool and tropical fixpoints cached by
    // the two post-insert queries.
    let metrics = c.run_line("METRICS").unwrap();
    let json = metrics.body.join("\n");
    assert!(json.contains("\"groundings\": 1"), "{json}");
    assert!(json.contains("\"incremental_applied\": 4"), "{json}");
    assert!(json.contains("\"incremental_fallbacks\": 0"), "{json}");

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn perfact_valuation_round_trips_in_query_and_batch() {
    let handle = boot(2);
    let mut c = connect(&handle);
    load_workload(&mut c);

    // Weigh the long path expensive and the short path cheap: tropical
    // takes the v0→a→v2 route (1+2) plus the tail (4). Unlisted facts
    // default to the semiring's 1 (cost 0 for tropical).
    let weights = &[
        "WEIGHT E v0 v1 10",
        "WEIGHT E v1 v2 10",
        "WEIGHT E v0 a 1",
        "WEIGHT E a v2 2",
        "WEIGHT E v2 v3 4",
    ];
    let reply = c
        .send_block("QUERY T v0 v3 SEMIRING tropical VALUATION perfact", weights)
        .unwrap();
    assert_eq!(reply.status, "OK VALUE 7");

    // A typo in a WEIGHT line is a hard error, not a silent no-op.
    let reply = c
        .send_block(
            "QUERY T v0 v3 SEMIRING tropical VALUATION perfact",
            &["WEIGHT E v0 nosuch 3"],
        )
        .unwrap();
    assert!(
        reply.status.starts_with("ERR VALUATION"),
        "{}",
        reply.status
    );

    // In a BATCH, WEIGHT lines attach to the preceding perfact item and
    // are not rows of their own.
    let reply = c
        .send_block(
            "BATCH",
            &[
                "QUERY T v0 v3 SEMIRING tropical VALUATION perfact",
                "WEIGHT E v0 v1 10",
                "WEIGHT E v1 v2 10",
                "WEIGHT E v0 a 1",
                "WEIGHT E a v2 2",
                "WEIGHT E v2 v3 4",
                "QUERY T v0 v3 SEMIRING bool",
            ],
        )
        .unwrap();
    assert_eq!(reply.status, "OK BATCH 2");
    assert_eq!(reply.body[0], "0 OK 7");
    assert_eq!(reply.body[1], "1 OK true");

    handle.shutdown();
    handle.wait().unwrap();
}

/// Every wire valuation check, one row per (semiring, valuation): weights
/// outside a semiring's range answer `ERR VALUATION`, whether they arrive
/// as `unit:<w>` or as a `perfact` `WEIGHT` line, and one valid query per
/// semiring and valuation shape answers `OK`.
#[test]
fn valuation_range_checks_answer_err_valuation() {
    let handle = boot(1);
    let mut c = connect(&handle);
    load_workload(&mut c);
    let mut ask = |sem: &str, val: &str, weight: Option<&str>| {
        let line = format!("QUERY T v0 v3 SEMIRING {sem} VALUATION {val}");
        let reply = match weight {
            Some(w) => c.send_block(&line, &[&format!("WEIGHT E v0 v1 {w}")]),
            None => c.run_line(&line),
        };
        reply.unwrap().status
    };
    for sem in ["tropical", "counting", "bottleneck"] {
        for (val, weight) in [
            ("unit:1.5", None),
            ("unit:-1", None),
            ("perfact", Some("2.5")),
        ] {
            let status = ask(sem, val, weight);
            assert!(
                status.starts_with("ERR VALUATION"),
                "{sem} {val} {weight:?}: {status}"
            );
        }
        for (val, weight) in [("ones", None), ("unit:2", None), ("perfact", Some("3"))] {
            let status = ask(sem, val, weight);
            assert!(status.starts_with("OK VALUE"), "{sem} {val}: {status}");
        }
    }
    for (val, weight) in [("unit:1.5", None), ("perfact", Some("1.5"))] {
        let status = ask("fuzzy", val, weight);
        assert!(status.starts_with("ERR VALUATION"), "fuzzy {val}: {status}");
    }
    for (val, weight) in [("ones", None), ("unit:0.5", None), ("perfact", Some("0.5"))] {
        let status = ask("fuzzy", val, weight);
        assert!(status.starts_with("OK VALUE"), "fuzzy {val}: {status}");
    }
    assert!(ask("bool", "ones", None).starts_with("OK VALUE"));
    handle.shutdown();
    handle.wait().unwrap();
}

/// The ISSUE 8 acceptance case: `INSERT` while 8 readers hammer the
/// session must maintain the one cached grounding, never reground. The
/// readers also pin a correctness floor — a fact derivable before every
/// write stays derivable in every snapshot they observe.
#[test]
fn insert_under_eight_concurrent_readers_never_regrounds() {
    let handle = boot(8);
    let mut admin = connect(&handle);
    let open = admin.roundtrip("SESSION OPEN").unwrap();
    let session_id: u64 = open.strip_prefix("OK SESSION ").unwrap().parse().unwrap();
    let program: Vec<&str> = TC.lines().collect();
    admin.send_block("LOAD PROGRAM", &program).unwrap();
    admin
        .send_block("LOAD FACTS", &["E v0 v1", "E v1 v2"])
        .unwrap();

    let addr = handle.addr();
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("reader connect");
                    c.roundtrip(&format!("SESSION ATTACH {session_id}"))
                        .unwrap();
                    for _ in 0..25 {
                        // Invariant across every write below.
                        assert_eq!(
                            c.roundtrip("QUERY T v0 v2 SEMIRING bool").unwrap(),
                            "OK VALUE true"
                        );
                        // Racing the writer: either answer is fine, but it
                        // must be an answer, never an error.
                        let status = c.roundtrip("QUERY T v0 v4 SEMIRING bool").unwrap();
                        assert!(status.starts_with("OK VALUE"), "{status}");
                    }
                })
            })
            .collect();

        // Writer: grow and shrink the chain while the readers run.
        for _ in 0..10 {
            for cmd in [
                "INSERT E v2 v3",
                "INSERT E v3 v4",
                "RETRACT E v3 v4",
                "RETRACT E v2 v3",
            ] {
                let status = admin.roundtrip(cmd).unwrap();
                assert!(status.starts_with("OK "), "{cmd} → {status}");
            }
        }
        for r in readers {
            r.join().unwrap();
        }
    });

    // 40 writes and 400 reads later: still exactly the one grounding
    // built by LOAD FACTS.
    let metrics = admin.run_line("METRICS").unwrap();
    let json = metrics.body.join("\n");
    assert!(
        json.contains("\"groundings\": 1"),
        "INSERT must maintain, not reground: {json}"
    );
    // At least one incremental application per write; repairs of the
    // bool fixpoint the racing readers cache add a nondeterministic
    // number on top (0..=1 surviving entry per write).
    let applied: u64 = json
        .split("\"incremental_applied\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no incremental_applied in {json}"));
    assert!((40..=80).contains(&applied), "{json}");
    assert!(json.contains("\"incremental_fallbacks\": 0"), "{json}");

    handle.shutdown();
    handle.wait().unwrap();
}

#[test]
fn idle_sessions_are_evicted_over_the_wire() {
    let handle = Server::bind(
        ServerConfig::default()
            .workers(2)
            .session_ttl(Some(std::time::Duration::from_millis(200))),
    )
    .expect("bind ephemeral server");
    let mut c = connect(&handle);
    let open = c.roundtrip("SESSION OPEN").unwrap();
    let session_id: u64 = open.strip_prefix("OK SESSION ").unwrap().parse().unwrap();
    load_workload_into(&mut c);
    assert_eq!(handle.registry().len(), 1);

    // Go idle past the TTL; the accept-loop sweep evicts the session.
    std::thread::sleep(std::time::Duration::from_millis(700));
    assert!(handle.registry().is_empty(), "idle session not evicted");

    // A fresh connection can no longer attach…
    let mut fresh = connect(&handle);
    let status = fresh
        .roundtrip(&format!("SESSION ATTACH {session_id}"))
        .unwrap();
    assert!(status.starts_with("ERR BAD-SESSION"), "{status}");

    // …but the original connection still holds the session and can read
    // the eviction off its own metrics stream.
    let metrics = c.run_line("METRICS").unwrap();
    assert!(
        metrics.status.starts_with("OK METRICS"),
        "{}",
        metrics.status
    );
    let json = metrics.body.join("\n");
    assert!(json.contains("\"sessions_evicted\": 1"), "{json}");

    handle.shutdown();
    handle.wait().unwrap();
}

/// `load_workload` minus the SESSION OPEN (for tests that opened one
/// already to capture the id).
fn load_workload_into(c: &mut Client) {
    let program: Vec<&str> = TC.lines().collect();
    c.send_block("LOAD PROGRAM", &program).unwrap();
    let facts = fact_lines();
    let fact_refs: Vec<&str> = facts.iter().map(String::as_str).collect();
    c.send_block("LOAD FACTS", &fact_refs).unwrap();
}

#[test]
fn shutdown_over_the_wire_drains_the_server() {
    let handle = boot(2);
    let mut c = connect(&handle);
    load_workload(&mut c);
    assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK SHUTDOWN");
    assert!(handle.is_shutting_down());
    // The accept loop and every worker exit cleanly.
    handle.wait().unwrap();
}

#[test]
fn overload_rejects_with_single_busy_frame_and_counts() {
    // One worker, one pending slot: pin the worker with a served
    // connection, park a second in the pending queue, and the third must
    // be rejected at admission with a single `ERR BUSY` frame.
    let handle = Server::bind(ServerConfig::default().workers(1).pending_limit(1))
        .expect("bind ephemeral server");
    let mut a = connect(&handle);
    a.roundtrip("SESSION OPEN").unwrap(); // proves the worker is serving A

    // B completes its handshake and waits in the single pending slot.
    let b = std::net::TcpStream::connect(handle.addr()).unwrap();

    // C overflows the queue: the accept loop answers ERR BUSY and closes.
    let c = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut line = String::new();
    let mut reader = std::io::BufReader::new(c);
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.starts_with("ERR BUSY"), "{line}");
    assert_eq!(handle.registry().overload_rejections(), 1);

    // The reject is surfaced in METRICS as `overload_rejections`.
    let metrics = a.run_line("METRICS").unwrap();
    assert!(
        metrics.status.starts_with("OK METRICS"),
        "{}",
        metrics.status
    );
    let json = metrics.body.join("\n");
    assert!(json.contains("\"overload_rejections\": 1"), "{json}");

    // Established connections were never affected: A keeps serving, and
    // once A quits the worker drains B from the pending queue.
    assert_eq!(a.roundtrip("PING").unwrap(), "OK PONG");
    assert_eq!(a.roundtrip("QUIT").unwrap(), "OK BYE");
    let mut b_reader = std::io::BufReader::new(b.try_clone().unwrap());
    use std::io::Write as _;
    let mut b_stream = b;
    b_stream.write_all(b"PING\n").unwrap();
    let mut pong = String::new();
    std::io::BufRead::read_line(&mut b_reader, &mut pong).unwrap();
    assert_eq!(pong.trim_end(), "OK PONG");

    handle.shutdown();
    handle.wait().unwrap();
}
