//! Engine-as-a-service: a concurrent session server over the `provcirc`
//! pipeline.
//!
//! The paper's pitch — ground a Datalog program's provenance once, then
//! evaluate it over any semiring by swapping the valuation — only pays off
//! when the engine outlives a single process. This crate keeps
//! [`Engine`](provcirc::Engine) sessions resident behind a line-oriented
//! TCP protocol:
//!
//! - **Sessions** ([`session::Registry`]) own program text, facts, and an
//!   `Arc<EngineSnapshot>` — an immutable freeze of the cached grounding
//!   and classification. Readers clone the `Arc` and evaluate lock-free;
//!   `LOAD FACTS` rebuilds and atomically swaps it (snapshot isolation).
//! - **The wire protocol** ([`protocol`]) is plain text, one command per
//!   line, every failure a single `ERR <code> <msg>` frame that never
//!   drops the connection. `BATCH` amortizes one grounding (and one
//!   fixpoint per distinct semiring/valuation pair) across N queries.
//! - **The server** ([`Server`]) is a `std::net::TcpListener` accept loop
//!   feeding a fixed pool of `std::thread` workers — no async runtime, no
//!   dependencies. `SHUTDOWN` drains gracefully: the listener stops
//!   accepting, in-flight connections finish their current command.
//! - **Telemetry**: each session carries an always-on
//!   [`PipelineMetrics`](telemetry::PipelineMetrics) stream that survives
//!   snapshot rebuilds; `METRICS` returns the `pipeline_metrics_v1` JSON,
//!   including the serve-side counters (`sessions_opened`,
//!   `queries_served`, `batches_served`, `batch_queries`) and the
//!   [`Stage::Serve`](telemetry::Stage::Serve) span.
//!
//! ```no_run
//! use server::{Server, ServerConfig};
//! use server::client::Client;
//!
//! let handle = Server::bind(ServerConfig::default().addr("127.0.0.1:0")).unwrap();
//! let mut c = Client::connect(handle.addr()).unwrap();
//! c.roundtrip("SESSION OPEN").unwrap();
//! c.send_block("LOAD PROGRAM", &["T(X,Y) :- E(X,Y).", "T(X,Y) :- T(X,Z), E(Z,Y)."]).unwrap();
//! c.send_block("LOAD FACTS", &["E v0 v1", "E v1 v2"]).unwrap();
//! let reply = c.roundtrip("QUERY T v0 v2 SEMIRING tropical VALUATION unit:1").unwrap();
//! assert_eq!(reply, "OK VALUE 2");
//! handle.shutdown();
//! handle.wait().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod protocol;
pub mod session;

use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::session::Registry;

/// Server configuration. Start from [`ServerConfig::default`] and chain
/// setters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    addr: String,
    workers: usize,
    eval_threads: usize,
    read_timeout: Option<Duration>,
    session_ttl: Option<Duration>,
    pending_limit: usize,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 4 workers, 1 eval thread per query,
    /// 30-second idle timeout, no session eviction, 64 pending connections.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            eval_threads: 1,
            read_timeout: Some(Duration::from_secs(30)),
            session_ttl: None,
            pending_limit: 64,
        }
    }
}

impl ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (`:0` = ephemeral).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker threads handling connections (the serving concurrency).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Threads a session's grounding shards its join enumeration
    /// across — the engine's `parallelism` knob; the
    /// fixpoint itself is always sequential. Serving layers usually keep
    /// this at 1 and scale by `workers` instead: concurrent queries
    /// already use the cores, and 1 is the exact sequential code path.
    /// See `docs/ARCHITECTURE.md` for the sizing discussion.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = threads.max(1);
        self
    }

    /// Per-connection idle read timeout (`None` = wait forever).
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Evict sessions idle for longer than `ttl` (`None`, the default,
    /// keeps sessions forever). Swept by the accept loop; every command a
    /// connection runs against a session counts as use. Evictions bump the
    /// `sessions_evicted` counter on the evicted session's `METRICS`
    /// stream. Wire flag: `dlc serve --session-ttl <secs>`.
    pub fn session_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.session_ttl = ttl;
        self
    }

    /// Backpressure: how many accepted-but-unserved connections may wait
    /// for a worker before the accept loop starts *rejecting* new ones
    /// with a single `ERR BUSY <retry-hint>` frame instead of queueing
    /// without bound. Rejects bump the `overload_rejections` counter
    /// surfaced by `METRICS`. Minimum 1.
    pub fn pending_limit(mut self, limit: usize) -> Self {
        self.pending_limit = limit.max(1);
        self
    }
}

/// The serving subsystem: bind with [`Server::bind`], which returns a
/// [`ServerHandle`] — the server itself runs on background threads.
pub struct Server;

impl Server {
    /// Bind the listener, spawn the accept loop and the worker pool, and
    /// return a handle. The listener is non-blocking so shutdown can be
    /// observed; accepted sockets are handed to workers over a channel.
    pub fn bind(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new(config.eval_threads));
        // Bounded pending queue: accepted sockets wait here for a worker.
        // When it is full the accept loop rejects instead of queueing —
        // overload turns into fast, explicit `ERR BUSY` feedback rather
        // than unbounded memory growth and silent latency.
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            std::sync::mpsc::sync_channel(config.pending_limit);
        let rx = Arc::new(Mutex::new(rx));

        let workers: Vec<JoinHandle<()>> = (0..config.workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let registry = Arc::clone(&registry);
                let shutdown = Arc::clone(&shutdown);
                let read_timeout = config.read_timeout;
                std::thread::Builder::new()
                    .name(format!("dlc-serve-worker-{w}"))
                    .spawn(move || loop {
                        let next = {
                            let rx = rx.lock().expect("worker receiver poisoned");
                            rx.recv_timeout(Duration::from_millis(50))
                        };
                        match next {
                            Ok(stream) => {
                                // A panicking connection handler must not
                                // take the worker (or the server) down:
                                // log-free, drop the socket, move on.
                                let registry = &registry;
                                let shutdown = &shutdown;
                                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    let _ = conn::serve_connection(
                                        stream,
                                        registry,
                                        shutdown,
                                        read_timeout,
                                    );
                                }));
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                if shutdown.load(Ordering::SeqCst) {
                                    return;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => return,
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let registry = Arc::clone(&registry);
            let session_ttl = config.session_ttl;
            std::thread::Builder::new()
                .name("dlc-serve-accept".to_owned())
                .spawn(move || {
                    // Sweep idle sessions at a fraction of the TTL (at
                    // least every 50ms for the short TTLs tests use).
                    let mut last_sweep = std::time::Instant::now();
                    let sweep_every =
                        session_ttl.map(|ttl| (ttl / 4).max(Duration::from_millis(50)));
                    loop {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if let (Some(ttl), Some(every)) = (session_ttl, sweep_every) {
                            if last_sweep.elapsed() >= every {
                                registry.evict_idle(ttl);
                                last_sweep = std::time::Instant::now();
                            }
                        }
                        match listener.accept() {
                            Ok((stream, _peer)) => match tx.try_send(stream) {
                                Ok(()) => {}
                                Err(TrySendError::Full(mut stream)) => {
                                    // Single-frame reject, then drop the
                                    // socket: the client gets an explicit
                                    // retry signal instead of an unbounded
                                    // queue wait.
                                    registry.note_overload_rejection();
                                    let _ = stream.write_all(
                                        protocol::WireError::new(
                                            protocol::ErrCode::Busy,
                                            "pending queue full; retry after backoff",
                                        )
                                        .render()
                                        .as_bytes(),
                                    );
                                    let _ = stream.write_all(b"\n");
                                }
                                Err(TrySendError::Disconnected(_)) => break,
                            },
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            // Transient accept errors (e.g. aborted
                            // handshake) must not kill the loop.
                            Err(_) => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                    // Dropping `tx` disconnects the channel; workers drain
                    // queued sockets, then exit.
                })
                .expect("spawn accept thread")
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            registry,
            accept: Some(accept),
            workers,
        })
    }
}

/// Handle to a running server: address, programmatic shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session registry (useful for introspection in tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Request shutdown: stop accepting, let workers drain. Equivalent to
    /// a client sending `SHUTDOWN`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by handle or by wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the accept loop and every worker have exited. Call
    /// [`shutdown`](ServerHandle::shutdown) first (or send `SHUTDOWN` over
    /// the wire), otherwise this waits forever.
    pub fn wait(mut self) -> std::thread::Result<()> {
        if let Some(accept) = self.accept.take() {
            accept.join()?;
        }
        for w in self.workers.drain(..) {
            w.join()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolves_ephemeral_port_and_shuts_down() {
        let handle = Server::bind(ServerConfig::default().workers(2)).unwrap();
        assert_ne!(handle.addr().port(), 0);
        assert!(!handle.is_shutting_down());
        handle.shutdown();
        assert!(handle.is_shutting_down());
        handle.wait().unwrap();
    }
}
