//! Umbrella crate for the `datalog-circuits` workspace.
//!
//! Re-exports every workspace crate so the examples and integration tests
//! can use a single dependency. See [`provcirc`] (home of the
//! [`Engine`](provcirc::Engine) session facade) for the paper-level API.
//!
//! The README below is included verbatim — its quickstart compiles and
//! runs as a doctest of this crate, so the front-door example can never
//! rot.
//!
#![doc = include_str!("../README.md")]

pub use circuit;
pub use datalog;
pub use grammar;
pub use graphgen;
pub use incremental;
pub use provcirc;
pub use semiring;
pub use server;
pub use telemetry;
