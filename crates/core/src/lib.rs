//! `provcirc` — the paper-level API of the `datalog-circuits` workspace:
//! classification and compilation of Datalog provenance into semiring
//! circuits, after *Circuits and Formulas for Datalog over Semirings*
//! (Fan, Koutris, Roy — PODS 2025).
//!
//! The front door is the [`Engine`] session: one object owning the program,
//! the database, and every lazily cached derived artifact (grounding,
//! classification, provenance, compiled circuits):
//!
//! ```
//! use provcirc::prelude::*;
//! use semiring::{Semiring, Tropical, UnitWeights};
//!
//! // Transitive closure — the paper's running example — on a 5-node path.
//! let engine = Engine::builder()
//!     .program_text("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).")
//!     .graph(&graphgen::generators::path(4, "E"))
//!     .build()
//!     .unwrap();
//!
//! // Θ(log² m): infinite regular language (Theorem 5.3).
//! let report = engine.classification();
//! assert_eq!(report.depth_upper, DepthBound::LogSquared);
//! assert_eq!(report.formula, FormulaVerdict::SuperPolynomial);
//!
//! // Query T(v0, v4): evaluate over the tropical semiring (shortest path
//! // with unit weights = 4) and compile the provenance circuit once.
//! let q = engine.query("T", &["v0", "v4"]).unwrap();
//! let unit = UnitWeights::new(Tropical::new(1));
//! assert_eq!(q.eval(&unit).unwrap(), Tropical::new(4));
//! let compiled = q.circuit(Strategy::Auto).unwrap();
//! assert_eq!(compiled.circuit.eval(&unit), Tropical::new(4));
//! ```
//!
//! Behind the facade, three questions map to three modules:
//!
//! * **"Which depth class is my program in?"** — [`classify`] reports the
//!   paper's dichotomies: Θ(log m) vs Θ(log² m) circuit depth and the
//!   polynomial-size-formula verdict (Theorems 4.3, 5.3, 5.4, 6.2, 6.5).
//! * **"Is it bounded?"** — [`boundedness`] decides exactly for basic chain
//!   programs (Prop 5.5), gathers Theorem 4.6 expansion evidence otherwise,
//!   and probes Definition 4.1 empirically (including the Corollary 4.7
//!   cross-semiring agreement).
//! * **"Give me the circuit."** — [`compile`] dispatches to the
//!   construction the classification recommends; [`engine`] caches the
//!   shared grounding/classification across queries, and [`read`] answers
//!   goals from it through one evaluator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundedness;
pub mod classify;
pub mod compile;
pub mod engine;
mod fixpoints;
pub mod read;

pub use provcirc_error::Error;

pub use boundedness::{
    cross_semiring_iterations, decide_boundedness, empirical_iterations, BoundednessOptions,
    BoundednessReport, UnboundedReason, Verdict,
};
pub use classify::{classify_program, Classification, DepthBound, FormulaVerdict, GrammarInfo};
pub use compile::{chain_program_dfa, compile_fact, compile_graph_fact, Compiled, Strategy};
pub use datalog::EvalStrategy;
pub use engine::{DeltaOutcome, Engine, EngineBuilder, EngineCacheStats, Query};
pub use read::{Goal, Pipeline};

pub use incremental;
pub use telemetry;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use crate::boundedness::{decide_boundedness, BoundednessOptions, Verdict};
    pub use crate::classify::{classify_program, Classification, DepthBound, FormulaVerdict};
    pub use crate::compile::{compile_fact, compile_graph_fact, Compiled, Strategy};
    pub use crate::engine::{DeltaOutcome, Engine, EngineBuilder, EngineCacheStats, Query};
    pub use crate::read::{Goal, Pipeline};
    pub use datalog::EvalStrategy;
    pub use incremental::MaintainedFixpoint;
    pub use provcirc_error::Error;
}
