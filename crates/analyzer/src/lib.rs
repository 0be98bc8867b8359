//! # zkdet-analyzer — static analysis for circuit soundness and replay
//! determinism
//!
//! The scheme's guarantees rest on π_e/π_t/π_p/π_k proving exactly their
//! stated relations; the workspace's own rest on byte-identical replay,
//! which assumes nothing in a simulation-visible path consults wall-clock
//! time, ambient randomness, or unordered-map iteration order. Neither can
//! be shown by running twice. This crate makes both machine-checked gates
//! (DESIGN.md §12):
//!
//! * [`circuit`] — a witness-independent soundness pass over every
//!   registered protocol circuit's pre-build constraint system, with
//!   structural digests and a degrees-of-freedom account.
//! * [`scan`] — a source-level determinism lint over every workspace
//!   crate, built on a hand-rolled lexer ([`lexer`]), with suppression via
//!   auditable `// zkdet-analyzer: allow(<rule>) <reason>` directives.
//! * [`race`] — a vector-clock happens-before checker over the declared
//!   World-state access sets of a `zkdet-exec` run, reporting conflicting
//!   same-tick accesses that only the seed tiebreak orders.
//! * [`rules`] — the one rule taxonomy, severity ranking and finding type
//!   the first two share; [`report`] — their results as one deterministic
//!   `zkdet-analyzer-v2` JSON artefact (zkdet-telemetry codec).
//!
//! The `zkdet_analyzer` binary is the CI entry point for the circuit pass
//! and the source scan; the race checker is self-gated in `fig_throughput`
//! and the `exec_determinism` suite.

#![forbid(unsafe_code)]

pub mod circuit;
pub mod lexer;
pub mod race;
pub mod report;
pub mod rules;
pub mod scan;

pub use circuit::{
    analyze, check_registry, structural_digest, Analysis, CircuitReport, DofAccount,
};
pub use race::{check_accesses, Conflict, RaceReport};
pub use rules::{Finding, Rule, Severity, ALL_RULES};
pub use scan::{scan_source, scan_workspace, FileClass, ScanReport};
