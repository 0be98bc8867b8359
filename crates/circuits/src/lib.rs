//! The ZKDET circuit library: reusable gadgets and the protocol circuits.
//!
//! Mirrors the paper's structure:
//!
//! * [`gadgets`] — the "library of fundamental cryptographic and
//!   mathematical gadgets" of §IV-D: bits/ranges/comparisons, fixed-point
//!   arithmetic with non-linear approximations, matrix operations, and
//!   in-circuit MiMC / Poseidon / Merkle primitives that match the native
//!   implementations in `zkdet-crypto` bit-for-bit;
//! * [`encryption`] — the proof-of-encryption relation `π_e` (§IV-B step 1/3);
//! * [`transform`] — the transformation predicates `π_t` for duplication,
//!   aggregation and partition (§IV-D 1–3);
//! * [`exchange`] — the `π_p` (data validation) and `π_k` (key negotiation)
//!   relations of the key-secure exchange protocol (§IV-F);
//! * [`spec`] — the six registry relations as plain Rust, the reference
//!   the circuits are tested against;
//! * [`apps`] — the data-processing showcases of §IV-E: logistic-regression
//!   convergence and a transformer block (attention + feed-forward).
//!
//! Every circuit here is *structure-stable*: the gate layout depends only on
//! public sizes, never on witness values, so one preprocessing serves all
//! instances of the same shape.

#![forbid(unsafe_code)]

pub mod apps;
pub mod encryption;
pub mod exchange;
pub mod gadgets;
pub mod registry;
pub mod spec;
pub mod transform;

pub use encryption::EncryptionCircuit;
pub use exchange::{KeyNegotiationCircuit, ValidationCircuit, ValidationPredicate};
pub use registry::{registry, RegisteredCircuit};
pub use transform::{AggregationCircuit, DuplicationCircuit, PartitionCircuit};
