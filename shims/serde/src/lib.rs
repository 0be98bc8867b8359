//! Empty stand-in for the `serde` crate; nothing in the workspace uses it.
//! Every artefact that crosses a trust boundary (proofs, keys, the SRS,
//! journal frames) goes through its own validated byte codec. The package
//! stays only because `benchmark/Cargo.lock` records its edges from eleven
//! workspace crates; the benchmark-only change that refreshes that lock
//! deletes those edges, this package and `serde_derive`.

#![forbid(unsafe_code)]
