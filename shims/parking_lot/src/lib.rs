//! Empty stand-in for the `parking_lot` crate; nothing in the workspace uses
//! it. Locks are `std::sync::{Mutex, RwLock}`, and each lock owner recovers
//! a poisoned guard in one private accessor. The package stays only because
//! `benchmark/Cargo.lock` records its edges from `zkdet-chain`,
//! `zkdet-core`, `zkdet-provenance`, `zkdet-storage` and `zkdet-telemetry`;
//! the benchmark-only change that refreshes that lock deletes them.

#![forbid(unsafe_code)]
