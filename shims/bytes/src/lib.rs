//! Empty stand-in for the `bytes` crate; nothing in the workspace uses it.
//! Stored blocks are `std::sync::Arc<[u8]>`, whose clones are reference
//! bumps. The package stays only because `benchmark/Cargo.lock` records its
//! edges from `zkdet-core`, `zkdet-crypto` and `zkdet-storage`; the
//! benchmark-only change that refreshes that lock deletes them.

#![forbid(unsafe_code)]
