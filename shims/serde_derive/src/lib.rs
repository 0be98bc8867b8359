//! Empty stand-in for the `serde_derive` crate; nothing in the workspace
//! uses it. The package stays only because `benchmark/Cargo.lock` records
//! its edge from the `serde` stand-in; the benchmark-only change that
//! refreshes that lock deletes this package together with `serde`.

#![forbid(unsafe_code)]
