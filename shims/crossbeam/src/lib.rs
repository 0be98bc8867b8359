//! Empty stand-in for the `crossbeam` crate; nothing in the workspace uses
//! it. The compute kernels fan out through `zkdet_field::par` and the
//! executor's pool runs on `std::sync::mpsc`. The package stays only because
//! `benchmark/Cargo.lock` records its edges from `zkdet-curve`,
//! `zkdet-plonk`, `zkdet-exec` and `zkdet-provenance`; the benchmark-only
//! change that refreshes that lock deletes those edges and this package.

#![forbid(unsafe_code)]
