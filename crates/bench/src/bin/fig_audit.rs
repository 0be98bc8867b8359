//! **Audit figure** — lineage re-verification cost with the provenance
//! subsystem (not in the paper, which only reports single-proof times; the
//! traceability half of the title deserves its own measurement).
//!
//! Builds one deep token lineage by cycling aggregation → partition →
//! duplication, then audits the tip twice:
//!
//! * `cold` — from an empty audit cache: every lineage proof folded into
//!   one pairing check, each side of it one MSM (`meta.msm_terms` counts
//!   the terms of both after equal bases are merged, `meta.proofs` the
//!   proofs they stand for);
//! * `warm` — a re-audit against the cache the cold run filled: every
//!   check hits, so no group arithmetic runs at all.
//!
//! The printed speedup is cold over warm: what is left of a re-audit is
//! fetching and hashing the artefacts. It is a wall-clock ratio, so it
//! is printed, not written to `meta`, where every key is a pin.
//!
//! Emits `BENCH_fig_audit.json` (schema `zkdet-bench-v1`).
//!
//! ```text
//! cargo run --release -p zkdet-bench --bin fig_audit [--full|--small]
//! ```

#![forbid(unsafe_code)]

use std::time::Duration;

use zkdet_bench::{bench_rng, fmt_duration, time, BenchReport};
use zkdet_core::{Dataset, Marketplace};
use zkdet_field::Fr;
use zkdet_telemetry::Value;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let small = std::env::args().any(|a| a == "--small");
    let telemetry_on = zkdet_bench::init_telemetry();
    let mut rng = bench_rng();
    // Each cycle appends 4 nodes (aggregate, two partitions, duplicate)
    // below the two seed originals.
    let (preset, cycles) = if full {
        ("full", 50usize)
    } else if small {
        ("small", 5)
    } else {
        ("default", 25)
    };
    let mut report = BenchReport::new("fig_audit");
    report.meta("preset", preset);
    report.meta("telemetry", telemetry_on);

    eprintln!("minting {} tokens…", 2 + 4 * cycles);
    let mut m = Marketplace::bootstrap(1 << 13, 8, &mut rng).expect("bootstrap");
    let mut alice = m.register();
    let ds = |vals: &[u64]| Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect());
    let mut x = m
        .publish_original(&mut alice, ds(&[1]), &mut rng)
        .expect("publish");
    let mut y = m
        .publish_original(&mut alice, ds(&[2]), &mut rng)
        .expect("publish");
    let mut tip = x;
    for _ in 0..cycles {
        let agg = m.aggregate(&mut alice, &[x, y], &mut rng).expect("agg");
        let parts = m
            .partition(&mut alice, agg, &[1, 1], &mut rng)
            .expect("partition");
        let dup = m.duplicate(&mut alice, parts[0], &mut rng).expect("dup");
        x = dup;
        y = parts[1];
        tip = dup;
    }
    let nodes = m
        .chain
        .nft(&m.nft_addr)
        .expect("nft")
        .provenance(tip)
        .expect("provenance")
        .len()
        + 1;
    report.meta("lineage_nodes", nodes as u64);
    println!("Audit cost over a {nodes}-node lineage (tip {tip})");
    println!("{:<8} {:>12} {:>12} {:>12}", "mode", "time", "hits", "misses");

    // Untimed warmup: preprocess every circuit shape the audit needs, so
    // the timed runs measure verification, not key derivation.
    m.audit_token(tip, &mut rng).expect("warmup audit");
    m.clear_audit_cache();

    let msm_terms = || {
        zkdet_telemetry::global()
            .registry
            .histogram("zkdet.curve.msm.terms")
            .snapshot()
            .sum
    };
    let terms_before = msm_terms();
    let mut timed = |mode: &str| -> (Duration, u64) {
        let (h0, m0) = (m.audit_cache().hits(), m.audit_cache().misses());
        let (_, elapsed) = time(|| m.audit_token(tip, &mut rng).expect("audit"));
        let (hits, misses) = (m.audit_cache().hits() - h0, m.audit_cache().misses() - m0);
        println!(
            "{mode:<8} {:>12} {hits:>12} {misses:>12}",
            fmt_duration(elapsed)
        );
        report.row(
            Value::object()
                .with("mode", mode)
                .with("micros", elapsed.as_micros() as u64)
                .with("cache_hits", hits)
                .with("cache_misses", misses),
        );
        (elapsed, misses)
    };
    let (t_cold, proofs) = timed("cold");
    let msm_terms = msm_terms() - terms_before;
    let (t_warm, _) = timed("warm");

    let warm_speedup = t_cold.as_secs_f64() / t_warm.as_secs_f64().max(1e-9);
    println!("{proofs} proofs in {msm_terms} MSM terms; warm is {warm_speedup:.1}x faster");
    report.meta("proofs", proofs);
    report.meta("msm_terms", msm_terms);
    report.meta(
        "cache_hit_rate",
        format!("{:.3}", m.audit_cache().hit_rate()).as_str(),
    );

    match report.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artefact: {e}"),
    }
}
