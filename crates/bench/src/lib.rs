//! Shared workload generators and measurement helpers for the benchmark
//! harness. One binary per paper table/figure lives in `src/bin/`:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig5_setup` | Fig. 5 — circuit-setup time vs. constraint count |
//! | `fig6_proving` | Fig. 6 — proof-generation time vs. data size (π_e, π_t, π_k) |
//! | `fig7_verify` | Fig. 7 — verification time, ZKDET vs. ZKCP |
//! | `table1_apps` | Table I — proving time/size for logistic regression & transformer |
//! | `table2_gas` | Table II — gas consumption of every contract operation |
//! | `ablation_decoupling` | §IV-B proof-decoupling saving (design-choice ablation) |
//! | `ablation_primitives` | §IV-C circuit-friendly-primitive saving (ablation) |
//! | `fig_audit` | lineage audit cost: cold (one folded check) vs. cached |
//! | `fig_recovery` | crash-recovery latency vs. crash point and journal length |
//! | `fig_storage` | quorum availability and repair latency vs. node-failure fraction |
//! | `fig_throughput` | concurrent exchanges/sec on the deterministic executor, vs. a serial baseline |
//!
//! Substrate micro-benchmarks (MSM, FFT, pairing, MiMC, Poseidon) are rows
//! of the wall-clock ladder in `benchmark/src/ladder.rs`.

#![forbid(unsafe_code)]

pub mod diff;
pub mod report;

pub use diff::{diff_reports, DiffOutcome, RowDelta, Verdict, FAIL_PCT, WARN_PCT};
pub use report::{check, init_telemetry, write_profile, BenchReport, SCHEMA};

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkdet_circuits::EncryptionCircuit;
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::mimc::{Ciphertext, MimcCtr};
use zkdet_field::{Field, Fr};
use zkdet_plonk::CompiledCircuit;

/// Seed of the deterministic benchmark RNG. Stamped into every bench
/// artefact's `meta.bench_seed` so `bench_diff` can refuse to compare
/// runs measured over different workloads.
pub const BENCH_SEED: u64 = 0xbe_9c;

/// Deterministic benchmark RNG.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(BENCH_SEED)
}

/// Times one invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    // zkdet-analyzer: allow(wall-clock) bench wall timing feeds only *_ns artefact keys, never simulation state
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a duration like the paper's tables (`3.11s`, `1min29s`).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{}min{:02.0}s", (secs / 60.0) as u64, secs % 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.1}ms", secs * 1000.0)
    }
}

/// A fully prepared π_e instance for a dataset of `blocks` field elements
/// (`blocks × 31` bytes of payload, ≈ the paper's "data size" axis).
pub struct EncInstance {
    /// The circuit shape.
    pub shape: EncryptionCircuit,
    /// Synthesized circuit with witness.
    pub circuit: CompiledCircuit,
    /// Public ciphertext.
    pub ciphertext: Ciphertext,
    /// Public commitment.
    pub commitment: Commitment,
    /// Private opening (kept for transformation benches).
    pub opening: Opening,
    /// Plaintext (kept for transformation benches).
    pub plaintext: Vec<Fr>,
}

/// Builds a π_e instance over random data.
pub fn enc_instance(blocks: usize, rng: &mut StdRng) -> EncInstance {
    let plaintext: Vec<Fr> = (0..blocks).map(|_| Fr::random(rng)).collect();
    let key = Fr::random(rng);
    let nonce = Fr::random(rng);
    let ciphertext = MimcCtr::new(key, nonce).encrypt(&plaintext);
    let (commitment, opening) = CommitmentScheme::commit(&plaintext, rng);
    let shape = EncryptionCircuit::new(blocks);
    let circuit = shape.synthesize(&plaintext, key, &ciphertext, &commitment, &opening);
    EncInstance {
        shape,
        circuit,
        ciphertext,
        commitment,
        opening,
        plaintext,
    }
}

/// A synthetic circuit with roughly `target` multiplication gates
/// (Fig. 5's x-axis is "number of constraints").
pub fn synthetic_circuit(target: usize, rng: &mut StdRng) -> CompiledCircuit {
    let mut b = zkdet_plonk::CircuitBuilder::new();
    let mut x = b.alloc(Fr::random(rng));
    let y = b.alloc(Fr::random(rng));
    for _ in 0..target.saturating_sub(2) {
        x = b.mul(x, y);
    }
    let out = b.value(x);
    let pub_out = b.public_input(out);
    b.assert_equal(x, pub_out);
    b.build()
}

/// Dataset size in bytes for a block count (31 payload bytes per field
/// element, matching `Dataset::from_bytes` packing).
pub fn blocks_to_bytes(blocks: usize) -> usize {
    blocks * 31
}

/// Generates a synthetic logistic-regression witness with the circuit's
/// own convergence criterion satisfied.
pub fn logreg_witness(
    samples: usize,
    features: usize,
    rng: &mut StdRng,
) -> zkdet_circuits::apps::logreg::LogRegWitness {
    use zkdet_circuits::apps::logreg::{train_until_converged, LogRegWitness};
    let xs: Vec<Vec<f64>> = (0..samples)
        .map(|_| (0..features).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let labels: Vec<f64> = xs
        .iter()
        .map(|x| {
            let noise: f64 = rng.gen_range(-0.4..0.4);
            if x.iter().sum::<f64>() + noise > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let (beta, _) = train_until_converged(&xs, &labels, 0.1, 64.0 / 65536.0, 200_000);
    LogRegWitness {
        features: xs,
        labels,
        beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enc_instance_is_satisfied() {
        let mut rng = bench_rng();
        let inst = enc_instance(2, &mut rng);
        assert!(inst.circuit.is_satisfied());
        assert_eq!(inst.ciphertext.blocks.len(), 2);
    }

    #[test]
    fn synthetic_circuit_hits_target_scale() {
        let mut rng = bench_rng();
        let c = synthetic_circuit(100, &mut rng);
        assert!(c.rows() >= 100 && c.rows() <= 256);
        assert!(c.is_satisfied());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(120)), "120.0ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(3.11)), "3.11s");
        assert_eq!(fmt_duration(Duration::from_secs(89)), "1min29s");
    }
}
