//! Micro-benchmarks for the substrates: field/curve/FFT/hash performance
//! that everything upstream inherits.
//!
//! ```text
//! cargo bench -p zkdet-bench --bench substrate
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zkdet_bench::bench_rng;
use zkdet_crypto::{Mimc, Poseidon};
use zkdet_curve::{fixed_base_batch_mul, msm, pairing, G1Affine, G1Projective, G2Affine};
use zkdet_field::{Field, Fr};
use zkdet_poly::EvaluationDomain;

fn bench_field(c: &mut Criterion) {
    let mut rng = bench_rng();
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    c.bench_function("fr_mul", |bench| bench.iter(|| std::hint::black_box(a) * b));
    c.bench_function("fr_inverse", |bench| {
        bench.iter(|| std::hint::black_box(a).inverse().unwrap())
    });
}

fn bench_curve(c: &mut Criterion) {
    let mut rng = bench_rng();
    let p = G1Projective::random(&mut rng);
    let s = Fr::random(&mut rng);
    c.bench_function("g1_scalar_mul", |bench| {
        bench.iter(|| std::hint::black_box(p) * s)
    });
    c.bench_function("pairing", |bench| {
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        bench.iter(|| pairing(std::hint::black_box(&g1), &g2))
    });

    let mut group = c.benchmark_group("msm");
    group.sample_size(10);
    // The two sizes the prover issues (2048- and 32768-row circuits), i.e.
    // the benchmark ladder's `curve.msm_2048.ms` / `curve.msm_32768.ms` rows.
    for n in [2048usize, 32768] {
        let logs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let bases: Vec<G1Affine> =
            G1Projective::batch_to_affine(&fixed_base_batch_mul(&G1Projective::generator(), &logs));
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| msm(&bases, &scalars))
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut rng = bench_rng();
    let mut group = c.benchmark_group("fft");
    group.sample_size(20);
    for log_n in [10u32, 14] {
        let n = 1usize << log_n;
        let domain = EvaluationDomain::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| domain.fft(&coeffs))
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut rng = bench_rng();
    let key = Fr::random(&mut rng);
    let block = Fr::random(&mut rng);
    let mimc = Mimc::new();
    c.bench_function("mimc_block", |bench| {
        bench.iter(|| mimc.encrypt_block(key, std::hint::black_box(block)))
    });
    c.bench_function("poseidon_hash_two", |bench| {
        bench.iter(|| Poseidon::hash_two(std::hint::black_box(key), block))
    });
}

criterion_group!(benches, bench_field, bench_curve, bench_fft, bench_hashes);
criterion_main!(benches);
