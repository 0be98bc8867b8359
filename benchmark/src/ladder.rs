//! The per-layer "ladder": every lower layer's public functions timed from
//! outside, at the shapes the workloads use (2048-row and 32768-row
//! circuits, a 32776-power SRS, the 4n = 131072 quotient domain, 1 KiB
//! blobs on the 4-of-8 quorum). A traced run of any workload runs the whole
//! ladder once, so every per-layer metric has a value in every traced run
//! and a layer's row can be compared across workloads' traces.
//!
//! Each row is the median of a few repetitions (one for the multi-second
//! rows); inputs derive from the seed; results that can be checked are.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkdet_chain::{Address, Blockchain, TokenMeta, TransformKind};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_circuits::{EncryptionCircuit, KeyNegotiationCircuit, ValidationCircuit};
use zkdet_crypto::{sha256, CommitmentScheme, MimcCtr, Poseidon};
use zkdet_curve::{
    fixed_base_batch_mul, msm, multi_pairing, pairing, G1Affine, G1Projective, G2Affine,
};
use zkdet_field::{Field, Fr, PrimeField};
use zkdet_kzg::Srs;
use zkdet_plonk::{CompiledCircuit, Plonk, Proof, VerifyingKey};
use zkdet_poly::{DensePolynomial, EvaluationDomain};
use zkdet_storage::{Cid, ErasureCodec, FaultPlan, PinOwner, QuorumConfig, StorageNetwork};
use zkdet_wal::Wal;

use crate::clock;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::{at, ensure, Failure};

const SMALL_N: usize = 2048;
const LARGE_N: usize = 32768;
/// `Marketplace::bootstrap(1 << 15, …)` sets up `max_constraints + 8` powers.
const SRS_DEGREE: usize = LARGE_N + 8;
const STORAGE_NODES: usize = 8;

/// Runs `f` `reps` times (at least once); returns the median wall seconds
/// and the last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut once = || {
        let t0 = clock::now();
        let out = black_box(f());
        (clock::seconds_since(t0), out)
    };
    let (first, mut out) = once();
    let mut walls = vec![first];
    for _ in 1..reps {
        let (wall_s, next) = once();
        walls.push(wall_s);
        out = next;
    }
    (median(&walls).unwrap_or(first), out)
}

fn random_scalars(n: usize, rng: &mut StdRng) -> Vec<Fr> {
    (0..n).map(|_| Fr::random(rng)).collect()
}

fn random_bytes(n: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}

/// Runs the ladder and records every row in `m`.
pub fn run(seed: u64, m: &mut Metrics) -> Result<(), Failure> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001a_dde4);
    field(m, &mut rng);
    curve(m, &mut rng);
    poly(m, &mut rng)?;
    let srs = kzg(m, &mut rng)?;
    crypto(m, &mut rng);
    let keyneg = plonk_and_circuits(m, &srs, &mut rng)?;
    storage(m, &mut rng)?;
    chain(m, &keyneg)?;
    wal(m, &mut rng)
}

fn field(m: &mut Metrics, rng: &mut StdRng) {
    const MULS: usize = 1_000_000;
    const INVERSIONS: usize = 2_000;
    let (a, b) = (Fr::random(rng), Fr::random(rng));
    let (wall_s, _) = timed(3, || {
        let mut acc = black_box(a);
        for _ in 0..MULS {
            acc *= b;
        }
        acc
    });
    m.set("field.fr_mul.ns", wall_s * 1e9 / MULS as f64);
    let (wall_s, _) = timed(3, || {
        let mut acc = black_box(a);
        for _ in 0..INVERSIONS {
            acc = acc.inverse().unwrap_or(b) + b;
        }
        acc
    });
    m.set("field.fr_inverse.ns", wall_s * 1e9 / INVERSIONS as f64);
    let elems = random_scalars(LARGE_N, rng);
    let (wall_s, _) = timed(5, || {
        let mut batch = elems.clone();
        Fr::batch_inverse(&mut batch);
        batch
    });
    m.set("field.batch_inverse_32768.us", wall_s * 1e6);
}

fn curve(m: &mut Metrics, rng: &mut StdRng) {
    let scalars = random_scalars(SRS_DEGREE, rng);
    let g1 = G1Projective::generator();
    let (wall_s, points) = timed(1, || fixed_base_batch_mul(&g1, &scalars));
    m.set("curve.fixed_base_batch_mul_32776.ms", wall_s * 1e3);
    // The SRS powers are private to `kzg`, so the MSM rows run over the
    // fixed-base row's products: as many random-looking points, for free.
    let bases: Vec<G1Affine> = G1Projective::batch_to_affine(&points);

    let (wall_s, _) = timed(2, || msm(&bases[..LARGE_N], &scalars[..LARGE_N]));
    m.set("curve.msm_32768.ms", wall_s * 1e3);
    let (wall_s, _) = timed(5, || msm(&bases[..SMALL_N], &scalars[..SMALL_N]));
    m.set("curve.msm_2048.ms", wall_s * 1e3);

    const MULS: usize = 100;
    let (wall_s, _) = timed(3, || {
        let mut acc = black_box(points[0]);
        for s in &scalars[..MULS] {
            acc = acc * *s;
        }
        acc
    });
    m.set("curve.g1_mul.us", wall_s * 1e6 / MULS as f64);

    let (p, q) = (bases[1], G2Affine::generator());
    let (wall_s, _) = timed(5, || pairing(black_box(&p), &q));
    m.set("curve.pairing.ms", wall_s * 1e3);
    let pairs = [(bases[1], q), (bases[2], q)];
    let (wall_s, _) = timed(5, || multi_pairing(black_box(&pairs)));
    m.set("curve.multi_pairing_2.ms", wall_s * 1e3);
}

fn poly(m: &mut Metrics, rng: &mut StdRng) -> Result<(), Failure> {
    let coeffs = random_scalars(LARGE_N, rng);
    let domain = |n| EvaluationDomain::new(n).ok_or(format!("poly: no evaluation domain of {n}"));
    let (small, large, quotient) = (domain(SMALL_N)?, domain(LARGE_N)?, domain(4 * LARGE_N)?);
    let (wall_s, _) = timed(20, || small.fft(&coeffs[..SMALL_N]));
    m.set("poly.fft_2048.us", wall_s * 1e6);
    let (wall_s, evals) = timed(3, || large.fft(&coeffs));
    m.set("poly.fft_32768.ms", wall_s * 1e3);
    let (wall_s, back) = timed(3, || large.ifft(&evals));
    m.set("poly.ifft_32768.ms", wall_s * 1e3);
    ensure(back == coeffs, || {
        "poly: ifft(fft(p)) differs from p".to_string()
    })?;
    // The prover extends degree-n polynomials onto the 4n coset.
    let (wall_s, _) = timed(3, || quotient.coset_fft(&coeffs));
    m.set("poly.coset_fft_131072.ms", wall_s * 1e3);
    Ok(())
}

fn kzg(m: &mut Metrics, rng: &mut StdRng) -> Result<Srs, Failure> {
    let (wall_s, srs) = timed(1, || Srs::universal_setup(SRS_DEGREE, rng));
    m.set("kzg.universal_setup_32776.ms", wall_s * 1e3);
    let small = DensePolynomial::random(SMALL_N - 1, rng);
    let large = DensePolynomial::random(LARGE_N - 1, rng);
    let (wall_s, _) = timed(5, || srs.commit(&small));
    m.set("kzg.commit_2048.ms", wall_s * 1e3);
    let (wall_s, commitment) = timed(2, || srs.commit(&large));
    m.set("kzg.commit_32768.ms", wall_s * 1e3);
    let z = Fr::random(rng);
    let (wall_s, (y, opening)) = timed(1, || srs.open(&large, &z));
    m.set("kzg.open_32768.ms", wall_s * 1e3);
    let (wall_s, ok) = timed(5, || srs.verify(&commitment, &z, &y, &opening));
    m.set("kzg.verify.ms", wall_s * 1e3);
    ensure(ok, || "kzg: an honest opening did not verify".to_string())?;
    ensure(
        !srs.verify(&commitment, &z, &(y + Fr::ONE), &opening),
        || "kzg: a wrong evaluation verified".to_string(),
    )?;
    Ok(srs)
}

fn crypto(m: &mut Metrics, rng: &mut StdRng) {
    let blocks = random_scalars(32, rng);
    let cipher = MimcCtr::new(Fr::random(rng), Fr::random(rng));
    let (wall_s, _) = timed(20, || cipher.encrypt(black_box(&blocks)));
    m.set("crypto.mimc_encrypt_32.us", wall_s * 1e6);
    let (wall_s, _) = timed(20, || CommitmentScheme::commit(black_box(&blocks), rng));
    m.set("crypto.poseidon_commit_32.us", wall_s * 1e6);
    let kib = random_bytes(1024, rng);
    let (wall_s, _) = timed(200, || sha256(black_box(&kib)));
    m.set("crypto.sha256_1k.us", wall_s * 1e6);
}

/// What the chain rows need from the π_k relation.
struct KeyNegotiation {
    vk: VerifyingKey,
    proof: Proof,
    k_c: Fr,
    key_commitment: Fr,
    h_v: Fr,
}

/// Preprocesses `circuit` once and proves it `prove_reps` times; returns the
/// two timings, the verifying key and the last proof.
fn preprocess_and_prove(
    srs: &Srs,
    circuit: &CompiledCircuit,
    prove_reps: usize,
    rng: &mut StdRng,
) -> Result<(f64, f64, VerifyingKey, Proof), Failure> {
    let (preprocess_s, keys) = timed(1, || Plonk::preprocess(srs, circuit));
    let (pk, vk) = keys.map_err(at("Plonk::preprocess"))?;
    let (prove_s, proof) = timed(prove_reps, || Plonk::prove(&pk, circuit, rng));
    let proof = proof.map_err(at("Plonk::prove"))?;
    Ok((preprocess_s, prove_s, vk, proof))
}

fn plonk_and_circuits(
    m: &mut Metrics,
    srs: &Srs,
    rng: &mut StdRng,
) -> Result<KeyNegotiation, Failure> {
    // π_p over a 2-entry dataset with a 16-bit range predicate: 2048 rows.
    let entries: Vec<Fr> = (0..2)
        .map(|_| Fr::from(rng.gen_range(0..1u64 << 16)))
        .collect();
    let (c_d, o_d) = CommitmentScheme::commit(&entries, rng);
    let validation = ValidationCircuit::new(entries.len(), RangePredicate { bits: 16 });
    let (wall_s, circuit) = timed(5, || validation.synthesize(&entries, &c_d, &o_d));
    m.set("circuits.synthesize_validation_2.ms", wall_s * 1e3);
    let (preprocess_s, prove_s, vk, proof) = preprocess_and_prove(srs, &circuit, 2, rng)?;
    ensure(vk.n == SMALL_N, || {
        format!("π_p pads to {} rows, not {SMALL_N}", vk.n)
    })?;
    ensure(
        Plonk::verify(&vk, &validation.public_inputs(&c_d), &proof),
        || "plonk: an honest π_p did not verify".to_string(),
    )?;
    m.set("plonk.preprocess_2048.ms", preprocess_s * 1e3);
    m.set("plonk.prove_2048.ms", prove_s * 1e3);

    // π_k: the fixed-shape key-negotiation relation.
    let (k, k_v) = (Fr::random(rng), Fr::random(rng));
    let (c, o) = CommitmentScheme::commit_scalar(k, rng);
    let (wall_s, circuit) = timed(5, || KeyNegotiationCircuit.synthesize(k, k_v, &c, &o));
    m.set("circuits.synthesize_keyneg.ms", wall_s * 1e3);
    let (_, prove_s, keyneg_vk, keyneg_proof) = preprocess_and_prove(srs, &circuit, 2, rng)?;
    m.set("plonk.prove_keyneg.ms", prove_s * 1e3);
    let h_v = Poseidon::hash(&[k_v]);
    let keyneg = KeyNegotiation {
        vk: keyneg_vk,
        proof: keyneg_proof,
        k_c: k + k_v,
        key_commitment: c.0,
        h_v,
    };

    // π_e over 32 blocks: 32768 rows.
    let plaintext = random_scalars(32, rng);
    let (key, nonce) = (Fr::random(rng), Fr::random(rng));
    let ciphertext = MimcCtr::new(key, nonce).encrypt(&plaintext);
    let (c_d, o_d) = CommitmentScheme::commit(&plaintext, rng);
    let encryption = EncryptionCircuit::new(plaintext.len());
    let (wall_s, circuit) = timed(2, || {
        encryption.synthesize(&plaintext, key, &ciphertext, &c_d, &o_d)
    });
    m.set("circuits.synthesize_enc_32.ms", wall_s * 1e3);
    let (preprocess_s, prove_s, vk, proof) = preprocess_and_prove(srs, &circuit, 1, rng)?;
    ensure(vk.n == LARGE_N, || {
        format!("π_e pads to {} rows, not {LARGE_N}", vk.n)
    })?;
    m.set("plonk.preprocess_32768.ms", preprocess_s * 1e3);
    m.set("plonk.prove_32768.ms", prove_s * 1e3);
    m.set("plonk.proof_bytes", proof.to_bytes().len() as f64);

    let publics = encryption.public_inputs(&ciphertext, &c_d);
    let (wall_s, ok) = timed(5, || Plonk::verify(&vk, &publics, &proof));
    m.set("plonk.verify.ms", wall_s * 1e3);
    ensure(ok, || "plonk: an honest π_e did not verify".to_string())?;
    let mut altered = proof.clone();
    altered.a_eval += Fr::ONE;
    ensure(!Plonk::verify(&vk, &publics, &altered), || {
        "plonk: an altered π_e verified".to_string()
    })?;
    let batch: Vec<(&VerifyingKey, &[Fr], &Proof)> =
        (0..16).map(|_| (&vk, publics.as_slice(), &proof)).collect();
    let (wall_s, ok) = timed(2, || Plonk::batch_verify(&batch, rng));
    m.set("plonk.batch_verify_16.ms", wall_s * 1e3);
    ensure(ok, || "plonk: an honest batch did not verify".to_string())?;
    Ok(keyneg)
}

fn storage(m: &mut Metrics, rng: &mut StdRng) -> Result<(), Failure> {
    const BLOBS: usize = 20;
    let quorum = QuorumConfig::for_cluster(STORAGE_NODES);
    let net = StorageNetwork::with_quorum(STORAGE_NODES, quorum, FaultPlan::none());
    let blobs: Vec<Vec<u8>> = (0..BLOBS).map(|_| random_bytes(1024, rng)).collect();

    let mut next = blobs.iter();
    let (wall_s, _) = timed(BLOBS, || {
        next.next()
            .map(|blob| net.publish(PinOwner(1), blob.as_slice()))
    });
    m.set("storage.publish_1k.us", wall_s * 1e6);
    let cids: Vec<Cid> = blobs.iter().map(|b| Cid::from_bytes(b)).collect();

    let retrieve_all = |what: &str| -> Result<f64, Failure> {
        let mut next = cids.iter().zip(&blobs);
        let (wall_s, all_match) = timed(BLOBS, || {
            next.next()
                .is_some_and(|(cid, blob)| net.retrieve(cid).is_ok_and(|got| got[..] == blob[..]))
        });
        ensure(all_match, || {
            format!("storage: a {what} read lost or altered a blob")
        })?;
        Ok(wall_s)
    };
    m.set("storage.retrieve_1k.us", retrieve_all("healthy")? * 1e6);
    // Kill as many nodes as the quorum tolerates (n − k): every read must
    // now reconstruct from parity.
    let tolerated = (quorum.total_shares() - quorum.data_shares()) as usize;
    for id in net.node_ids().into_iter().take(tolerated) {
        net.kill_node(id);
    }
    m.set(
        "storage.retrieve_degraded_1k.us",
        retrieve_all("degraded")? * 1e6,
    );

    let (k, n) = (
        quorum.data_shares() as usize,
        quorum.total_shares() as usize,
    );
    let codec = ErasureCodec::new(k, n).map_err(at("ErasureCodec::new"))?;
    let data = random_bytes(64 * 1024, rng);
    let (wall_s, shares) = timed(5, || codec.encode(&data));
    m.set("storage.erasure_encode_64k.us", wall_s * 1e6);
    // Worst case: only parity shares survive.
    let parity: Vec<(usize, &Vec<u8>)> = shares.iter().enumerate().skip(n - k).collect();
    let (wall_s, rebuilt) = timed(5, || codec.reconstruct(&parity, data.len()));
    m.set("storage.erasure_reconstruct_64k.us", wall_s * 1e6);
    ensure(rebuilt.is_ok_and(|bytes| bytes == data), || {
        "storage: erasure reconstruction from parity differs from the data".to_string()
    })
}

fn chain(m: &mut Metrics, keyneg: &KeyNegotiation) -> Result<(), Failure> {
    const ROUNDS: usize = 8;
    const PRICE: zkdet_chain::Wei = 1_000;
    let (operator, seller, buyer) = (
        Address::from_seed(0),
        Address::from_seed(1),
        Address::from_seed(2),
    );
    let mut chain = Blockchain::new();
    for who in [operator, seller, buyer] {
        chain.state.fund(who, 1_000_000_000);
    }
    let (nft, _) = chain.deploy_nft(operator);
    let (auction, _) = chain.deploy_auction(operator);
    let (verifier, _) = chain.deploy_verifier(operator, keyneg.vk.clone());
    chain.mine_block();

    let (mut mint, mut lock, mut settle, mut mine) = (vec![], vec![], vec![], vec![]);
    let mut gas = [0u64; 4];
    for round in 0..ROUNDS {
        let meta = TokenMeta {
            cid: Cid::from_bytes(&round.to_le_bytes()),
            commitment: Fr::from(round as u64),
            prev_ids: vec![],
            kind: TransformKind::Original,
            proof_cid: None,
        };
        let t0 = clock::now();
        let minted = chain.nft_mint(nft, seller, meta);
        mint.push(clock::seconds_since(t0));
        let (token, mint_receipt) = minted.map_err(at("nft_mint"))?;

        let (listing, create_receipt) = chain
            .auction_create(
                auction,
                nft,
                seller,
                token,
                PRICE,
                PRICE,
                0,
                keyneg.key_commitment,
                "ladder".into(),
            )
            .map_err(at("auction_create"))?;

        let t0 = clock::now();
        let locked = chain.auction_lock(auction, buyer, listing, PRICE, keyneg.h_v);
        lock.push(clock::seconds_since(t0));
        let lock_receipt = locked.map_err(at("auction_lock"))?;

        let t0 = clock::now();
        let settled = chain.auction_settle_key_secure(
            auction,
            nft,
            verifier,
            seller,
            listing,
            keyneg.k_c,
            &keyneg.proof,
        );
        settle.push(clock::seconds_since(t0));
        let settle_receipt = settled.map_err(at("auction_settle_key_secure"))?;

        let t0 = clock::now();
        black_box(chain.mine_block());
        mine.push(clock::seconds_since(t0));
        gas = [
            mint_receipt.gas_used,
            create_receipt.gas_used,
            lock_receipt.gas_used,
            settle_receipt.gas_used,
        ];
    }
    let escrow = chain.state.balance(&auction);
    ensure(escrow == 0, || {
        format!("chain: {escrow} left in escrow after settling")
    })?;

    let med = |walls: &[f64]| median(walls).unwrap_or(0.0);
    m.set("chain.nft_mint.us", med(&mint) * 1e6);
    m.set("chain.auction_lock.us", med(&lock) * 1e6);
    m.set("chain.auction_settle_key_secure.ms", med(&settle) * 1e3);
    m.set("chain.mine_block.us", med(&mine) * 1e6);
    // Steady-state gas: the last round's receipts (storage slots warm).
    m.set("chain.gas.mint", gas[0] as f64);
    m.set("chain.gas.create", gas[1] as f64);
    m.set("chain.gas.lock", gas[2] as f64);
    m.set("chain.gas.settle", gas[3] as f64);
    Ok(())
}

fn wal(m: &mut Metrics, rng: &mut StdRng) -> Result<(), Failure> {
    const RECORDS: usize = 1_000;
    let payload = random_bytes(256, rng);
    let mut wal = Wal::new();
    let t0 = clock::now();
    for _ in 0..RECORDS {
        wal.append(&payload).map_err(at("Wal::append"))?;
    }
    m.set(
        "wal.append_256b.us",
        clock::seconds_since(t0) * 1e6 / RECORDS as f64,
    );
    let (wall_s, records) = timed(5, || wal.replay());
    let records = records.map_err(at("Wal::replay"))?;
    ensure(
        records.len() == RECORDS && records.iter().all(|r| r.payload == payload),
        || "wal: replay did not return what was appended".to_string(),
    )?;
    m.set("wal.replay.us_per_record", wall_s * 1e6 / RECORDS as f64);
    Ok(())
}
