//! The deployment-wide proving-key registry, seen from outside the crate.
//!
//! `KeyGen` is a one-time cost per relation: after the first
//! `seller_validation_package` of a shape, every later one — for any
//! dataset of that shape — proves under the cached keys; shapes that
//! differ in any way preprocessing can see get keys of their own; and
//! because the registry lives and dies with its deployment, a load run
//! repeated in one process replays the first byte for byte, with the
//! schedule the parent commit produced.

use std::sync::{Arc, Mutex};

use rand::{rngs::StdRng, SeedableRng};
use zkdet_circuits::exchange::{RangePredicate, SumPredicate};
use zkdet_core::throughput::{run_load, LoadConfig};
use zkdet_core::{Dataset, Marketplace};
use zkdet_crypto::sha256::sha256;
use zkdet_field::Fr;
use zkdet_plonk::Plonk;

/// The first test reads the process-global `zkdet.plonk.preprocess.calls`
/// counter, so nothing else in this binary may preprocess meanwhile.
static PREPROCESS_COUNTER: Mutex<()> = Mutex::new(());

fn preprocess_calls() -> u64 {
    zkdet_telemetry::snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "zkdet.plonk.preprocess.calls")
        .map_or(0, |(_, v)| *v)
}

fn dataset(entries: &[u64]) -> Dataset {
    Dataset::from_entries(entries.iter().map(|e| Fr::from(*e)).collect())
}

#[test]
fn second_package_of_a_shape_preprocesses_nothing() {
    let _serial = PREPROCESS_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0xa11ce);
    let mut m = Marketplace::bootstrap(1 << 12, 4, &mut rng).unwrap();
    let mut seller = m.register();
    let first = m
        .publish_original(&mut seller, dataset(&[3, 500]), &mut rng)
        .unwrap();
    let second = m
        .publish_original(&mut seller, dataset(&[65_535, 0]), &mut rng)
        .unwrap();
    let predicate = RangePredicate { bits: 16 };

    zkdet_telemetry::enable();
    let before = preprocess_calls();
    let cold = m
        .seller_validation_package(&seller, first, predicate, &mut rng)
        .unwrap();
    let after_cold = preprocess_calls();
    let warm = m
        .seller_validation_package(&seller, second, predicate, &mut rng)
        .unwrap();
    let after_warm = preprocess_calls();
    zkdet_telemetry::disable();

    assert_eq!(
        after_cold - before,
        1,
        "the first package derives the shape's keys"
    );
    assert_eq!(after_warm - after_cold, 0, "the second must not preprocess");
    assert!(Arc::ptr_eq(&cold.vk, &warm.vk));
    assert_ne!(
        cold.publics, warm.publics,
        "different datasets, different c_d"
    );
    assert!(Plonk::verify(&warm.vk, &warm.publics, &warm.proof));
    assert!(!Plonk::verify(&warm.vk, &cold.publics, &warm.proof));
    assert_eq!(m.metrics().counter_value("zkdet.core.keys.miss.pi_p"), 1);
    assert_eq!(m.metrics().counter_value("zkdet.core.keys.hit.pi_p"), 1);
}

#[test]
fn shapes_that_differ_get_their_own_keys() {
    let _serial = PREPROCESS_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0xb0b);
    let mut m = Marketplace::bootstrap(1 << 12, 4, &mut rng).unwrap();
    let mut seller = m.register();
    let two = m
        .publish_original(&mut seller, dataset(&[10, 20]), &mut rng)
        .unwrap();
    let three = m
        .publish_original(&mut seller, dataset(&[10, 20, 12]), &mut rng)
        .unwrap();
    let shapes_before = m.key_registry().len();

    let base = m
        .seller_validation_package(&seller, two, RangePredicate { bits: 16 }, &mut rng)
        .unwrap();
    let longer = m
        .seller_validation_package(&seller, three, RangePredicate { bits: 16 }, &mut rng)
        .unwrap();
    let narrower = m
        .seller_validation_package(&seller, two, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    let sum = m
        .seller_validation_package(
            &seller,
            two,
            SumPredicate {
                total: Fr::from(30u64),
            },
            &mut rng,
        )
        .unwrap();

    assert_eq!(m.key_registry().len(), shapes_before + 4);
    assert_eq!(m.metrics().counter_value("zkdet.core.keys.miss.pi_p"), 4);
    let others = [&longer, &narrower, &sum];
    for (i, other) in others.iter().enumerate() {
        assert!(
            Plonk::verify(&other.vk, &other.publics, &other.proof),
            "package {i}"
        );
        assert_ne!(
            base.vk.to_bytes(),
            other.vk.to_bytes(),
            "package {i} aliases the base key"
        );
        assert!(
            !Plonk::verify(&other.vk, &base.publics, &base.proof),
            "the base proof passed under package {i}'s key"
        );
        assert!(
            !Plonk::verify(&base.vk, &other.publics, &other.proof),
            "package {i}'s proof passed under the base key"
        );
    }
    assert!(Plonk::verify(&base.vk, &base.publics, &base.proof));
}

/// `run_load(&LoadConfig::small(7))` at the commit before the registry.
const PARENT_SCHEDULE_DIGEST: u64 = 0xa79e_2a4f_cbe3_73c5;
const PARENT_TICKS: u64 = 1924;
const PARENT_STEPS: u64 = 3597;
const PARENT_JOBS_RUN: u64 = 17;
const PARENT_BUSY_TICKS: u64 = 10_196;
/// SHA-256 over schedule log ‖ journals ‖ timelines of the same run, since
/// the exchange journal stopped writing completion records (the chain
/// holds those facts). The schedule above is unchanged; only the journals
/// and the timelines folded from them lost the completion frames.
const PARENT_REPLAY_SHA256: &str =
    "0c2bc6f6927257c6de52be85279ad3cb6ec1fd9ab4ff1c167fae5310f678269a";

#[test]
fn repeated_load_runs_replay_the_parent_schedule() {
    let _serial = PREPROCESS_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let first = run_load(&LoadConfig::small(7)).unwrap();
    // A process-global key cache would let this run skip the π_p
    // preprocessing job and drift from the first.
    let second = run_load(&LoadConfig::small(7)).unwrap();
    assert_eq!(first.replay, second.replay);
    for run in [&first, &second] {
        assert!(
            run.invariant_failures.is_empty(),
            "{:?}",
            run.invariant_failures
        );
        assert_eq!(run.schedule_digest, PARENT_SCHEDULE_DIGEST);
        assert_eq!(run.summary.ticks, PARENT_TICKS);
        assert_eq!(run.summary.steps, PARENT_STEPS);
        assert_eq!(run.summary.jobs_run, PARENT_JOBS_RUN);
        assert_eq!(run.summary.busy_ticks, PARENT_BUSY_TICKS);
    }
    let mut bytes = first.replay.schedule_log.clone();
    for journal in &first.replay.journals {
        bytes.extend_from_slice(journal);
    }
    for timeline in &first.replay.timelines {
        bytes.extend_from_slice(timeline.as_bytes());
    }
    let hex: String = sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, PARENT_REPLAY_SHA256);
}
