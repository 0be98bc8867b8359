//! A failed read records the sweeps it made, not the sweep budget. Global
//! telemetry is process-wide, so this test has a binary of its own.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use zkdet_storage::{FaultPlan, PinOwner, QuorumConfig, StorageError, StorageNetwork};

fn counter(name: &str) -> u64 {
    zkdet_telemetry::global().registry.counter_value(name)
}

#[test]
fn a_quorum_loss_read_counts_one_attempt_and_one_failure() {
    let net = StorageNetwork::with_quorum(8, QuorumConfig::for_cluster(8), FaultPlan::none());
    let cid = net.publish(PinOwner(1), &b"lost past the fault budget"[..]).unwrap();
    // n = 8, k = 4: five dead holders leave three shares.
    for id in &net.replica_nodes(&cid)[..5] {
        net.kill_node(*id);
    }
    zkdet_telemetry::enable();
    let attempts = counter("zkdet.storage.retrieve.attempts");
    let failures = counter("zkdet.storage.retrieve.failures");
    let err = net.retrieve(&cid).unwrap_err();
    assert!(matches!(err, StorageError::QuorumLoss { .. }), "got {err:?}");
    assert_eq!(
        counter("zkdet.storage.retrieve.attempts") - attempts,
        1,
        "a definitive failure on the first sweep is one attempt"
    );
    assert_eq!(counter("zkdet.storage.retrieve.failures") - failures, 1);
}
