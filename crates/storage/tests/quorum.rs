//! Integration tests for the Byzantine-quorum storage backend: ack-gated
//! publishes, degraded reads, share-level tamper attribution, read-repair,
//! and the deterministic repair scheduler.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use zkdet_storage::{FaultPlan, PinOwner, QuorumConfig, StorageError, StorageNetwork};

const BLOB: &[u8] = b"quorum-stored encrypted dataset: any k of n shares reconstruct me";

fn quorum_net(nodes: usize, plan: FaultPlan) -> StorageNetwork {
    StorageNetwork::with_quorum(nodes, QuorumConfig::for_cluster(nodes), plan)
}

#[test]
fn publish_spreads_shares_and_reads_reconstruct() {
    let net = quorum_net(8, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    // One share per node: all 8 nodes hold a piece.
    assert_eq!(net.replica_nodes(&cid).len(), 8);
    let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
    assert_eq!(&bytes[..], BLOB);
    assert!(!stats.degraded);
    assert_eq!(stats.quarantined, 0);
    let report = net.durability_report(&cid).unwrap();
    assert!(report.fully_redundant());
    assert_eq!(report.total_shares, 8);
    assert_eq!(report.required_shares, 4);
    assert_eq!(net.acknowledged_publishes(), vec![cid]);
}

#[test]
fn publish_without_write_quorum_is_rejected_and_rolled_back() {
    // 3 of 8 nodes are down from tick 0: only 5 < w = 6 can ack.
    let pre = quorum_net(8, FaultPlan::none());
    let ids = pre.node_ids();
    let mut plan = FaultPlan::seeded(5);
    for id in &ids[..3] {
        plan = plan.with_crash_at(*id, 0);
    }
    let net = quorum_net(8, plan);
    let err = net.publish(PinOwner(1), BLOB).unwrap_err();
    match err {
        StorageError::InsufficientAcks { acked, required, .. } => {
            assert_eq!(acked, 5);
            assert_eq!(required, 6);
        }
        other => panic!("expected InsufficientAcks, got {other:?}"),
    }
    // Rolled back: nothing acknowledged, nothing retrievable.
    assert!(net.acknowledged_publishes().is_empty());
    let cid = zkdet_storage::Cid::from_bytes(BLOB);
    assert!(net.replica_nodes(&cid).is_empty());
    assert!(matches!(
        net.retrieve(&cid),
        Err(StorageError::NotFound(_))
    ));
}

#[test]
fn ack_withholding_nodes_starve_the_write_quorum() {
    let pre = quorum_net(8, FaultPlan::none());
    let ids = pre.node_ids();
    let mut plan = FaultPlan::seeded(6);
    for id in &ids[..3] {
        plan = plan.with_ack_withholding(*id);
    }
    let net = quorum_net(8, plan);
    let err = net.publish(PinOwner(1), BLOB).unwrap_err();
    assert!(
        matches!(err, StorageError::InsufficientAcks { acked: 5, required: 6, .. }),
        "got {err:?}"
    );
    // Two withholders leave 6 ackers — exactly the quorum.
    let mut plan = FaultPlan::seeded(6);
    for id in &ids[..2] {
        plan = plan.with_ack_withholding(*id);
    }
    let net = quorum_net(8, plan);
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    assert_eq!(&net.retrieve(&cid).unwrap()[..], BLOB);
}

#[test]
fn publish_with_no_live_nodes_errors() {
    // A write that reached no live node must not be acknowledged, on a
    // cluster smaller than the 8/4/6 envelope too (5 nodes: w = 4).
    let pre = quorum_net(5, FaultPlan::none());
    let ids = pre.node_ids();
    let mut plan = FaultPlan::seeded(7);
    for id in &ids {
        plan = plan.with_crash_at(*id, 0);
    }
    let net = quorum_net(5, plan);
    let err = net.publish(PinOwner(1), BLOB).unwrap_err();
    assert!(
        matches!(err, StorageError::InsufficientAcks { acked: 0, required: 4, .. }),
        "got {err:?}"
    );
}

#[test]
fn every_cluster_size_round_trips_and_honours_its_fault_budget() {
    for nodes in [1usize, 2, 3, 5, 8, 12] {
        let cfg = QuorumConfig::for_cluster(nodes);
        let (k, n, w) = (cfg.data_shares(), cfg.total_shares(), cfg.write_quorum());
        let net = quorum_net(nodes, FaultPlan::none());
        let ids = net.node_ids();
        let cid = net.publish(PinOwner(1), BLOB).unwrap();
        assert_eq!(&net.retrieve(&cid).unwrap()[..], BLOB, "{nodes} nodes");
        let report = net.durability_report(&cid).unwrap();
        assert_eq!(
            (report.total_shares, report.required_shares),
            (n, k),
            "{nodes} nodes"
        );
        assert!(report.fully_redundant(), "{nodes} nodes");

        // Exactly n − k killed holders are survivable; one more is not.
        let holders = net.replica_nodes(&cid);
        assert_eq!(holders.len() as u32, n, "{nodes} nodes: one share per node");
        let budget = (n - k) as usize;
        for id in &holders[..budget] {
            net.kill_node(*id);
        }
        assert_eq!(&net.retrieve(&cid).unwrap()[..], BLOB, "{nodes} nodes at k shares");
        net.kill_node(holders[budget]);
        assert_eq!(
            net.retrieve(&cid),
            Err(StorageError::QuorumLoss {
                cid,
                intact: k - 1,
                required: k
            }),
            "{nodes} nodes past the budget"
        );

        // Fewer than w live nodes: rejected, and nothing is left behind.
        let mut plan = FaultPlan::seeded(nodes as u64);
        for id in &ids[..nodes + 1 - w as usize] {
            plan = plan.with_crash_at(*id, 0);
        }
        let starved = quorum_net(nodes, plan);
        let err = starved.publish(PinOwner(1), BLOB).unwrap_err();
        assert_eq!(
            err,
            StorageError::InsufficientAcks {
                cid,
                acked: w - 1,
                required: w
            },
            "{nodes} nodes"
        );
        assert!(starved.replica_nodes(&cid).is_empty(), "{nodes} nodes");
        assert!(starved.acknowledged_publishes().is_empty(), "{nodes} nodes");
    }
}

#[test]
fn reads_degrade_at_exactly_k_live_shares() {
    let net = quorum_net(8, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    // Kill n − k = 4 share holders: exactly k shares survive.
    let holders = net.replica_nodes(&cid);
    for id in &holders[..4] {
        net.kill_node(*id);
    }
    let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
    assert_eq!(&bytes[..], BLOB);
    assert!(stats.degraded, "read at exactly k shares must be flagged");
    // Losing one more share exceeds the fault budget.
    let survivors = net.replica_nodes(&cid);
    net.kill_node(survivors[0]);
    assert!(matches!(
        net.retrieve(&cid),
        Err(StorageError::QuorumLoss { intact: 3, required: 4, .. })
    ));
}

#[test]
fn byzantine_share_is_detected_attributed_and_routed_around() {
    let net = quorum_net(10, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    let villain = net.replica_nodes(&cid)[0];
    net.set_fault_plan(FaultPlan::seeded(11).with_byzantine_node(villain));
    let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
    assert_eq!(&bytes[..], BLOB, "honest shares must carry the read");
    assert!(stats.quarantined >= 1);
    assert!(net.quarantined_nodes().contains(&villain));
    // Share-level attribution: evidence names the node, content, and slot.
    let evidence = net.tamper_evidence();
    assert!(!evidence.is_empty());
    assert!(evidence
        .iter()
        .all(|e| e.node == villain && e.content == cid));
    assert!(evidence[0].share_index < 8);
}

#[test]
fn read_repair_restores_full_redundancy_after_churn() {
    let net = quorum_net(12, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    let holders = net.replica_nodes(&cid);
    net.kill_node(holders[0]);
    net.kill_node(holders[1]);
    assert!(net.pending_repairs() > 0, "churn must queue repairs");
    let before = net.durability_report(&cid).unwrap();
    assert!(before.recoverable() && !before.fully_redundant());
    let report = net.run_pending_repairs();
    assert_eq!(report.contents_repaired, 1);
    assert_eq!(report.shares_restored, 2);
    assert!(report.unrecoverable.is_empty());
    let after = net.durability_report(&cid).unwrap();
    assert!(after.fully_redundant(), "repair must restore all 8 slots");
    assert_eq!(net.pending_repairs(), 0);
    let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
    assert_eq!(&bytes[..], BLOB);
    assert!(!stats.degraded);
}

#[test]
fn repair_scheduler_is_clock_gated() {
    let net = quorum_net(12, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    net.kill_node(net.replica_nodes(&cid)[0]);
    // First tick fires immediately (nothing has ever run).
    let first = net.tick_repairs().expect("due at clock 0");
    assert_eq!(first.shares_restored, 1);
    // Re-damage and tick again without advancing the clock: not due yet.
    net.kill_node(net.replica_nodes(&cid)[0]);
    assert!(net.pending_repairs() > 0);
    assert!(net.tick_repairs().is_none(), "interval not yet elapsed");
    net.advance_clock(zkdet_storage::REPAIR_INTERVAL_TICKS);
    let second = net.tick_repairs().expect("due after the interval");
    assert_eq!(second.shares_restored, 1);
    assert!(net.durability_report(&cid).unwrap().fully_redundant());
}

#[test]
fn beyond_budget_loss_is_reported_unrecoverable() {
    let net = quorum_net(8, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    let holders = net.replica_nodes(&cid);
    for id in &holders[..5] {
        net.kill_node(*id); // 3 < k = 4 shares left
    }
    let report = net.run_pending_repairs();
    assert_eq!(report.unrecoverable, vec![cid]);
    assert!(!net.durability_report(&cid).unwrap().recoverable());
}

#[test]
fn full_scan_heals_damage_no_read_ever_saw() {
    let net = quorum_net(12, FaultPlan::none());
    let cid = net.publish(PinOwner(1), BLOB).unwrap();
    net.kill_node(net.replica_nodes(&cid)[0]);
    // Clear the queue the kill created, then prove the anti-entropy scan
    // rediscovers the damage on its own.
    let _ = net.run_pending_repairs();
    assert!(net.durability_report(&cid).unwrap().fully_redundant());
    net.kill_node(net.replica_nodes(&cid)[0]);
    let _ = net.run_pending_repairs(); // heals again via the kill hook
    net.schedule_repair_scan();
    let report = net.run_pending_repairs();
    assert_eq!(report.contents_repaired, 0, "scan of healthy blob is free");
}

#[test]
fn quorum_runs_replay_byte_identical_under_a_fixed_seed() {
    let run = || {
        let pre = quorum_net(10, FaultPlan::none());
        let ids = pre.node_ids();
        let plan = FaultPlan::seeded(4242)
            .with_global_drop(0.2)
            .with_byzantine_node(ids[3])
            .with_latency(ids[5], 20);
        let net = quorum_net(10, plan);
        let cid = net.publish(PinOwner(1), BLOB).unwrap();
        let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
        let repair = net.run_pending_repairs();
        (
            bytes.to_vec(),
            stats,
            net.now(),
            net.tamper_evidence(),
            repair,
            net.durability_report(&cid).unwrap(),
        )
    };
    assert_eq!(run(), run(), "same seed must replay byte-identically");
}
