//! Terminal-state invariants shared by the chaos, Byzantine, and
//! crash-recovery suites.
//!
//! Every adversarial or fault-injected run of the key-secure exchange
//! must end in a state where:
//!
//! 1. the auction contract holds **zero escrow** — no funds are wedged;
//! 2. money moved **exactly once** (settled/aborted-after-settle) or
//!    **not at all** (refunded) between the two parties;
//! 3. the terminal [`ExchangeReport`] is internally consistent — settled
//!    runs carry the plaintext, refunded/aborted runs carry a reason;
//! 4. the provenance audit of the exchanged token still passes, so the
//!    lineage index and audit caches survived the disruption coherently;
//! 5. no **acknowledged publish is ever lost** while at most `n − k`
//!    storage nodes are faulty — every blob whose write quorum acked is
//!    still reconstructible, unless the adversary demonstrably exceeded
//!    the erasure fault budget (which the durability report exposes).

use rand::Rng;
use zkdet_chain::{Address, TokenId, Wei};
use zkdet_core::{ExchangeOutcome, ExchangeReport, Marketplace};

/// Initial balance [`Marketplace::register`] funds accounts with.
pub const INITIAL_BALANCE: Wei = 1_000_000_000;

/// Invariant 1: no escrow left behind in the auction contract.
pub fn assert_no_wedged_escrow(m: &Marketplace) {
    assert_eq!(
        m.chain.state.balance(&m.auction_addr),
        0,
        "auction contract must hold zero escrow in any terminal state"
    );
}

/// Invariant 2: for a two-party exchange where both sides started from
/// [`INITIAL_BALANCE`], a settled (or settled-then-aborted) run moved the
/// price exactly once buyer → seller, and a refunded run left both whole.
///
/// The price is derived from the seller's balance delta, then
/// cross-checked against the buyer's, so a double-settle or partial
/// refund is caught from either side.
pub fn assert_paid_exactly_once(
    m: &Marketplace,
    seller: Address,
    buyer: Address,
    outcome: &ExchangeOutcome,
) {
    let seller_balance = m.chain.state.balance(&seller);
    let buyer_balance = m.chain.state.balance(&buyer);
    match outcome {
        ExchangeOutcome::Refunded => {
            assert_eq!(
                buyer_balance, INITIAL_BALANCE,
                "refund must restore the buyer's full balance"
            );
            assert_eq!(
                seller_balance, INITIAL_BALANCE,
                "an unsettled seller earns nothing"
            );
        }
        // An abort happens strictly after settlement (the driver only
        // aborts on unrecoverable retrieval/decrypt failures once k_c is
        // published), so the payment stands in both cases.
        ExchangeOutcome::Settled | ExchangeOutcome::Aborted => {
            let price = seller_balance
                .checked_sub(INITIAL_BALANCE)
                .expect("settled seller must not have lost money");
            assert!(price > 0, "settlement must have paid the seller");
            assert_eq!(
                buyer_balance,
                INITIAL_BALANCE - price,
                "buyer must have paid the price exactly once"
            );
        }
    }
}

/// Invariant 3: the terminal report is internally consistent.
pub fn assert_terminal_consistent(report: &ExchangeReport) {
    match report.outcome {
        ExchangeOutcome::Settled => {
            assert!(report.data.is_some(), "settled runs must carry the data");
            assert!(report.failure.is_none(), "settled runs have no failure");
        }
        ExchangeOutcome::Refunded | ExchangeOutcome::Aborted => {
            assert!(report.data.is_none(), "failed runs must not leak data");
            assert!(
                report.failure.is_some(),
                "failed runs must say why they failed"
            );
        }
    }
}

/// Invariant 4: the provenance audit of `token` still passes, proving the
/// lineage index and audit caches were not corrupted by the disruption.
pub fn assert_audit_coherent<R: Rng + ?Sized>(m: &mut Marketplace, token: TokenId, rng: &mut R) {
    let report = m
        .audit_token(token, rng)
        .expect("post-run provenance audit must pass");
    assert!(
        report.verified_tokens.contains(&token),
        "audit must have re-verified the exchanged token"
    );
}

/// Invariant 5: no acknowledged publish is ever lost while at most
/// `n − k` storage nodes are faulty.
///
/// Every content the storage layer acknowledged as durably written must
/// still be reconstructible at the end of the run. The one escape hatch
/// is an adversary that *provably* exceeded the erasure fault budget —
/// [`zkdet_storage::DurabilityReport::recoverable`] returning `false`
/// (e.g. a test hook corrupting every replica at once) — which is outside
/// the contract the quorum makes.
pub fn assert_acked_publishes_durable(m: &Marketplace) {
    for cid in m.storage.acknowledged_publishes() {
        let Some(report) = m.storage.durability_report(&cid) else {
            continue; // unpinned since the ack — garbage collection is fine
        };
        if !report.recoverable() {
            continue; // adversary exceeded the n − k budget; out of contract
        }
        assert!(
            m.storage.retrieve(&cid).is_ok(),
            "acked publish {cid} with {}/{} intact shares must reconstruct",
            report.intact_shares,
            report.required_shares,
        );
    }
}

/// All terminal-state invariants at once — the standard epilogue of a
/// chaos, Byzantine, or crash-recovery run.
pub fn assert_exchange_invariants<R: Rng + ?Sized>(
    m: &mut Marketplace,
    seller: Address,
    buyer: Address,
    token: TokenId,
    report: &ExchangeReport,
    rng: &mut R,
) {
    assert_terminal_consistent(report);
    assert_no_wedged_escrow(m);
    assert_paid_exactly_once(m, seller, buyer, &report.outcome);
    assert_audit_coherent(m, token, rng);
    assert_acked_publishes_durable(m);
}
