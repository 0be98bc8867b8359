//! Retrieval resilience policy: bounded retries, exponential backoff on the
//! simulated clock, hedged share probes, and digest-mismatch quarantine.
//!
//! The policy is data, the mechanism lives in
//! [`crate::StorageNetwork::retrieve_resilient`]. On a fault-free network
//! the defaults cost nothing: the first attempt succeeds, no backoff is
//! taken and no hedge fires.

/// Knobs controlling how hard a retrieval fights infrastructure faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetrievalPolicy {
    /// Upper bound on full lookup attempts (≥ 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in simulated clock ticks;
    /// doubles per attempt.
    pub base_backoff_ticks: u64,
    /// Ceiling on a single backoff wait.
    pub max_backoff_ticks: u64,
    /// A share holder answering slower than this many ticks counts as a
    /// hedge: its share is held in reserve and used only if the faster
    /// holders do not reach `k`.
    pub hedge_latency_ticks: u64,
    /// Upper bound on the deterministic jitter added to each backoff
    /// wait. Zero (the default) keeps waits exactly exponential. The
    /// jitter is a PRF of the fault-plan seed and the request nonce,
    /// never ambient entropy, so crash-restart replays of the same
    /// schedule wait identical ticks.
    pub jitter_ticks: u64,
    /// Proceed with reconstruction when exactly `k` usable shares remain
    /// (zero redundancy margin). The read succeeds but is flagged
    /// `degraded` in [`crate::RetrievalStats`] and the blob is queued for
    /// repair.
    /// When `false`, a read at the bare minimum fails as transiently
    /// unavailable instead, for callers that would rather wait for repair
    /// than serve from the cliff edge.
    pub allow_degraded: bool,
}

impl Default for RetrievalPolicy {
    fn default() -> Self {
        RetrievalPolicy {
            max_attempts: 4,
            base_backoff_ticks: 2,
            max_backoff_ticks: 64,
            hedge_latency_ticks: 8,
            jitter_ticks: 0,
            allow_degraded: true,
        }
    }
}

impl RetrievalPolicy {
    /// One attempt, no backoff, no hedging — what
    /// [`crate::StorageNetwork::retrieve`] uses.
    pub fn single_shot() -> Self {
        RetrievalPolicy {
            max_attempts: 1,
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
            hedge_latency_ticks: u64::MAX,
            jitter_ticks: 0,
            allow_degraded: true,
        }
    }

    /// Backoff before retry number `attempt` (0-based: the wait taken
    /// after attempt 0 fails is `backoff_for(0)`), capped exponential.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        if self.base_backoff_ticks == 0 {
            return 0;
        }
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_backoff_ticks
            .saturating_mul(factor)
            .min(self.max_backoff_ticks)
    }

    /// [`Self::backoff_for`] plus a deterministic jitter in
    /// `[0, jitter_ticks]`, derived from `salt` — callers pass the
    /// fault-plan seed mixed with the request nonce — so every replay of
    /// the same schedule takes byte-identical waits.
    pub fn backoff_with_jitter(&self, attempt: u32, salt: u64) -> u64 {
        let base = self.backoff_for(attempt);
        if self.jitter_ticks == 0 || base == 0 {
            return base;
        }
        let roll = crate::fault::splitmix64(
            salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        base.saturating_add(roll % (self.jitter_ticks + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetrievalPolicy {
            max_attempts: 8,
            base_backoff_ticks: 2,
            max_backoff_ticks: 16,
            ..RetrievalPolicy::default()
        };
        assert_eq!(p.backoff_for(0), 2);
        assert_eq!(p.backoff_for(1), 4);
        assert_eq!(p.backoff_for(2), 8);
        assert_eq!(p.backoff_for(3), 16);
        assert_eq!(p.backoff_for(4), 16);
        assert_eq!(p.backoff_for(63), 16);
        assert_eq!(p.backoff_for(64), 16);
    }

    #[test]
    fn single_shot_never_waits() {
        let p = RetrievalPolicy::single_shot();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_for(0), 0);
    }

    #[test]
    fn zero_jitter_matches_plain_backoff() {
        let p = RetrievalPolicy::default();
        for attempt in 0..8 {
            for salt in [0u64, 1, 42, u64::MAX] {
                assert_eq!(p.backoff_with_jitter(attempt, salt), p.backoff_for(attempt));
            }
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetrievalPolicy {
            jitter_ticks: 5,
            ..RetrievalPolicy::default()
        };
        for attempt in 0..8 {
            for salt in 0..64u64 {
                let base = p.backoff_for(attempt);
                let w1 = p.backoff_with_jitter(attempt, salt);
                let w2 = p.backoff_with_jitter(attempt, salt);
                assert_eq!(w1, w2, "same (attempt, salt) must wait the same");
                assert!((base..=base + 5).contains(&w1), "wait {w1} out of bounds");
            }
        }
        // Different salts must actually vary the wait somewhere.
        let spread: std::collections::BTreeSet<u64> =
            (0..64u64).map(|s| p.backoff_with_jitter(0, s)).collect();
        assert!(spread.len() > 1, "jitter never varied");
    }

    #[test]
    fn single_shot_stays_inert_under_jitter() {
        let p = RetrievalPolicy {
            jitter_ticks: 7,
            ..RetrievalPolicy::single_shot()
        };
        assert_eq!(p.backoff_with_jitter(0, 123), 0);
    }
}
