//! `audit_lineage` — the third party's journey (§III-B / Fig. 3): audit a
//! token whose lineage was built by cycling aggregate → partition →
//! duplicate (fig_audit's construction), from a cold audit cache.
//!
//! Why it exists: it uses the same `plonk`/`kzg`/`curve` layers the other
//! way round — verification (pairings, fixed G1 multiplications, transcript,
//! storage reads, the `provenance` cache) instead of proving — so a
//! prover-side gain that costs small MSMs or pairings shows here. No proof
//! is generated in the timed region.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_chain::TokenId;
use zkdet_core::Marketplace;

use super::{at, ensure, random_dataset, single_op, Failure, Workload};
use crate::clock;
use crate::metrics::Metrics;
use crate::stats::OpSample;
use crate::trace::Tracer;

const MAX_CONSTRAINTS: usize = 1 << 13;
const STORAGE_NODES: usize = 8;
/// Each cycle appends four tokens (aggregate, two partitions, duplicate)
/// below the two originals: 10 mints in all.
const CYCLES: usize = 2;
/// Warm re-audits timed for `core.audit_token_warm.ms` in a traced run.
const WARM_AUDITS: usize = 20;

pub struct AuditLineage {
    market: Marketplace,
    tip: TokenId,
    /// Tokens an audit of `tip` must verify: the tip and all its ancestors.
    lineage_tokens: usize,
    /// Transformation proofs an audit of `tip` must check.
    lineage_edges: usize,
    /// Cache lookups of the timed (cold) audits.
    cold_hits: u64,
    cold_misses: u64,
    rng: StdRng,
}

impl AuditLineage {
    /// Audits the tip under `span` and checks the report against the
    /// lineage built in set-up.
    fn audit(&mut self, span: &'static str, tr: &mut Tracer) -> Result<(), Failure> {
        let (market, rng, tip) = (&mut self.market, &mut self.rng, self.tip);
        let report = tr
            .call(span, || market.audit_token(tip, rng))
            .map_err(at("audit_token"))?;
        ensure(
            report.verified_tokens.len() == self.lineage_tokens
                && report.transform_edges == self.lineage_edges,
            || {
                format!(
                    "audit verified {} tokens over {} edges; the lineage built has {} and {}",
                    report.verified_tokens.len(),
                    report.transform_edges,
                    self.lineage_tokens,
                    self.lineage_edges
                )
            },
        )
    }

    fn cache_lookups(&self) -> (u64, u64) {
        let cache = self.market.audit_cache();
        (cache.hits(), cache.misses())
    }
}

impl Workload for AuditLineage {
    const NAME: &'static str = "audit_lineage";

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, Failure> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = tr
            .call("core.bootstrap", || {
                Marketplace::bootstrap(MAX_CONSTRAINTS, STORAGE_NODES, &mut rng)
            })
            .map_err(at("bootstrap"))?;
        let mut owner = m.register();
        let first = random_dataset(1, 16, &mut rng);
        let second = random_dataset(1, 16, &mut rng);
        let mut x = tr
            .call("core.publish_original_cold", || {
                m.publish_original(&mut owner, first, &mut rng)
            })
            .map_err(at("publish_original"))?;
        let mut y = tr
            .call("core.publish_original", || {
                m.publish_original(&mut owner, second, &mut rng)
            })
            .map_err(at("publish_original"))?;
        let mut tip = x;
        for _ in 0..CYCLES {
            let agg = tr
                .call("core.aggregate", || {
                    m.aggregate(&mut owner, &[x, y], &mut rng)
                })
                .map_err(at("aggregate"))?;
            let parts = tr
                .call("core.partition", || {
                    m.partition(&mut owner, agg, &[1, 1], &mut rng)
                })
                .map_err(at("partition"))?;
            let dup = tr
                .call("core.duplicate", || {
                    m.duplicate(&mut owner, parts[0], &mut rng)
                })
                .map_err(at("duplicate"))?;
            x = dup;
            y = parts[1];
            tip = dup;
        }
        // Everything minted is an ancestor of the tip except the last
        // cycle's second partition; the audit checks one π_t per derived
        // token, i.e. per token that is not one of the two originals.
        let ancestors = m
            .chain
            .nft(&m.nft_addr)
            .and_then(|nft| nft.provenance(tip))
            .map_err(at("provenance"))?;
        ensure(ancestors.len() == 4 * CYCLES, || {
            format!("the chain records {} ancestors of the tip", ancestors.len())
        })?;
        let mut state = AuditLineage {
            market: m,
            tip,
            lineage_tokens: ancestors.len() + 1,
            lineage_edges: ancestors.len() + 1 - 2,
            cold_hits: 0,
            cold_misses: 0,
            rng,
        };
        // Untimed first audit: derives the verifying key of every circuit
        // shape in the lineage, so the timed audits compare verification,
        // not key derivation.
        tr.paused(|tr| state.audit("warm-up", tr))?;
        Ok(state)
    }

    fn op(&mut self, tr: &mut Tracer) -> OpSample {
        self.market.clear_audit_cache();
        let (hits0, misses0) = self.cache_lookups();
        let (wall_s, outcome) = tr.op(|tr| self.audit("core.audit_token_cold", tr));
        let (hits1, misses1) = self.cache_lookups();
        self.cold_hits += hits1 - hits0;
        self.cold_misses += misses1 - misses0;
        single_op(Self::NAME, wall_s, outcome)
    }

    fn finish(mut self, tr: &mut Tracer, layers: &mut Metrics) -> Result<(), Failure> {
        ensure(self.cold_misses > 0, || {
            "no timed audit missed the cache: nothing was verified".to_string()
        })?;
        if !tr.is_recording() {
            return Ok(());
        }
        // Per-layer numbers only this workload can supply: the provenance
        // cache's hit ratios and the warm re-audit.
        layers.set(
            "provenance.cache.hit_ratio_cold",
            self.cold_hits as f64 / (self.cold_hits + self.cold_misses) as f64,
        );
        let (hits0, misses0) = self.cache_lookups();
        for _ in 0..WARM_AUDITS {
            self.audit("core.audit_token_warm", tr)?;
        }
        let (hits1, misses1) = self.cache_lookups();
        let lookups = (hits1 - hits0) + (misses1 - misses0);
        ensure(lookups > 0, || {
            "warm audits never consulted the cache".to_string()
        })?;
        layers.set(
            "provenance.cache.hit_ratio_warm",
            (hits1 - hits0) as f64 / lookups as f64,
        );
        let t0 = clock::now();
        let digest = self.market.lineage_digest(self.tip);
        layers.set(
            "provenance.lineage_digest.us",
            clock::seconds_since(t0) * 1e6,
        );
        digest.map_err(at("lineage_digest"))?;
        layers.set("provenance.nodes", self.lineage_tokens as f64);
        Ok(())
    }
}
