//! A full data-marketplace lifecycle (paper §III + §IV):
//!
//! 1. two providers publish sensor datasets;
//! 2. an integrator buys nothing — she *aggregates* her own data, then
//!    partitions and duplicates, building a provenance DAG;
//! 3. a buyer audits the lineage from public data alone;
//! 4. the integrator sells the aggregate through the key-secure two-phase
//!    exchange; balances and ownership move correctly and the decryption
//!    key never touches the chain.
//!
//! ```text
//! cargo run --release -p zkdet-examples --bin data_marketplace
//! ```

#![forbid(unsafe_code)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::Marketplace;
use zkdet_examples::{banner, readings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    zkdet_telemetry::enable();
    let mut rng = StdRng::seed_from_u64(7);
    let mut market = Marketplace::bootstrap(1 << 14, 12, &mut rng)?;

    banner("providers publish");
    let mut integrator = market.register();
    let t_temp = market.publish_original(&mut integrator, readings(&[21, 22, 23]), &mut rng)?;
    let t_humid = market.publish_original(&mut integrator, readings(&[55, 61]), &mut rng)?;
    println!("temperature dataset → token {t_temp}");
    println!("humidity dataset    → token {t_humid}");

    banner("transformations (each minted with π_t)");
    let t_agg = market.aggregate(&mut integrator, &[t_temp, t_humid], &mut rng)?;
    println!("aggregate(temp, humid)      → token {t_agg}");
    let t_dup = market.duplicate(&mut integrator, t_agg, &mut rng)?;
    println!("duplicate(aggregate)        → token {t_dup}");
    let parts = market.partition(&mut integrator, t_dup, &[3, 2], &mut rng)?;
    println!("partition(duplicate, [3,2]) → tokens {}, {}", parts[0], parts[1]);

    banner("provenance (indexed transformation DAG)");
    let prov = market
        .chain
        .nft(&market.nft_addr)?
        .provenance(parts[0])?;
    println!("ancestors of {}: {prov:?}", parts[0]);
    print!("{}", market.provenance_tree(parts[0])?);
    println!(
        "lineage digest of {}: {:?}",
        parts[0],
        market.lineage_digest(parts[0])?
    );

    banner("third-party audit of the whole lineage");
    let report = market.audit_token(parts[0], &mut rng)?;
    println!(
        "✓ {} tokens verified, {} transformation proofs checked",
        report.verified_tokens.len(),
        report.transform_edges
    );
    // Re-audit: the audit cache remembers every verified (token, proof,
    // vk, statement) tuple, so the second pass does no pairing work.
    let again = market.audit_token(parts[0], &mut rng)?;
    assert_eq!(report, again);
    let cache = market.audit_cache();
    println!(
        "✓ re-audit served from the audit cache: {} hits / {} misses ({:.0}% hit rate)",
        cache.hits(),
        cache.misses(),
        cache.hit_rate() * 100.0
    );

    banner("key-secure sale of the aggregate");
    let mut buyer = market.register();
    let listing = market.list_for_sale(
        &integrator,
        t_agg,
        1_000_000,
        400_000,
        50_000,
        "all readings < 2^16".into(),
        &mut rng,
    )?;
    println!(
        "listed token {t_agg} — clock price starts at 1,000,000 wei, floor 400,000"
    );
    // Let the clock tick.
    market.chain.mine_block();
    market.chain.mine_block();

    let package = market.seller_validation_package(
        &integrator,
        t_agg,
        RangePredicate { bits: 16 },
        &mut rng,
    )?;
    println!("seller produced π_p; buyer verifies it off-chain…");
    let session = market.buyer_validate_and_lock(&buyer, listing.listing, &package, &mut rng)?;
    println!("buyer locked {} wei with h_v = H(k_v)", session.price);

    let seller_before = market.chain.state.balance(&integrator.address);
    market.seller_settle(&integrator, &listing, session.k_v_message(), &mut rng)?;
    let seller_after = market.chain.state.balance(&integrator.address);
    println!(
        "seller settled with (k_c, π_k): +{} wei",
        seller_after - seller_before
    );

    let recovered = market.buyer_recover(&mut buyer, &session)?;
    println!(
        "buyer recovered {} plaintext entries; token {t_agg} now owned by {}",
        recovered.len(),
        market.chain.nft(&market.nft_addr)?.owner_of(t_agg)?
    );
    assert!(market.leaked_key(listing.listing).is_none());
    println!("✓ no decryption key ever appeared on-chain");

    banner("gas accounting for this run");
    let mut total = 0u64;
    for block in market.chain.blocks() {
        for r in &block.receipts {
            total += r.gas_used;
            println!("  {:>9} gas — {}", r.gas_used, r.action);
        }
    }
    println!("  {total:>9} gas total");

    banner("retrieval robustness counters");
    let rb = market.robustness();
    println!(
        "  {} storage retrievals in {} lookup attempts",
        rb.retrievals, rb.attempts
    );
    println!(
        "  {} hedged replica probes, {} replicas quarantined, {} ticks in backoff",
        rb.hedges, rb.quarantined, rb.backoff_ticks
    );
    println!(
        "  {} degraded quorum reads, {} erasure shares re-placed by repair",
        rb.degraded_reads, rb.repaired_shares
    );
    if let Some((_, lat)) = market
        .metrics()
        .histograms_snapshot()
        .into_iter()
        .find(|(name, _)| name == "zkdet.storage.retrieve.latency_us")
    {
        // An empty histogram has no quantiles; skip the line rather than
        // print a fabricated zero latency.
        if let (Some(p50), Some(p99)) = (lat.quantile(0.50), lat.quantile(0.99)) {
            println!(
                "  retrieval latency over {} fetches: p50 ≤ {p50} µs, p99 ≤ {p99} µs",
                lat.count,
            );
        }
    }

    // Was an operation slow because it derived a proving key? One line per
    // relation: registry hits and misses, then the preprocess calls behind
    // the misses.
    for (name, count) in market.metrics().counters_snapshot() {
        if let Some(rest) = name.strip_prefix("zkdet.core.keys.") {
            println!("  key registry {rest}: {count}");
        }
    }
    let snap = zkdet_telemetry::snapshot();
    if let Some((_, calls)) = snap
        .counters
        .iter()
        .find(|(name, _)| name == "zkdet.plonk.preprocess.calls")
    {
        println!(
            "  {calls} Plonk::preprocess calls for {} shapes in the registry",
            market.key_registry().len()
        );
    }

    banner("telemetry: metrics summary for this run");
    print!(
        "{}",
        zkdet_telemetry::render_summary(&snap.counters, &snap.histograms)
    );

    banner("telemetry: span tree of the key-secure exchange");
    // The exchange spans (and everything nested under them: prover rounds,
    // KZG openings, storage retrievals) form subtrees rooted at exchange.*.
    let mut keep = std::collections::HashSet::new();
    let exchange_spans: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| {
            let in_subtree = s.name.starts_with("exchange.")
                || s.parent.is_some_and(|p| keep.contains(&p));
            if in_subtree {
                keep.insert(s.id);
            }
            in_subtree
        })
        .cloned()
        .collect();
    print!("{}", zkdet_telemetry::render_tree(&exchange_spans, false));
    Ok(())
}
