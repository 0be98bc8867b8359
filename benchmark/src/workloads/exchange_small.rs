//! `exchange_small` — the paper's §IV-F journey: a buyer and a seller go
//! through the two-phase key-secure exchange (π_p, then π_k) over a 2-entry
//! dataset, on 2048-row circuits.
//!
//! Why it exists: at this size the exchange is dominated by `plonk`
//! preprocess + prove at small n, where per-call thread spawns and the
//! uncached π_p proving key matter and MSM asymptotics do not. The dataset
//! shape and prices are `market_load`'s, so the two differ only by driver
//! (five direct calls here, the executor's machines there).

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_chain::contracts::ListingId;
use zkdet_chain::{TokenId, Wei};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{DataOwner, Dataset, Marketplace, ValidationPackage};
use zkdet_field::{Field, Fr};

use super::{at, ensure, random_dataset, single_op, Failure, Workload};
use crate::metrics::Metrics;
use crate::stats::OpSample;
use crate::trace::Tracer;

const MAX_CONSTRAINTS: usize = 1 << 13;
const STORAGE_NODES: usize = 8;
const ENTRIES: usize = 2;
const BITS: usize = 16;
/// Tokens published in set-up and sold round-robin. After each sale the
/// buyer hands the token back with a plain NFT transfer, outside the timed
/// part (the buyer learns key and plaintext but not the commitment's
/// opening, so only the publisher can prove π_p for it): the timed loop
/// needs no publish of its own, however long it runs.
const POOL: usize = 2;
const START_PRICE: Wei = 1_200;
const FLOOR_PRICE: Wei = 400;
const DECAY_PER_BLOCK: Wei = 2;

struct Traded {
    token: TokenId,
    data: Dataset,
}

pub struct ExchangeSmall {
    market: Marketplace,
    seller: DataOwner,
    buyer: DataOwner,
    pool: Vec<Traded>,
    next: usize,
    rng: StdRng,
}

impl ExchangeSmall {
    /// One whole exchange of pool slot `slot`: the wall seconds of the five
    /// protocol steps, and the verdict of the steps, the output checks and
    /// the hand-back.
    fn exchange(
        &mut self,
        slot: usize,
        negative_control: bool,
        tr: &mut Tracer,
    ) -> (f64, Result<(), Failure>) {
        let token = self.pool[slot].token;
        let seller_before = self.market.chain.state.balance(&self.seller.address);
        let (wall_s, steps) = tr.op(|tr| self.steps(token, negative_control, tr));
        let checked = steps.and_then(|(recovered, price)| {
            self.check_and_hand_back(slot, &recovered, seller_before, price)
        });
        (wall_s, checked)
    }

    /// The output checks of one exchange, then the buyer's hand-back.
    fn check_and_hand_back(
        &mut self,
        slot: usize,
        recovered: &Dataset,
        seller_before: Wei,
        price: Wei,
    ) -> Result<(), Failure> {
        let Traded { token, data } = &self.pool[slot];
        let (token, seller_addr, buyer_addr) = (*token, self.seller.address, self.buyer.address);
        ensure(recovered == data, || {
            format!("token {token}: recovered plaintext differs from the published dataset")
        })?;
        let market = &mut self.market;
        let owner_now = market
            .chain
            .nft(&market.nft_addr)
            .and_then(|nft| nft.owner_of(token))
            .map_err(at("owner_of"))?;
        ensure(owner_now == buyer_addr, || {
            format!("token {token}: owner after the exchange is not the buyer")
        })?;
        let seller_after = market.chain.state.balance(&seller_addr);
        ensure(seller_after == seller_before + price, || {
            format!("token {token}: seller balance went {seller_before} -> {seller_after} for a price of {price}")
        })?;
        market
            .chain
            .nft_transfer(market.nft_addr, buyer_addr, seller_addr, token)
            .map_err(at("handing the token back"))?;
        Ok(())
    }

    /// The five protocol steps, each under its own span: list → π_p package
    /// → validate and lock → settle (π_k) → recover. Returns the plaintext
    /// the buyer recovered and the price paid. With `negative_control`, two
    /// forged π_p packages are offered to the buyer first and must both be
    /// refused.
    fn steps(
        &mut self,
        token: TokenId,
        negative_control: bool,
        tr: &mut Tracer,
    ) -> Result<(Dataset, Wei), Failure> {
        let (market, rng) = (&mut self.market, &mut self.rng);
        let (seller, buyer) = (&self.seller, &mut self.buyer);
        let listing = tr
            .call("core.list_for_sale", || {
                market.list_for_sale(
                    seller,
                    token,
                    START_PRICE,
                    FLOOR_PRICE,
                    DECAY_PER_BLOCK,
                    format!("every entry < 2^{BITS}"),
                    rng,
                )
            })
            .map_err(at("list_for_sale"))?;
        let package = tr
            .call("core.seller_validation_package", || {
                market.seller_validation_package(seller, token, RangePredicate { bits: BITS }, rng)
            })
            .map_err(at("seller_validation_package"))?;
        if negative_control {
            refuses_forged_packages(market, buyer, listing.listing, &package, rng)?;
        }
        let session = tr
            .call("core.buyer_validate_and_lock", || {
                market.buyer_validate_and_lock(buyer, listing.listing, &package, rng)
            })
            .map_err(at("buyer_validate_and_lock"))?;
        tr.call("core.seller_settle", || {
            market.seller_settle(seller, &listing, session.k_v_message(), rng)
        })
        .map_err(at("seller_settle"))?;
        let recovered = tr
            .call("core.buyer_recover", || {
                market.buyer_recover(buyer, &session)
            })
            .map_err(at("buyer_recover"))?;
        Ok((recovered, session.price))
    }
}

/// Negative controls, so a run with no failed operation is not vacuous: a
/// π_p whose public input was flipped, and one whose proof was altered,
/// must both be refused by `buyer_validate_and_lock` (and leave the listing
/// open for the honest package that follows).
fn refuses_forged_packages(
    market: &mut Marketplace,
    buyer: &DataOwner,
    listing: ListingId,
    honest: &ValidationPackage,
    rng: &mut StdRng,
) -> Result<(), Failure> {
    let mut flipped_public = honest.clone();
    flipped_public.publics[0] += Fr::ONE;
    let mut altered_proof = honest.clone();
    altered_proof.proof.a_eval += Fr::ONE;
    for (what, forged) in [
        ("a flipped public input", flipped_public),
        ("an altered proof", altered_proof),
    ] {
        let verdict = market.buyer_validate_and_lock(buyer, listing, &forged, rng);
        ensure(verdict.is_err(), || {
            format!("negative control: the buyer accepted a π_p with {what}")
        })?;
    }
    Ok(())
}

impl Workload for ExchangeSmall {
    const NAME: &'static str = "exchange_small";

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, Failure> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut market = tr
            .call("core.bootstrap", || {
                Marketplace::bootstrap(MAX_CONSTRAINTS, STORAGE_NODES, &mut rng)
            })
            .map_err(at("bootstrap"))?;
        let (mut seller, buyer) = (market.register(), market.register());
        let mut pool = Vec::with_capacity(POOL);
        for slot in 0..POOL {
            let data = random_dataset(ENTRIES, BITS as u32, &mut rng);
            // The first publish of a shape also derives its proving key.
            let span = if slot == 0 {
                "core.publish_original_cold"
            } else {
                "core.publish_original"
            };
            let token = tr
                .call(span, || {
                    market.publish_original(&mut seller, data.clone(), &mut rng)
                })
                .map_err(at("publish_original"))?;
            pool.push(Traded { token, data });
        }
        let mut state = ExchangeSmall {
            market,
            seller,
            buyer,
            pool,
            next: 1,
            rng,
        };
        // Untimed warm-up exchange of slot 0, carrying the negative controls.
        tr.paused(|tr| state.exchange(0, true, tr)).1?;
        Ok(state)
    }

    fn op(&mut self, tr: &mut Tracer) -> OpSample {
        let slot = self.next % self.pool.len();
        self.next += 1;
        let (wall_s, outcome) = self.exchange(slot, false, tr);
        single_op(Self::NAME, wall_s, outcome)
    }

    fn finish(self, _tr: &mut Tracer, _layers: &mut Metrics) -> Result<(), Failure> {
        let escrow = self.market.chain.state.balance(&self.market.auction_addr);
        ensure(escrow == 0, || {
            format!("the auction contract still holds {escrow} in escrow")
        })
    }
}
