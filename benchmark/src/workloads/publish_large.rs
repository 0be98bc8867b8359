//! `publish_large` — the seller's §IV-B journey: encrypt, commit, prove π_e
//! and mint a 32-block dataset, which pads to the 32768-row domain (the
//! largest committed fig6 shape).
//!
//! Why it exists: `curve` MSM, `poly` FFT and `kzg` at n = 32768 do nearly
//! all the work here; exchange, chain and executor code are idle. The timed
//! loop is warm (the shape's proving key was derived in set-up), so
//! `Plonk::preprocess` is bypassed; the one cold publish of the shape is the
//! set-up's and is reported as `core.publish_original_cold.ms`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_chain::TokenId;
use zkdet_core::{DataOwner, Marketplace};
use zkdet_field::{Field, Fr};

use super::{at, ensure, random_dataset, single_op, Failure, Workload};
use crate::metrics::Metrics;
use crate::stats::OpSample;
use crate::trace::Tracer;

const MAX_CONSTRAINTS: usize = 1 << 15;
const STORAGE_NODES: usize = 8;
const BLOCKS: usize = 32;
/// The circuit's size depends on the block count only, not on entry values.
const ENTRY_BITS: u32 = 62;

pub struct PublishLarge {
    market: Marketplace,
    owner: DataOwner,
    minted: Vec<TokenId>,
    rng: StdRng,
}

impl PublishLarge {
    fn publish(&mut self, span: &'static str, tr: &mut Tracer) -> Result<(), Failure> {
        let data = random_dataset(BLOCKS, ENTRY_BITS, &mut self.rng);
        let (market, owner, rng) = (&mut self.market, &mut self.owner, &mut self.rng);
        let minted = tr.call(span, || market.publish_original(owner, data, rng));
        self.minted.push(minted.map_err(at("publish_original"))?);
        Ok(())
    }

    /// Negative control, so the end-of-run audits are not vacuous: a token
    /// minted over `genuine`'s ciphertext and commitment, but pointing at a
    /// bundle whose π_e was altered, must fail `audit_token` (which reaches
    /// `Plonk::verify` with the shape's real verifying key).
    fn refuses_forged_proof(&mut self, genuine: TokenId) -> Result<(), Failure> {
        let market = &mut self.market;
        let (_, mut bundle) = market
            .fetch_artefacts(genuine)
            .map_err(at("fetch_artefacts"))?;
        bundle.pi_e.a_eval += Fr::ONE;
        let forged_cid = market
            .storage
            .publish(self.owner.pin, bundle.to_bytes())
            .map_err(at("storage publish"))?;
        let mut meta = market
            .chain
            .nft(&market.nft_addr)
            .and_then(|nft| nft.token_meta(genuine))
            .map_err(at("token_meta"))?
            .clone();
        meta.proof_cid = Some(forged_cid);
        let (forged, _) = market
            .chain
            .nft_mint(market.nft_addr, self.owner.address, meta)
            .map_err(at("nft_mint"))?;
        let verdict = market.audit_token(forged, &mut self.rng);
        ensure(verdict.is_err(), || {
            format!("negative control: token {forged} with an altered π_e passed its audit")
        })
    }
}

impl Workload for PublishLarge {
    const NAME: &'static str = "publish_large";

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, Failure> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut market = tr
            .call("core.bootstrap", || {
                Marketplace::bootstrap(MAX_CONSTRAINTS, STORAGE_NODES, &mut rng)
            })
            .map_err(at("bootstrap"))?;
        let owner = market.register();
        let mut state = PublishLarge {
            market,
            owner,
            minted: Vec::new(),
            rng,
        };
        // The first publish of the shape derives its proving key, so the
        // timed loop measures proving alone.
        state.publish("core.publish_original_cold", tr)?;
        state.refuses_forged_proof(state.minted[0])?;
        Ok(state)
    }

    fn op(&mut self, tr: &mut Tracer) -> OpSample {
        let (wall_s, outcome) = tr.op(|tr| self.publish("core.publish_original", tr));
        single_op(Self::NAME, wall_s, outcome)
    }

    /// Audits every token the run minted: each π_e must verify against the
    /// stored ciphertext and the on-chain commitment.
    fn finish(mut self, _tr: &mut Tracer, _layers: &mut Metrics) -> Result<(), Failure> {
        for token in std::mem::take(&mut self.minted) {
            let report = self
                .market
                .audit_token(token, &mut self.rng)
                .map_err(|e| format!("audit of minted token {token}: {e}"))?;
            ensure(
                report.verified_tokens == [token] && report.transform_edges == 0,
                || format!("audit of original token {token} reported a lineage"),
            )?;
        }
        Ok(())
    }
}
