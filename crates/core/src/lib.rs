//! ZKDET — the traceable, privacy-preserving data-exchange scheme.
//!
//! This crate is the paper's primary contribution: it composes the
//! substrates (PLONK NIZK, MiMC/Poseidon crypto, content-addressed storage,
//! the NFT chain) into the two protocols of §IV plus the ZKCP baseline:
//!
//! * [`market::Marketplace`] — the deployment: storage network + chain +
//!   universal SRS + the deployment-wide proving-key registry
//!   ([`keys::KeyRegistry`]);
//! * the **generic data-transformation protocol** (§IV-B) —
//!   [`market::Marketplace::publish_original`],
//!   [`market::Marketplace::duplicate`], [`market::Marketplace::aggregate`],
//!   [`market::Marketplace::partition`], with decoupled, reusable proofs of
//!   encryption and third-party auditing
//!   ([`market::Marketplace::audit_token`]) along `prevIds[]` chains;
//! * the **key-secure two-phase exchange protocol** (§IV-F) —
//!   [`exchange`]: the decryption key never appears on-chain, only the
//!   blinded `k_c = k + k_v` plus the proof `π_k`;
//! * the **ZKCP baseline** (§III-C) — [`zkcp`]: works, but discloses the
//!   key to the world, which the examples and tests demonstrate;
//! * the **FairSwap baseline** (§VII-B) — [`fairswap`]: the ADS-based
//!   alternative; cheap optimistically, but it both leaks the key and has
//!   dispute costs that grow with the data size.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` in the repository root, or the
//! [`market::Marketplace`] type-level docs.

#![forbid(unsafe_code)]

pub mod bundle;
pub mod codec;
pub mod dataset;
pub mod error;
pub mod exchange;
pub mod fairswap;
pub mod journal;
pub mod keys;
pub mod machine;
pub mod market;
pub mod recovery;
pub mod shard;
pub mod throughput;
pub mod trace_timeline;
pub mod zkcp;

pub use bundle::{ProofBundle, TransformProof};
pub use dataset::Dataset;
pub use error::{Recovery, ZkdetError};
pub use exchange::{
    BuyerSession, ExchangeOutcome, ExchangeReport, SellerListing, SettlementSubmission,
    ValidationPackage,
};
pub use journal::{ExchangeRecord, ExchangeWal, Journal, NoJournal};
pub use keys::{KeyPair, KeyRegistry};
pub use machine::{
    BatcherDaemon, ExchangeMachine, ExchangeResult, ExchangeSpec, MaintenanceDaemon, MarketWorld,
    SwapMachine, SwapSpec, VerifyBatcher,
};
pub use recovery::{RecoveredExchange, RecoveredSwap, RecoveryOutcome, RecoveryReport};
pub use shard::{
    MarketShard, ShardParties, ShardPlanConfig, ShardedMarketplace, SHARD_TOKEN_STRIDE,
};
pub use trace_timeline::{exchange_trace, trace_timeline};
pub use market::{DataOwner, MarketConfig, Marketplace, ProvenanceReport, RobustnessMetrics};
pub use zkdet_provenance::{AuditCache, NodeId, ProvenanceIndex};
