//! Typed write-ahead journal of exchange state transitions (DESIGN.md §13).
//!
//! Every step of the key-secure exchange and the FairSwap baseline is
//! recorded as an **intent** record *before* its side effect and a
//! **completion** record after, so a crash between the two leaves a
//! journal from which [`crate::market::Marketplace::recover`] can decide
//! whether the side effect landed by consulting durable chain state.
//!
//! Intent records carry every piece of volatile randomness the step draws
//! (`k_v`, the key-commitment opening, FairSwap keys/nonces): replaying an
//! intent must not re-roll dice, or the restarted exchange would diverge
//! from the on-chain commitments the crashed process already published.
//!
//! The byte layout is the crate's canonical codec ([`crate::codec`]):
//! little-endian, length-prefixed, canonical field elements rejected on
//! decode. Framing, checksums and torn-tail handling live one layer down
//! in [`zkdet_wal`].

use zkdet_chain::contracts::{ListingId, SwapId};
use zkdet_chain::{Address, TokenId, Wei};
use zkdet_field::Fr;
use zkdet_wal::{CrashMode, Wal};

use crate::codec::{Reader, Writer};
use crate::error::ZkdetError;
use crate::exchange::ExchangeOutcome;

/// One journaled exchange state transition.
///
/// `*Intent` records precede their side effect; `*Done` records confirm
/// it. [`ExchangeRecord::Terminal`] closes an exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeRecord {
    /// Seller is about to create a listing; carries the freshly drawn
    /// key-commitment opening so a replay re-creates the *same* listing.
    ListIntent {
        /// Token being listed.
        token: TokenId,
        /// Clock-auction start price.
        start_price: Wei,
        /// Clock-auction floor price.
        floor_price: Wei,
        /// Price decay per block.
        decay_per_block: Wei,
        /// Commitment `c` to the decryption key.
        key_commitment: Fr,
        /// Blinder of `c` — volatile until journaled.
        key_opening: Fr,
        /// Predicate description published with the listing.
        predicate: String,
    },
    /// The listing landed on-chain.
    ListDone {
        /// The assigned listing id.
        listing: ListingId,
        /// Token being listed.
        token: TokenId,
    },
    /// Buyer verified `π_p`, drew `k_v`, and is about to lock payment.
    PayIntent {
        /// The listing being bought.
        listing: ListingId,
        /// The token being bought.
        token: TokenId,
        /// The buyer's address.
        buyer: Address,
        /// The buyer's blinding key — volatile until journaled.
        k_v: Fr,
        /// The on-chain dataset commitment `c_d` the buyer validated.
        expected_commitment: Fr,
    },
    /// The payment lock landed on-chain.
    PayDone {
        /// The listing.
        listing: ListingId,
        /// Escrowed amount.
        price: Wei,
    },
    /// Seller received `k_v` and is about to prove `π_k` and settle.
    SettleIntent {
        /// The listing.
        listing: ListingId,
        /// The token.
        token: TokenId,
        /// The buyer's `k_v` as received off-chain.
        k_v: Fr,
    },
    /// `π_k` was produced (no side effect yet — proving is re-runnable).
    ProveDone {
        /// The listing.
        listing: ListingId,
    },
    /// The settlement landed on-chain; payment released.
    SettleDone {
        /// The listing.
        listing: ListingId,
    },
    /// Buyer is about to fetch the ciphertext artefacts.
    RetrieveIntent {
        /// The listing.
        listing: ListingId,
        /// 1-based recovery attempt number.
        attempt: u32,
    },
    /// Artefacts fetched and structurally validated.
    RetrieveDone {
        /// The listing.
        listing: ListingId,
    },
    /// Plaintext recovered, re-encryption check passed, secrets learned.
    DecryptDone {
        /// The listing.
        listing: ListingId,
    },
    /// Buyer is about to reclaim the escrow after the seller timeout.
    RefundIntent {
        /// The listing.
        listing: ListingId,
    },
    /// The refund landed on-chain.
    RefundDone {
        /// The listing.
        listing: ListingId,
    },
    /// The exchange reached a terminal state.
    Terminal {
        /// The listing.
        listing: ListingId,
        /// The terminal outcome.
        outcome: ExchangeOutcome,
        /// Failure description for non-settled outcomes.
        reason: String,
    },
    /// FairSwap: seller is about to post an offer; carries the drawn
    /// key/nonce and the plaintext so a replay reproduces identical roots.
    SwapOfferIntent {
        /// Encryption key.
        key: Fr,
        /// CTR nonce.
        nonce: Fr,
        /// Plaintext blocks.
        data: Vec<Fr>,
        /// Asking price.
        price: Wei,
    },
    /// FairSwap: the offer landed on-chain.
    SwapOfferDone {
        /// The assigned swap id.
        swap: SwapId,
    },
    /// FairSwap: buyer validated roots and is about to escrow payment.
    SwapAcceptIntent {
        /// The swap.
        swap: SwapId,
        /// The buyer's address.
        buyer: Address,
        /// The expected plaintext blocks.
        expected: Vec<Fr>,
        /// The served ciphertext blocks.
        ciphertext: Vec<Fr>,
    },
    /// FairSwap: the escrow landed on-chain.
    SwapAcceptDone {
        /// The swap.
        swap: SwapId,
        /// Escrowed amount.
        payment: Wei,
    },
    /// FairSwap: seller is about to reveal the key on-chain.
    SwapRevealIntent {
        /// The swap.
        swap: SwapId,
    },
    /// FairSwap: the reveal landed on-chain.
    SwapRevealDone {
        /// The swap.
        swap: SwapId,
    },
    /// FairSwap: buyer is about to decrypt and finish or dispute.
    SwapFinishIntent {
        /// The swap.
        swap: SwapId,
    },
    /// FairSwap: finish/dispute resolved.
    SwapFinishDone {
        /// The swap.
        swap: SwapId,
        /// `true` if a misbehaviour complaint refunded the buyer.
        disputed: bool,
    },
}

const TAG_LIST_INTENT: u8 = 0;
const TAG_LIST_DONE: u8 = 1;
const TAG_PAY_INTENT: u8 = 2;
const TAG_PAY_DONE: u8 = 3;
const TAG_SETTLE_INTENT: u8 = 4;
const TAG_PROVE_DONE: u8 = 5;
const TAG_SETTLE_DONE: u8 = 6;
const TAG_RETRIEVE_INTENT: u8 = 7;
const TAG_RETRIEVE_DONE: u8 = 8;
const TAG_DECRYPT_DONE: u8 = 9;
const TAG_REFUND_INTENT: u8 = 10;
const TAG_REFUND_DONE: u8 = 11;
const TAG_TERMINAL: u8 = 12;
const TAG_SWAP_OFFER_INTENT: u8 = 13;
const TAG_SWAP_OFFER_DONE: u8 = 14;
const TAG_SWAP_ACCEPT_INTENT: u8 = 15;
const TAG_SWAP_ACCEPT_DONE: u8 = 16;
const TAG_SWAP_REVEAL_INTENT: u8 = 17;
const TAG_SWAP_REVEAL_DONE: u8 = 18;
const TAG_SWAP_FINISH_INTENT: u8 = 19;
const TAG_SWAP_FINISH_DONE: u8 = 20;

/// Frame prefix marking a record carried inside a trace context: one tag
/// byte, eight little-endian trace-id bytes, then the canonical record
/// encoding. Untraced appends keep the bare record encoding, so every
/// journal written before tracing existed still replays unchanged.
const TAG_TRACED: u8 = 255;

/// Encodes one journal frame: the bare record, or the [`TAG_TRACED`]
/// wrapper when a trace id is attached.
fn encode_frame(trace: Option<u64>, record: &ExchangeRecord) -> Vec<u8> {
    let inner = record.to_bytes();
    match trace {
        Some(t) => {
            let mut out = Vec::with_capacity(9 + inner.len());
            out.push(TAG_TRACED);
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&inner);
            out
        }
        None => inner,
    }
}

/// Decodes one journal frame into its optional trace id and record.
fn decode_frame(bytes: &[u8]) -> Result<(Option<u64>, ExchangeRecord), ZkdetError> {
    if bytes.first() == Some(&TAG_TRACED) {
        let raw: [u8; 8] = bytes
            .get(1..9)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(|| ZkdetError::Codec("traced frame shorter than its header".into()))?;
        let record = ExchangeRecord::from_bytes(&bytes[9..])?;
        return Ok((Some(u64::from_le_bytes(raw)), record));
    }
    Ok((None, ExchangeRecord::from_bytes(bytes)?))
}

fn outcome_tag(o: &ExchangeOutcome) -> u8 {
    match o {
        ExchangeOutcome::Settled => 0,
        ExchangeOutcome::Refunded => 1,
        ExchangeOutcome::Aborted => 2,
    }
}

fn outcome_from_tag(t: u8) -> Result<ExchangeOutcome, ZkdetError> {
    match t {
        0 => Ok(ExchangeOutcome::Settled),
        1 => Ok(ExchangeOutcome::Refunded),
        2 => Ok(ExchangeOutcome::Aborted),
        other => Err(ZkdetError::Codec(format!("unknown outcome tag {other}"))),
    }
}

impl ExchangeRecord {
    /// Short step name, used for telemetry and crash-point labels.
    pub fn step_name(&self) -> &'static str {
        match self {
            ExchangeRecord::ListIntent { .. } => "list_intent",
            ExchangeRecord::ListDone { .. } => "list_done",
            ExchangeRecord::PayIntent { .. } => "pay_intent",
            ExchangeRecord::PayDone { .. } => "pay_done",
            ExchangeRecord::SettleIntent { .. } => "settle_intent",
            ExchangeRecord::ProveDone { .. } => "prove_done",
            ExchangeRecord::SettleDone { .. } => "settle_done",
            ExchangeRecord::RetrieveIntent { .. } => "retrieve_intent",
            ExchangeRecord::RetrieveDone { .. } => "retrieve_done",
            ExchangeRecord::DecryptDone { .. } => "decrypt_done",
            ExchangeRecord::RefundIntent { .. } => "refund_intent",
            ExchangeRecord::RefundDone { .. } => "refund_done",
            ExchangeRecord::Terminal { .. } => "terminal",
            ExchangeRecord::SwapOfferIntent { .. } => "swap_offer_intent",
            ExchangeRecord::SwapOfferDone { .. } => "swap_offer_done",
            ExchangeRecord::SwapAcceptIntent { .. } => "swap_accept_intent",
            ExchangeRecord::SwapAcceptDone { .. } => "swap_accept_done",
            ExchangeRecord::SwapRevealIntent { .. } => "swap_reveal_intent",
            ExchangeRecord::SwapRevealDone { .. } => "swap_reveal_done",
            ExchangeRecord::SwapFinishIntent { .. } => "swap_finish_intent",
            ExchangeRecord::SwapFinishDone { .. } => "swap_finish_done",
        }
    }

    /// Canonical byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ExchangeRecord::ListIntent {
                token,
                start_price,
                floor_price,
                decay_per_block,
                key_commitment,
                key_opening,
                predicate,
            } => {
                w.u8(TAG_LIST_INTENT);
                w.u64(token.0);
                w.u128(*start_price);
                w.u128(*floor_price);
                w.u128(*decay_per_block);
                w.fr(key_commitment);
                w.fr(key_opening);
                w.string(predicate);
            }
            ExchangeRecord::ListDone { listing, token } => {
                w.u8(TAG_LIST_DONE);
                w.u64(listing.0);
                w.u64(token.0);
            }
            ExchangeRecord::PayIntent {
                listing,
                token,
                buyer,
                k_v,
                expected_commitment,
            } => {
                w.u8(TAG_PAY_INTENT);
                w.u64(listing.0);
                w.u64(token.0);
                w.raw(&buyer.0);
                w.fr(k_v);
                w.fr(expected_commitment);
            }
            ExchangeRecord::PayDone { listing, price } => {
                w.u8(TAG_PAY_DONE);
                w.u64(listing.0);
                w.u128(*price);
            }
            ExchangeRecord::SettleIntent { listing, token, k_v } => {
                w.u8(TAG_SETTLE_INTENT);
                w.u64(listing.0);
                w.u64(token.0);
                w.fr(k_v);
            }
            ExchangeRecord::ProveDone { listing } => {
                w.u8(TAG_PROVE_DONE);
                w.u64(listing.0);
            }
            ExchangeRecord::SettleDone { listing } => {
                w.u8(TAG_SETTLE_DONE);
                w.u64(listing.0);
            }
            ExchangeRecord::RetrieveIntent { listing, attempt } => {
                w.u8(TAG_RETRIEVE_INTENT);
                w.u64(listing.0);
                w.u64(u64::from(*attempt));
            }
            ExchangeRecord::RetrieveDone { listing } => {
                w.u8(TAG_RETRIEVE_DONE);
                w.u64(listing.0);
            }
            ExchangeRecord::DecryptDone { listing } => {
                w.u8(TAG_DECRYPT_DONE);
                w.u64(listing.0);
            }
            ExchangeRecord::RefundIntent { listing } => {
                w.u8(TAG_REFUND_INTENT);
                w.u64(listing.0);
            }
            ExchangeRecord::RefundDone { listing } => {
                w.u8(TAG_REFUND_DONE);
                w.u64(listing.0);
            }
            ExchangeRecord::Terminal {
                listing,
                outcome,
                reason,
            } => {
                w.u8(TAG_TERMINAL);
                w.u64(listing.0);
                w.u8(outcome_tag(outcome));
                w.string(reason);
            }
            ExchangeRecord::SwapOfferIntent {
                key,
                nonce,
                data,
                price,
            } => {
                w.u8(TAG_SWAP_OFFER_INTENT);
                w.fr(key);
                w.fr(nonce);
                w.fr_vec(data);
                w.u128(*price);
            }
            ExchangeRecord::SwapOfferDone { swap } => {
                w.u8(TAG_SWAP_OFFER_DONE);
                w.u64(swap.0);
            }
            ExchangeRecord::SwapAcceptIntent {
                swap,
                buyer,
                expected,
                ciphertext,
            } => {
                w.u8(TAG_SWAP_ACCEPT_INTENT);
                w.u64(swap.0);
                w.raw(&buyer.0);
                w.fr_vec(expected);
                w.fr_vec(ciphertext);
            }
            ExchangeRecord::SwapAcceptDone { swap, payment } => {
                w.u8(TAG_SWAP_ACCEPT_DONE);
                w.u64(swap.0);
                w.u128(*payment);
            }
            ExchangeRecord::SwapRevealIntent { swap } => {
                w.u8(TAG_SWAP_REVEAL_INTENT);
                w.u64(swap.0);
            }
            ExchangeRecord::SwapRevealDone { swap } => {
                w.u8(TAG_SWAP_REVEAL_DONE);
                w.u64(swap.0);
            }
            ExchangeRecord::SwapFinishIntent { swap } => {
                w.u8(TAG_SWAP_FINISH_INTENT);
                w.u64(swap.0);
            }
            ExchangeRecord::SwapFinishDone { swap, disputed } => {
                w.u8(TAG_SWAP_FINISH_DONE);
                w.u64(swap.0);
                w.u8(u8::from(*disputed));
            }
        }
        w.into_bytes()
    }

    /// Decodes a record from its canonical byte encoding.
    ///
    /// # Errors
    ///
    /// [`ZkdetError::Codec`] for unknown tags, truncation, trailing bytes
    /// or non-canonical field elements.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ZkdetError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let record = match tag {
            TAG_LIST_INTENT => ExchangeRecord::ListIntent {
                token: TokenId(r.u64()?),
                start_price: r.u128()?,
                floor_price: r.u128()?,
                decay_per_block: r.u128()?,
                key_commitment: r.fr()?,
                key_opening: r.fr()?,
                predicate: r.string()?,
            },
            TAG_LIST_DONE => ExchangeRecord::ListDone {
                listing: ListingId(r.u64()?),
                token: TokenId(r.u64()?),
            },
            TAG_PAY_INTENT => ExchangeRecord::PayIntent {
                listing: ListingId(r.u64()?),
                token: TokenId(r.u64()?),
                buyer: read_address(&mut r)?,
                k_v: r.fr()?,
                expected_commitment: r.fr()?,
            },
            TAG_PAY_DONE => ExchangeRecord::PayDone {
                listing: ListingId(r.u64()?),
                price: r.u128()?,
            },
            TAG_SETTLE_INTENT => ExchangeRecord::SettleIntent {
                listing: ListingId(r.u64()?),
                token: TokenId(r.u64()?),
                k_v: r.fr()?,
            },
            TAG_PROVE_DONE => ExchangeRecord::ProveDone {
                listing: ListingId(r.u64()?),
            },
            TAG_SETTLE_DONE => ExchangeRecord::SettleDone {
                listing: ListingId(r.u64()?),
            },
            TAG_RETRIEVE_INTENT => ExchangeRecord::RetrieveIntent {
                listing: ListingId(r.u64()?),
                attempt: u32::try_from(r.u64()?)
                    .map_err(|_| ZkdetError::Codec("attempt overflows u32".into()))?,
            },
            TAG_RETRIEVE_DONE => ExchangeRecord::RetrieveDone {
                listing: ListingId(r.u64()?),
            },
            TAG_DECRYPT_DONE => ExchangeRecord::DecryptDone {
                listing: ListingId(r.u64()?),
            },
            TAG_REFUND_INTENT => ExchangeRecord::RefundIntent {
                listing: ListingId(r.u64()?),
            },
            TAG_REFUND_DONE => ExchangeRecord::RefundDone {
                listing: ListingId(r.u64()?),
            },
            TAG_TERMINAL => ExchangeRecord::Terminal {
                listing: ListingId(r.u64()?),
                outcome: outcome_from_tag(r.u8()?)?,
                reason: r.string()?,
            },
            TAG_SWAP_OFFER_INTENT => ExchangeRecord::SwapOfferIntent {
                key: r.fr()?,
                nonce: r.fr()?,
                data: r.fr_vec()?,
                price: r.u128()?,
            },
            TAG_SWAP_OFFER_DONE => ExchangeRecord::SwapOfferDone {
                swap: SwapId(r.u64()?),
            },
            TAG_SWAP_ACCEPT_INTENT => ExchangeRecord::SwapAcceptIntent {
                swap: SwapId(r.u64()?),
                buyer: read_address(&mut r)?,
                expected: r.fr_vec()?,
                ciphertext: r.fr_vec()?,
            },
            TAG_SWAP_ACCEPT_DONE => ExchangeRecord::SwapAcceptDone {
                swap: SwapId(r.u64()?),
                payment: r.u128()?,
            },
            TAG_SWAP_REVEAL_INTENT => ExchangeRecord::SwapRevealIntent {
                swap: SwapId(r.u64()?),
            },
            TAG_SWAP_REVEAL_DONE => ExchangeRecord::SwapRevealDone {
                swap: SwapId(r.u64()?),
            },
            TAG_SWAP_FINISH_INTENT => ExchangeRecord::SwapFinishIntent {
                swap: SwapId(r.u64()?),
            },
            TAG_SWAP_FINISH_DONE => ExchangeRecord::SwapFinishDone {
                swap: SwapId(r.u64()?),
                disputed: match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ZkdetError::Codec(format!(
                            "bad bool encoding {other}"
                        )))
                    }
                },
            },
            other => {
                return Err(ZkdetError::Codec(format!(
                    "unknown journal record tag {other}"
                )))
            }
        };
        r.finish()?;
        Ok(record)
    }
}

fn read_address(r: &mut Reader<'_>) -> Result<Address, ZkdetError> {
    let bytes = r.raw_bytes(20)?;
    let mut out = [0u8; 20];
    out.copy_from_slice(bytes);
    Ok(Address(out))
}

/// The typed exchange journal: [`zkdet_wal::Wal`] framing underneath,
/// [`ExchangeRecord`]s on top.
#[derive(Debug, Default)]
pub struct ExchangeWal {
    inner: Wal,
}

impl ExchangeWal {
    /// A fresh, empty journal.
    pub fn new() -> Self {
        ExchangeWal::default()
    }

    /// Reopens a journal from its durable byte image (the crash-restart
    /// path). A torn final record is dropped; appends resume after the
    /// last intact record.
    ///
    /// # Errors
    ///
    /// [`ZkdetError::Journal`] for checksum or framing failures,
    /// [`ZkdetError::Codec`] if an intact frame does not decode as an
    /// [`ExchangeRecord`].
    pub fn open(bytes: Vec<u8>) -> Result<Self, ZkdetError> {
        let inner = Wal::open(bytes)?;
        // Decode eagerly so a corrupt payload is rejected at open time,
        // not halfway through a recovery.
        for rec in inner.replay()? {
            decode_frame(&rec.payload)?;
        }
        Ok(ExchangeWal { inner })
    }

    /// Appends one record, returning its sequence number.
    ///
    /// The ambient trace context ([`zkdet_telemetry::current_trace`]), if
    /// any, is stamped into the frame so a later
    /// [`ExchangeWal::traced_records`] replay can re-link each step to the
    /// exchange that wrote it.
    ///
    /// # Errors
    ///
    /// [`ZkdetError::Journal`] — notably [`zkdet_wal::WalError::Crashed`]
    /// when a chaos-harness crash plan fires.
    pub fn append(&mut self, record: &ExchangeRecord) -> Result<u64, ZkdetError> {
        let trace = zkdet_telemetry::current_trace().map(|t| t.as_u64());
        let seq = self.inner.append(&encode_frame(trace, record))?;
        zkdet_telemetry::counter_add("zkdet.recovery.wal.appends", 1);
        Ok(seq)
    }

    /// Replays every intact record.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExchangeWal::open`].
    pub fn records(&self) -> Result<Vec<ExchangeRecord>, ZkdetError> {
        Ok(self
            .traced_records()?
            .into_iter()
            .map(|(_, rec)| rec)
            .collect())
    }

    /// Replays every intact record together with the trace id it was
    /// written under (`None` for records appended outside any trace
    /// context, including every pre-tracing journal).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExchangeWal::open`].
    pub fn traced_records(&self) -> Result<Vec<(Option<u64>, ExchangeRecord)>, ZkdetError> {
        self.inner
            .replay()?
            .iter()
            .map(|r| decode_frame(&r.payload))
            .collect()
    }

    /// The durable byte image — what survives a process death.
    pub fn durable_bytes(&self) -> &[u8] {
        self.inner.durable_bytes()
    }

    /// Number of records durably appended.
    pub fn record_count(&self) -> u64 {
        self.inner.record_count()
    }

    /// Installs a simulated crash on the `after`-th append of this
    /// process (see [`Wal::set_crash_after`]).
    pub fn set_crash_after(&mut self, after: u64, mode: CrashMode) {
        self.inner.set_crash_after(after, mode);
    }

    /// Removes any installed crash plan.
    pub fn clear_crash(&mut self) {
        self.inner.clear_crash();
    }
}

/// Where the exchange steps in [`crate::exchange`] write their intent and
/// completion records: a durable [`ExchangeWal`], or [`NoJournal`] for a
/// caller that runs the protocol without crash recovery.
pub trait Journal {
    /// Records one state transition; fails as [`ExchangeWal::append`] does.
    fn append(&mut self, record: &ExchangeRecord) -> Result<(), ZkdetError>;
}

impl Journal for ExchangeWal {
    fn append(&mut self, record: &ExchangeRecord) -> Result<(), ZkdetError> {
        ExchangeWal::append(self, record).map(|_seq| ())
    }
}

/// The journal of the plain (non-recoverable) exchange path: discards
/// every record.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoJournal;

impl Journal for NoJournal {
    fn append(&mut self, _record: &ExchangeRecord) -> Result<(), ZkdetError> {
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use zkdet_field::Field;

    fn sample_records() -> Vec<ExchangeRecord> {
        vec![
            ExchangeRecord::ListIntent {
                token: TokenId(7),
                start_price: u128::from(u64::MAX) + 5,
                floor_price: 50,
                decay_per_block: 1,
                key_commitment: Fr::from(11u64),
                key_opening: Fr::from(13u64),
                predicate: "u8".into(),
            },
            ExchangeRecord::ListDone {
                listing: ListingId(3),
                token: TokenId(7),
            },
            ExchangeRecord::PayIntent {
                listing: ListingId(3),
                token: TokenId(7),
                buyer: Address::from_seed(9),
                k_v: Fr::from(17u64),
                expected_commitment: Fr::from(19u64),
            },
            ExchangeRecord::PayDone {
                listing: ListingId(3),
                price: 77,
            },
            ExchangeRecord::SettleIntent {
                listing: ListingId(3),
                token: TokenId(7),
                k_v: Fr::from(17u64),
            },
            ExchangeRecord::ProveDone {
                listing: ListingId(3),
            },
            ExchangeRecord::SettleDone {
                listing: ListingId(3),
            },
            ExchangeRecord::RetrieveIntent {
                listing: ListingId(3),
                attempt: 2,
            },
            ExchangeRecord::RetrieveDone {
                listing: ListingId(3),
            },
            ExchangeRecord::DecryptDone {
                listing: ListingId(3),
            },
            ExchangeRecord::RefundIntent {
                listing: ListingId(3),
            },
            ExchangeRecord::RefundDone {
                listing: ListingId(3),
            },
            ExchangeRecord::Terminal {
                listing: ListingId(3),
                outcome: ExchangeOutcome::Refunded,
                reason: "seller missed the settlement deadline".into(),
            },
            ExchangeRecord::SwapOfferIntent {
                key: Fr::from(23u64),
                nonce: Fr::from(29u64),
                data: vec![Fr::ZERO, Fr::from(31u64)],
                price: 500,
            },
            ExchangeRecord::SwapOfferDone { swap: SwapId(1) },
            ExchangeRecord::SwapAcceptIntent {
                swap: SwapId(1),
                buyer: Address::from_seed(4),
                expected: vec![Fr::from(1u64)],
                ciphertext: vec![Fr::from(2u64), Fr::from(3u64)],
            },
            ExchangeRecord::SwapAcceptDone {
                swap: SwapId(1),
                payment: 500,
            },
            ExchangeRecord::SwapRevealIntent { swap: SwapId(1) },
            ExchangeRecord::SwapRevealDone { swap: SwapId(1) },
            ExchangeRecord::SwapFinishIntent { swap: SwapId(1) },
            ExchangeRecord::SwapFinishDone {
                swap: SwapId(1),
                disputed: true,
            },
        ]
    }

    #[test]
    fn every_record_kind_roundtrips() {
        for rec in sample_records() {
            let bytes = rec.to_bytes();
            let back = ExchangeRecord::from_bytes(&bytes).unwrap();
            assert_eq!(back, rec, "{} must round-trip", rec.step_name());
            // Canonicity: re-encoding reproduces identical bytes.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        for rec in sample_records() {
            let bytes = rec.to_bytes();
            assert!(
                ExchangeRecord::from_bytes(&bytes[..bytes.len() - 1]).is_err(),
                "{} truncated must fail",
                rec.step_name()
            );
            let mut extra = bytes.clone();
            extra.push(0);
            assert!(
                ExchangeRecord::from_bytes(&extra).is_err(),
                "{} with trailing byte must fail",
                rec.step_name()
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(ExchangeRecord::from_bytes(&[200, 0, 0]).is_err());
        assert!(ExchangeRecord::from_bytes(&[]).is_err());
    }

    #[test]
    fn typed_wal_roundtrip_and_reopen() {
        let mut wal = ExchangeWal::new();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let reopened = ExchangeWal::open(wal.durable_bytes().to_vec()).unwrap();
        assert_eq!(reopened.records().unwrap(), sample_records());
        assert_eq!(reopened.record_count(), sample_records().len() as u64);
    }

    #[test]
    fn traced_frames_roundtrip_and_untraced_stay_bare() {
        for rec in sample_records() {
            // Bare encoding is byte-identical to the record codec — old
            // journals replay unchanged.
            assert_eq!(encode_frame(None, &rec), rec.to_bytes());
            let (trace, back) = decode_frame(&encode_frame(None, &rec)).unwrap();
            assert_eq!((trace, &back), (None, &rec));
            // Traced wrapper round-trips and the id survives exactly.
            let framed = encode_frame(Some(0xdead_beef_0badu64), &rec);
            assert_eq!(framed[0], TAG_TRACED);
            let (trace, back) = decode_frame(&framed).unwrap();
            assert_eq!((trace, back), (Some(0xdead_beef_0badu64), rec));
        }
    }

    #[test]
    fn traced_frame_header_truncation_rejected() {
        assert!(decode_frame(&[TAG_TRACED]).is_err());
        assert!(decode_frame(&[TAG_TRACED, 1, 2, 3]).is_err());
        // A full header but an empty inner record is still malformed.
        assert!(decode_frame(&[TAG_TRACED, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn append_stamps_the_ambient_trace() {
        let trace = zkdet_telemetry::TraceId::for_exchange(42);
        let mut wal = ExchangeWal::new();
        wal.append(&ExchangeRecord::ProveDone {
            listing: ListingId(1),
        })
        .unwrap();
        {
            let _g = zkdet_telemetry::enter_trace(trace);
            wal.append(&ExchangeRecord::SettleDone {
                listing: ListingId(1),
            })
            .unwrap();
        }
        wal.append(&ExchangeRecord::Terminal {
            listing: ListingId(1),
            outcome: ExchangeOutcome::Settled,
            reason: String::new(),
        })
        .unwrap();
        let reopened = ExchangeWal::open(wal.durable_bytes().to_vec()).unwrap();
        let traced = reopened.traced_records().unwrap();
        assert_eq!(traced[0].0, None);
        assert_eq!(traced[1].0, Some(trace.as_u64()));
        assert_eq!(traced[2].0, None);
        // records() strips the trace layer transparently.
        assert_eq!(reopened.records().unwrap().len(), 3);
    }

    #[test]
    fn typed_wal_crash_is_fatal_journal_error() {
        let mut wal = ExchangeWal::new();
        wal.set_crash_after(1, CrashMode::Clean);
        let err = wal
            .append(&ExchangeRecord::ProveDone {
                listing: ListingId(0),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ZkdetError::Journal(zkdet_wal::WalError::Crashed)
        ));
        assert_eq!(err.recovery(), crate::error::Recovery::Fatal);
    }

    mod codec_props {
        use super::*;
        use crate::error::Recovery;
        use proptest::prelude::*;

        fn journal_of(records: &[ExchangeRecord]) -> ExchangeWal {
            let mut wal = ExchangeWal::new();
            for rec in records {
                wal.append(rec).unwrap();
            }
            wal
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Round-trip: any PayIntent-shaped record (the widest mix of
            /// field types: ids, address, scalars) survives the codec.
            #[test]
            fn prop_pay_intent_roundtrips(
                listing in 0u64..1_000_000,
                token in 0u64..1_000_000,
                addr_seed in 0u64..1_000_000,
                kv_raw in 1u64..u64::MAX,
                com_raw in 1u64..u64::MAX,
            ) {
                let rec = ExchangeRecord::PayIntent {
                    listing: ListingId(listing),
                    token: TokenId(token),
                    buyer: Address::from_seed(addr_seed),
                    k_v: Fr::from(kv_raw),
                    expected_commitment: Fr::from(com_raw),
                };
                let bytes = rec.to_bytes();
                prop_assert_eq!(ExchangeRecord::from_bytes(&bytes).unwrap(), rec);
            }

            /// Truncated-tail tolerance: a journal whose final frame is cut
            /// at ANY byte offset reopens with the torn record dropped —
            /// the replay is always a strict prefix, never a misparse.
            #[test]
            fn prop_torn_tail_is_dropped_never_misparsed(cut in 1usize..200) {
                let records = sample_records();
                let wal = journal_of(&records);
                let bytes = wal.durable_bytes();
                let cut = cut.min(bytes.len());
                let truncated = bytes[..bytes.len() - cut].to_vec();
                match ExchangeWal::open(truncated) {
                    Ok(reopened) => {
                        let got = reopened.records().unwrap();
                        prop_assert!(got.len() <= records.len());
                        prop_assert_eq!(got.as_slice(), &records[..got.len()]);
                    }
                    // Cutting more than the final frame can expose an
                    // interior torn frame mid-journal; that is Malformed,
                    // which maps to abort-and-refund, never a retry.
                    Err(e) => prop_assert_eq!(e.recovery(), Recovery::AbortAndRefund),
                }
            }

            /// Checksum corruption: flipping any byte of a journal either
            /// leaves a shorter-but-valid prefix (flip landed in the tail
            /// length field), or surfaces through the error taxonomy as
            /// AbortAndRefund — never Transient, never a wrong record.
            #[test]
            fn prop_bit_flip_rejected_via_taxonomy(pos in 0usize..400, flip in 1u8..=255) {
                let records = sample_records();
                let wal = journal_of(&records);
                let mut bytes = wal.durable_bytes().to_vec();
                let pos = pos % bytes.len();
                bytes[pos] ^= flip;
                match ExchangeWal::open(bytes) {
                    Ok(reopened) => {
                        // Only a torn-looking tail may survive, and only as
                        // a strict prefix of the original journal.
                        let got = reopened.records().unwrap();
                        prop_assert!(got.len() < records.len());
                        prop_assert_eq!(got.as_slice(), &records[..got.len()]);
                    }
                    Err(e) => {
                        prop_assert_eq!(e.recovery(), Recovery::AbortAndRefund);
                    }
                }
            }
        }
    }
}
