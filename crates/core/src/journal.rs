//! Typed write-ahead journal of exchange state transitions (DESIGN.md §13).
//!
//! Every step of the key-secure exchange is recorded as an **intent**
//! record *before* its side effect and a **completion** record after, so
//! a crash between the two leaves a journal from which
//! [`crate::market::Marketplace::recover`] can decide whether the side
//! effect landed by consulting durable chain state.
//!
//! Intent records carry every piece of volatile randomness the step draws
//! (`k_v`, the key-commitment opening): replaying an intent must not
//! re-roll dice, or the restarted exchange would diverge from the
//! on-chain commitments the crashed process already published.
//!
//! The byte layout is the crate's canonical codec ([`crate::codec`]):
//! little-endian, length-prefixed, canonical field elements rejected on
//! decode. Framing, checksums and torn-tail handling live one layer down
//! in [`zkdet_wal`].

use zkdet_chain::contracts::ListingId;
use zkdet_chain::{Address, TokenId, Wei};
use zkdet_field::Fr;
use zkdet_wal::{CrashMode, Wal};

use crate::codec::{Reader, Writer};
use crate::error::ZkdetError;
use crate::exchange::ExchangeOutcome;

/// A value with a fixed place in the journal's byte layout. A record's
/// encoding is its tag byte followed by its payload's fields in
/// declaration order, each through the field type's impl below.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, ZkdetError>;
}

macro_rules! wire {
    ($($ty:ty: |$x:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, $w: &mut Writer) {
                let $x = self;
                $put
            }
            fn get($r: &mut Reader<'_>) -> Result<Self, ZkdetError> {
                $get
            }
        }
    )*};
}

wire! {
    TokenId: |x, w| w.u64(x.0), |r| r.u64().map(TokenId);
    ListingId: |x, w| w.u64(x.0), |r| r.u64().map(ListingId);
    Wei: |x, w| w.u128(*x), |r| r.u128();
    // `RetrieveIntent::attempt`: a u64 on the wire.
    u32: |x, w| w.u64(u64::from(*x)), |r| u32::try_from(r.u64()?)
        .map_err(|_| ZkdetError::Codec("attempt overflows u32".into()));
    Fr: |x, w| w.fr(x), |r| r.fr();
    String: |x, w| w.string(x), |r| r.string();
    Address: |x, w| w.raw(&x.0), |r| r.raw_bytes(20)?.try_into().map(Address)
        .map_err(|_| ZkdetError::Codec("address slice length".into()));
    ExchangeOutcome: |x, w| w.u8(match x {
        ExchangeOutcome::Settled => 0,
        ExchangeOutcome::Refunded => 1,
        ExchangeOutcome::Aborted => 2,
    }), |r| match r.u8()? {
        0 => Ok(ExchangeOutcome::Settled),
        1 => Ok(ExchangeOutcome::Refunded),
        2 => Ok(ExchangeOutcome::Aborted),
        other => Err(ZkdetError::Codec(format!("unknown outcome tag {other}"))),
    };
}

/// Declares record payloads: each struct's field list is also its wire
/// layout, so the fields are written out once.
macro_rules! wire_struct {
    ($($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
    })*) => {$(
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl Wire for $name {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ZkdetError> {
                Ok($name { $($field: Wire::get(r)?,)* })
            }
        }
    )*};
}

wire_struct! {
    /// Seller is about to create a listing; carries the freshly drawn
    /// key-commitment opening so a replay re-creates the *same* listing.
    pub struct ListIntent {
        /// Token being listed.
        pub token: TokenId,
        /// Clock-auction start price.
        pub start_price: Wei,
        /// Clock-auction floor price.
        pub floor_price: Wei,
        /// Price decay per block.
        pub decay_per_block: Wei,
        /// Commitment `c` to the decryption key.
        pub key_commitment: Fr,
        /// Blinder of `c` — volatile until journaled.
        pub key_opening: Fr,
        /// Predicate description published with the listing.
        pub predicate: String,
    }

    /// The listing landed on-chain.
    pub struct ListDone {
        /// The assigned listing id.
        pub listing: ListingId,
        /// Token being listed.
        pub token: TokenId,
    }

    /// Buyer verified `π_p`, drew `k_v`, and is about to lock payment.
    pub struct PayIntent {
        /// The listing being bought.
        pub listing: ListingId,
        /// The token being bought.
        pub token: TokenId,
        /// The buyer's address.
        pub buyer: Address,
        /// The buyer's blinding key — volatile until journaled.
        pub k_v: Fr,
        /// The on-chain dataset commitment `c_d` the buyer validated.
        pub expected_commitment: Fr,
    }

    /// The payment lock landed on-chain.
    pub struct PayDone {
        /// The listing.
        pub listing: ListingId,
        /// Escrowed amount.
        pub price: Wei,
    }

    /// Seller received `k_v` and is about to prove `π_k` and settle.
    pub struct SettleIntent {
        /// The listing.
        pub listing: ListingId,
        /// The token.
        pub token: TokenId,
        /// The buyer's `k_v` as received off-chain.
        pub k_v: Fr,
    }

    /// Buyer is about to fetch the ciphertext artefacts.
    pub struct RetrieveIntent {
        /// The listing.
        pub listing: ListingId,
        /// 1-based recovery attempt number.
        pub attempt: u32,
    }

    /// The exchange reached a terminal state.
    pub struct Terminal {
        /// The listing.
        pub listing: ListingId,
        /// The terminal outcome.
        pub outcome: ExchangeOutcome,
        /// Failure description for non-settled outcomes.
        pub reason: String,
    }
}

/// The record table: wire tag, step name, variant and payload of every
/// record kind. The enum, [`ExchangeRecord::step_name`] and the codec are
/// all generated from it, so a new kind is one line here, its payload
/// struct above if it has one, and its arm in `recovery::fold_records`.
macro_rules! records {
    ($(#[$emeta:meta])* pub enum $enum:ident {
        $($(#[$meta:meta])* $tag:literal $name:literal $variant:ident($payload:ty),)*
    }) => {
        $(#[$emeta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum $enum {
            $($(#[$meta])* $variant($payload),)*
        }

        impl $enum {
            /// Short step name, used for telemetry and crash-point labels.
            pub fn step_name(&self) -> &'static str {
                match self {
                    $(Self::$variant(_) => $name,)*
                }
            }

            /// Canonical byte encoding.
            pub fn to_bytes(&self) -> Vec<u8> {
                let mut w = Writer::new();
                match self {
                    $(Self::$variant(payload) => {
                        w.u8($tag);
                        payload.put(&mut w);
                    })*
                }
                w.into_bytes()
            }

            /// Decodes a record from its canonical byte encoding.
            ///
            /// # Errors
            ///
            /// [`ZkdetError::Codec`] for unknown tags, truncation, trailing
            /// bytes or non-canonical field elements.
            pub fn from_bytes(bytes: &[u8]) -> Result<Self, ZkdetError> {
                let mut r = Reader::new(bytes);
                let record = match r.u8()? {
                    $($tag => Self::$variant(Wire::get(&mut r)?),)*
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
    };
}

records! {
    /// One journaled exchange state transition.
    ///
    /// `*Intent` records precede their side effect; `*Done` records confirm
    /// it. [`ExchangeRecord::Terminal`] closes an exchange.
    pub enum ExchangeRecord {
        /// Seller is about to create a listing.
        0 "list_intent" ListIntent(ListIntent),
        /// The listing landed on-chain.
        1 "list_done" ListDone(ListDone),
        /// Buyer verified `π_p`, drew `k_v`, and is about to lock payment.
        2 "pay_intent" PayIntent(PayIntent),
        /// The payment lock landed on-chain.
        3 "pay_done" PayDone(PayDone),
        /// Seller received `k_v` and is about to prove `π_k` and settle.
        4 "settle_intent" SettleIntent(SettleIntent),
        /// `π_k` was produced (no side effect yet — proving is re-runnable).
        5 "prove_done" ProveDone(ListingId),
        /// The settlement landed on-chain; payment released.
        6 "settle_done" SettleDone(ListingId),
        /// Buyer is about to fetch the ciphertext artefacts.
        7 "retrieve_intent" RetrieveIntent(RetrieveIntent),
        /// Artefacts fetched and structurally validated.
        8 "retrieve_done" RetrieveDone(ListingId),
        /// Plaintext recovered, re-encryption check passed, secrets learned.
        9 "decrypt_done" DecryptDone(ListingId),
        /// Buyer is about to reclaim the escrow after the seller timeout.
        10 "refund_intent" RefundIntent(ListingId),
        /// The refund landed on-chain.
        11 "refund_done" RefundDone(ListingId),
        /// The exchange reached a terminal state.
        12 "terminal" Terminal(Terminal),
    }
}

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

    fn sample_records() -> Vec<ExchangeRecord> {
        let listing = ListingId(3);
        vec![
            ExchangeRecord::ListIntent(ListIntent {
                token: TokenId(7),
                start_price: u128::from(u64::MAX) + 5,
                floor_price: 50,
                decay_per_block: 1,
                key_commitment: Fr::from(11u64),
                key_opening: Fr::from(13u64),
                predicate: "u8".into(),
            }),
            ExchangeRecord::ListDone(ListDone {
                listing,
                token: TokenId(7),
            }),
            ExchangeRecord::PayIntent(PayIntent {
                listing,
                token: TokenId(7),
                buyer: Address::from_seed(9),
                k_v: Fr::from(17u64),
                expected_commitment: Fr::from(19u64),
            }),
            ExchangeRecord::PayDone(PayDone { listing, price: 77 }),
            ExchangeRecord::SettleIntent(SettleIntent {
                listing,
                token: TokenId(7),
                k_v: Fr::from(17u64),
            }),
            ExchangeRecord::ProveDone(listing),
            ExchangeRecord::SettleDone(listing),
            ExchangeRecord::RetrieveIntent(RetrieveIntent {
                listing,
                attempt: 2,
            }),
            ExchangeRecord::RetrieveDone(listing),
            ExchangeRecord::DecryptDone(listing),
            ExchangeRecord::RefundIntent(listing),
            ExchangeRecord::RefundDone(listing),
            ExchangeRecord::Terminal(Terminal {
                listing,
                outcome: ExchangeOutcome::Refunded,
                reason: "seller missed the settlement deadline".into(),
            }),
        ]
    }

    /// The WAL byte format, pinned: tag, field order and field width of
    /// every record kind plus the traced frame. The literals were taken
    /// from the codec as it stood before intents became named structs; a
    /// change here is a format break, not a refactor.
    #[test]
    fn journal_bytes_are_pinned() {
        const GOLDEN: [(&str, &str); 14] = [
            ("list_intent", "0007000000000000000400000000000000010000000000000032000000000000000000000000000000010000000000000000000000000000000b000000000000000000000000000000000000000000000000000000000000000d0000000000000000000000000000000000000000000000000000000000000002000000000000007538"),
            ("list_done", "0103000000000000000700000000000000"),
            ("pay_intent", "0203000000000000000700000000000000588d22852c18d3b3988640b229271f78cf59719c11000000000000000000000000000000000000000000000000000000000000001300000000000000000000000000000000000000000000000000000000000000"),
            ("pay_done", "0303000000000000004d000000000000000000000000000000"),
            ("settle_intent", "04030000000000000007000000000000001100000000000000000000000000000000000000000000000000000000000000"),
            ("prove_done", "050300000000000000"),
            ("settle_done", "060300000000000000"),
            ("retrieve_intent", "0703000000000000000200000000000000"),
            ("retrieve_done", "080300000000000000"),
            ("decrypt_done", "090300000000000000"),
            ("refund_intent", "0a0300000000000000"),
            ("refund_done", "0b0300000000000000"),
            ("terminal", "0c030000000000000001250000000000000073656c6c6572206d69737365642074686520736574746c656d656e7420646561646c696e65"),
            ("traced", "ffad0befbeadde00000703000000000000000200000000000000"),
        ];
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let records = sample_records();
        let traced = encode_frame(Some(0xdead_beef_0bad), &records[7]);
        let got: Vec<(&str, String)> = records
            .iter()
            .map(|rec| (rec.step_name(), hex(&rec.to_bytes())))
            .chain([("traced", hex(&traced))])
            .collect();
        assert_eq!(got.len(), GOLDEN.len());
        for ((name, bytes), (want_name, want_bytes)) in got.iter().zip(GOLDEN) {
            assert_eq!((*name, bytes.as_str()), (want_name, want_bytes));
        }
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

    /// The FairSwap records that tags 13–20 once carried, as
    /// `journal_bytes_are_pinned` pinned them. The tags are retired, not
    /// reused: a journal holding one of these frames is refused whole.
    const RETIRED_SWAP_FRAMES: [&str; 8] = [
        "0d17000000000000000000000000000000000000000000000000000000000000001d00000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000001f00000000000000000000000000000000000000000000000000000000000000f4010000000000000000000000000000",
        "0e0100000000000000",
        "0f0100000000000000913acdd0ceb73a2b3b97c725e8146cec4e7b802701000000000000000100000000000000000000000000000000000000000000000000000000000000020000000000000002000000000000000000000000000000000000000000000000000000000000000300000000000000000000000000000000000000000000000000000000000000",
        "100100000000000000f4010000000000000000000000000000",
        "110100000000000000",
        "120100000000000000",
        "130100000000000000",
        "14010000000000000001",
    ];

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(ExchangeRecord::from_bytes(&[200, 0, 0]).is_err());
        assert!(ExchangeRecord::from_bytes(&[]).is_err());
        for hex in RETIRED_SWAP_FRAMES {
            let bare = unhex(hex);
            let mut traced = vec![TAG_TRACED];
            traced.extend_from_slice(&0xdead_beef_0badu64.to_le_bytes());
            traced.extend_from_slice(&bare);
            let err = ExchangeRecord::from_bytes(&bare).unwrap_err();
            assert!(matches!(err, ZkdetError::Codec(_)), "{hex}: {err}");
            for frame in [bare, traced] {
                let mut wal = Wal::new();
                wal.append(&frame).unwrap();
                let err = ExchangeWal::open(wal.durable_bytes().to_vec()).unwrap_err();
                assert!(matches!(err, ZkdetError::Codec(_)), "{hex}: {err}");
            }
        }
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
        wal.append(&ExchangeRecord::ProveDone(ListingId(1)))
            .unwrap();
        {
            let _g = zkdet_telemetry::enter_trace(trace);
            wal.append(&ExchangeRecord::SettleDone(ListingId(1)))
                .unwrap();
        }
        wal.append(&ExchangeRecord::Terminal(Terminal {
            listing: ListingId(1),
            outcome: ExchangeOutcome::Settled,
            reason: String::new(),
        }))
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
            .append(&ExchangeRecord::ProveDone(ListingId(0)))
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
                let rec = ExchangeRecord::PayIntent(PayIntent {
                    listing: ListingId(listing),
                    token: TokenId(token),
                    buyer: Address::from_seed(addr_seed),
                    k_v: Fr::from(kv_raw),
                    expected_commitment: Fr::from(com_raw),
                });
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
