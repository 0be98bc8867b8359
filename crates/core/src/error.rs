//! The unified error type of the protocol layer, plus the
//! recoverable-vs-fatal taxonomy resilient drivers dispatch on.

use zkdet_chain::ChainError;
use zkdet_curve::WireError;
use zkdet_plonk::PlonkError;
use zkdet_storage::StorageError;

/// How a failed protocol step should be handled by a resilient driver.
///
/// The classification answers one question: *is it worth trying again, and
/// if not, can the buyer at least get the escrow back?*
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// Infrastructure hiccup (dropped requests, a refund attempted one
    /// block early): the same step may succeed if simply retried after
    /// some time passes.
    Transient,
    /// The exchange cannot complete — the artefacts are irretrievable,
    /// tampered with, or inconsistent with the on-chain record — but no
    /// money needs to be lost: abort and take the refund path once the
    /// timeout allows.
    AbortAndRefund,
    /// Integrity or programming error (invalid proof, missing secrets,
    /// protocol misuse): neither retrying nor refunding is meaningful.
    Fatal,
}

/// Anything that can go wrong while running the ZKDET protocols.
#[derive(Debug)]
pub enum ZkdetError {
    /// Chain-side failure (authorisation, funds, provenance rules…).
    Chain(ChainError),
    /// Storage-side failure (missing or tampered content).
    Storage(StorageError),
    /// Proving-system failure (SRS too small, unsatisfied witness…).
    Plonk(PlonkError),
    /// A zero-knowledge proof failed verification.
    ProofInvalid(&'static str),
    /// A lineage proof failed an audit, localised to the exact token and
    /// check (a rejected fold is re-verified per proof to recover this).
    LineageProofInvalid {
        /// The token whose check failed.
        token: zkdet_chain::TokenId,
        /// Which check failed ("π_e", "π_t (aggregation)", …).
        what: &'static str,
    },
    /// Retrieved bytes failed structural decoding.
    Codec(String),
    /// A published artefact is inconsistent with on-chain records.
    Inconsistent(String),
    /// Caller lacks the seller-side secrets for a token.
    MissingSecret(zkdet_chain::TokenId),
    /// Protocol-state misuse (e.g. settling an unlocked listing).
    Protocol(String),
    /// An artefact from a counterparty failed wire-format validation
    /// (off-curve point, non-canonical scalar, wrong length). Adversarial
    /// by definition — **never** classified transient, never retried.
    Wire(WireError),
    /// The write-ahead exchange journal failed (DESIGN.md §13).
    /// [`zkdet_wal::WalError::Crashed`] is the simulated process death the
    /// chaos harness injects; a checksum or framing failure means the
    /// durable journal itself cannot be trusted.
    Journal(zkdet_wal::WalError),
}

impl core::fmt::Display for ZkdetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ZkdetError::Chain(e) => write!(f, "chain error: {e}"),
            ZkdetError::Storage(e) => write!(f, "storage error: {e}"),
            ZkdetError::Plonk(e) => write!(f, "proving error: {e}"),
            ZkdetError::ProofInvalid(what) => write!(f, "proof rejected: {what}"),
            ZkdetError::LineageProofInvalid { token, what } => {
                write!(f, "proof rejected: {what} of token {token}")
            }
            ZkdetError::Codec(what) => write!(f, "decode failure: {what}"),
            ZkdetError::Inconsistent(what) => write!(f, "inconsistent artefact: {what}"),
            ZkdetError::MissingSecret(t) => write!(f, "no seller secrets for token {t}"),
            ZkdetError::Protocol(what) => write!(f, "protocol misuse: {what}"),
            ZkdetError::Wire(e) => write!(f, "hostile wire input: {e}"),
            ZkdetError::Journal(e) => write!(f, "exchange journal: {e}"),
        }
    }
}

impl ZkdetError {
    /// Classifies this error for a resilient exchange driver.
    ///
    /// - Storage faults that are transient by nature ([`StorageError::is_transient`])
    ///   and a [`ChainError::RefundTooEarly`] both map to [`Recovery::Transient`].
    /// - Content that is definitively gone or tampered with
    ///   ([`StorageError::NotFound`], [`StorageError::DigestMismatch`]), a
    ///   blob whose erasure quorum collapsed past the `n − k` fault budget
    ///   ([`StorageError::QuorumLoss`]), a publish that failed its
    ///   durability quorum ([`StorageError::InsufficientAcks`]), and
    ///   artefacts that fail decoding or contradict on-chain records map to
    ///   [`Recovery::AbortAndRefund`]: the data will not materialise, but
    ///   escrow can still be reclaimed — a seller's dataset vanishing
    ///   mid-exchange ends in refund, never a wedge.
    /// - Malformed wire input ([`ZkdetError::Wire`],
    ///   [`ChainError::MalformedCalldata`]) maps to
    ///   [`Recovery::AbortAndRefund`] — it is adversarial, not flaky, so a
    ///   retry would replay the hostile bytes; aborting preserves escrow.
    /// - A journal **crash** ([`zkdet_wal::WalError::Crashed`]) is
    ///   [`Recovery::Fatal`]: the process-model is dead and must stop
    ///   immediately — progress resumes only through
    ///   `Marketplace::recover`. A corrupt or malformed journal maps to
    ///   [`Recovery::AbortAndRefund`], like hostile wire input.
    /// - Everything else — rejected proofs, missing secrets, authorisation
    ///   and protocol-state errors — is [`Recovery::Fatal`].
    pub fn recovery(&self) -> Recovery {
        match self {
            ZkdetError::Storage(e) if e.is_transient() => Recovery::Transient,
            ZkdetError::Storage(StorageError::NotFound(_))
            | ZkdetError::Storage(StorageError::DigestMismatch(_))
            | ZkdetError::Storage(StorageError::QuorumLoss { .. })
            | ZkdetError::Storage(StorageError::InsufficientAcks { .. }) => {
                Recovery::AbortAndRefund
            }
            ZkdetError::Storage(_) => Recovery::Fatal,
            ZkdetError::Chain(ChainError::RefundTooEarly { .. }) => Recovery::Transient,
            ZkdetError::Chain(ChainError::MalformedCalldata(_)) => Recovery::AbortAndRefund,
            ZkdetError::Chain(_) => Recovery::Fatal,
            ZkdetError::Codec(_) | ZkdetError::Inconsistent(_) | ZkdetError::Wire(_) => {
                Recovery::AbortAndRefund
            }
            ZkdetError::Journal(zkdet_wal::WalError::Crashed) => Recovery::Fatal,
            ZkdetError::Journal(_) => Recovery::AbortAndRefund,
            ZkdetError::Plonk(_)
            | ZkdetError::ProofInvalid(_)
            | ZkdetError::LineageProofInvalid { .. }
            | ZkdetError::MissingSecret(_)
            | ZkdetError::Protocol(_) => Recovery::Fatal,
        }
    }
}

impl std::error::Error for ZkdetError {}

impl From<ChainError> for ZkdetError {
    fn from(e: ChainError) -> Self {
        ZkdetError::Chain(e)
    }
}

impl From<StorageError> for ZkdetError {
    fn from(e: StorageError) -> Self {
        ZkdetError::Storage(e)
    }
}

impl From<PlonkError> for ZkdetError {
    fn from(e: PlonkError) -> Self {
        ZkdetError::Plonk(e)
    }
}

impl From<WireError> for ZkdetError {
    fn from(e: WireError) -> Self {
        ZkdetError::Wire(e)
    }
}

impl From<zkdet_wal::WalError> for ZkdetError {
    fn from(e: zkdet_wal::WalError) -> Self {
        ZkdetError::Journal(e)
    }
}
