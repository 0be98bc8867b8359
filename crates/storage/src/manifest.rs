//! Share manifests: the binding between a content CID and its erasure
//! shares.
//!
//! A quorum publish splits the blob into `n` shares and records, in a
//! [`ShareManifest`], the SHA-256 digest of every share alongside the
//! content CID, the codec parameters, and the true byte length (shares are
//! zero-padded to a common length). The manifest is what turns node-level
//! suspicion into **share-level attribution**: a Byzantine replica that
//! serves plausible-but-wrong bytes for share `i` fails
//! [`ShareManifest::verify_share`] for exactly that `(node, content, i)`
//! triple, so the reader can quarantine the node, log the evidence, and
//! keep reconstructing from honest shares — without trusting any replica's
//! self-report.

use zkdet_crypto::sha256;

use crate::cid::Cid;
use crate::erasure::ErasureCodec;

/// Domain separator for share placement keys.
const SHARE_KEY_DOMAIN: &[u8] = b"zkdet-quorum-share";

/// The DHT key under which share `index` of `content` is stored.
///
/// Deriving placement keys from the content CID keeps the scheme
/// content-addressed (anyone holding the CID can locate every share) while
/// spreading the `n` shares across the keyspace so one node is not the
/// XOR-closest home of all of them.
pub fn share_key(content: &Cid, index: u32) -> Cid {
    let mut buf = Vec::with_capacity(SHARE_KEY_DOMAIN.len() + 32 + 4);
    buf.extend_from_slice(SHARE_KEY_DOMAIN);
    buf.extend_from_slice(content.as_bytes());
    buf.extend_from_slice(&index.to_be_bytes());
    Cid(sha256(&buf))
}

/// Errors from decoding or validating a serialized manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The byte string is not a well-formed manifest.
    Malformed(&'static str),
    /// Codec parameters embedded in the manifest are invalid.
    BadParameters {
        /// `k` from the manifest.
        data_shares: u32,
        /// `n` from the manifest.
        total_shares: u32,
    },
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ManifestError::Malformed(what) => write!(f, "malformed share manifest: {what}"),
            ManifestError::BadParameters {
                data_shares,
                total_shares,
            } => write!(
                f,
                "share manifest carries invalid parameters k={data_shares} n={total_shares}"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Per-content record binding every erasure share's digest to the CID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShareManifest {
    content: Cid,
    data_shares: u32,
    total_shares: u32,
    data_len: u64,
    share_digests: Vec<[u8; 32]>,
}

impl ShareManifest {
    /// Builds the manifest for `shares` as produced by `codec.encode`.
    pub fn build(content: Cid, codec: &ErasureCodec, data_len: u64, shares: &[Vec<u8>]) -> Self {
        ShareManifest {
            content,
            data_shares: codec.data_shares() as u32,
            total_shares: codec.total_shares() as u32,
            data_len,
            share_digests: shares.iter().map(|s| sha256(s)).collect(),
        }
    }

    /// The content CID this manifest describes.
    pub fn content(&self) -> Cid {
        self.content
    }

    /// `k`: shares required for reconstruction.
    pub fn data_shares(&self) -> u32 {
        self.data_shares
    }

    /// `n`: total shares published.
    pub fn total_shares(&self) -> u32 {
        self.total_shares
    }

    /// True byte length of the blob (shares are zero-padded beyond it).
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// The DHT placement key of share `index`.
    pub fn share_key(&self, index: u32) -> Cid {
        share_key(&self.content, index)
    }

    /// Checks `bytes` against the recorded digest of share `index`.
    /// Out-of-range indices verify as `false`.
    pub fn verify_share(&self, index: u32, bytes: &[u8]) -> bool {
        self.share_digests
            .get(index as usize)
            .is_some_and(|digest| &sha256(bytes) == digest)
    }

    /// Digest over the canonical encoding — a commitment to the whole
    /// share layout, suitable for countersigning or on-chain anchoring.
    pub fn digest(&self) -> [u8; 32] {
        sha256(&self.to_bytes())
    }

    /// Canonical byte encoding: `content ‖ k ‖ n ‖ data_len ‖ digests`,
    /// all integers big-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + 4 + 4 + 8 + 32 * self.share_digests.len());
        buf.extend_from_slice(self.content.as_bytes());
        buf.extend_from_slice(&self.data_shares.to_be_bytes());
        buf.extend_from_slice(&self.total_shares.to_be_bytes());
        buf.extend_from_slice(&self.data_len.to_be_bytes());
        for d in &self.share_digests {
            buf.extend_from_slice(d);
        }
        buf
    }

    /// Decodes and validates a canonical encoding.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Malformed`] on truncation or trailing bytes;
    /// [`ManifestError::BadParameters`] if the embedded `k`/`n` are not a
    /// valid codec configuration or the digest count disagrees with `n`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        const HEADER: usize = 32 + 4 + 4 + 8;
        if bytes.len() < HEADER {
            return Err(ManifestError::Malformed("truncated header"));
        }
        let mut content = [0u8; 32];
        content.copy_from_slice(&bytes[..32]);
        let mut u32buf = [0u8; 4];
        u32buf.copy_from_slice(&bytes[32..36]);
        let data_shares = u32::from_be_bytes(u32buf);
        u32buf.copy_from_slice(&bytes[36..40]);
        let total_shares = u32::from_be_bytes(u32buf);
        let mut u64buf = [0u8; 8];
        u64buf.copy_from_slice(&bytes[40..48]);
        let data_len = u64::from_be_bytes(u64buf);
        if ErasureCodec::new(data_shares as usize, total_shares as usize).is_err() {
            return Err(ManifestError::BadParameters {
                data_shares,
                total_shares,
            });
        }
        let body = &bytes[HEADER..];
        if body.len() != 32 * total_shares as usize {
            return Err(ManifestError::Malformed("digest section length"));
        }
        let share_digests = body
            .chunks_exact(32)
            .map(|c| {
                let mut d = [0u8; 32];
                d.copy_from_slice(c);
                d
            })
            .collect();
        Ok(ShareManifest {
            content: Cid(content),
            data_shares,
            total_shares,
            data_len,
            share_digests,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn sample() -> (ShareManifest, Vec<Vec<u8>>, Vec<u8>) {
        let codec = ErasureCodec::new(4, 8).unwrap();
        let data: Vec<u8> = (0..100u8).collect();
        let shares = codec.encode(&data);
        let manifest =
            ShareManifest::build(Cid::from_bytes(&data), &codec, data.len() as u64, &shares);
        (manifest, shares, data)
    }

    #[test]
    fn verifies_genuine_shares_and_rejects_tampered_ones() {
        let (manifest, shares, _) = sample();
        for (i, s) in shares.iter().enumerate() {
            assert!(manifest.verify_share(i as u32, s));
        }
        let mut forged = shares[3].clone();
        forged[0] ^= 1;
        assert!(!manifest.verify_share(3, &forged));
        assert!(!manifest.verify_share(99, &shares[0]));
        // A genuine share presented under the wrong index is also rejected.
        assert!(!manifest.verify_share(0, &shares[1]));
    }

    #[test]
    fn roundtrips_through_bytes() {
        let (manifest, _, _) = sample();
        let decoded = ShareManifest::from_bytes(&manifest.to_bytes()).unwrap();
        assert_eq!(decoded, manifest);
        assert_eq!(decoded.digest(), manifest.digest());
    }

    #[test]
    fn rejects_malformed_encodings() {
        let (manifest, _, _) = sample();
        let bytes = manifest.to_bytes();
        assert!(ShareManifest::from_bytes(&bytes[..10]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(ShareManifest::from_bytes(&extra).is_err());
        let mut bad_params = bytes;
        bad_params[32..36].copy_from_slice(&0u32.to_be_bytes()); // k = 0
        assert!(matches!(
            ShareManifest::from_bytes(&bad_params),
            Err(ManifestError::BadParameters { .. })
        ));
    }

    #[test]
    fn share_keys_are_distinct_and_content_bound() {
        let a = Cid::from_bytes(b"a");
        let b = Cid::from_bytes(b"b");
        let mut keys: Vec<Cid> = (0..8).map(|i| share_key(&a, i)).collect();
        keys.extend((0..8).map(|i| share_key(&b, i)));
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16, "share keys must be pairwise distinct");
        assert!(!keys.contains(&a), "share keys must not collide with the CID");
    }
}
