//! Content identifiers.

use zkdet_crypto::sha256;

/// A content identifier: the SHA-256 digest of the stored bytes.
///
/// In the paper's notation this is the dataset URI `c ← H(Ĉ)` — since IPFS
/// addresses content by hash, the URI doubles as a hash commitment to the
/// ciphertext (§III-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cid(pub [u8; 32]);

impl Cid {
    /// Computes the CID of a byte string.
    pub fn from_bytes(data: &[u8]) -> Cid {
        Cid(sha256(data))
    }

    /// Verifies that `data` hashes to this CID.
    pub fn matches(&self, data: &[u8]) -> bool {
        Cid::from_bytes(data) == *self
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    fn short_hex(&self) -> String {
        self.0[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl core::fmt::Debug for Cid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Cid({}…)", self.short_hex())
    }
}

impl core::fmt::Display for Cid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cid:{}…", self.short_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_is_deterministic_and_content_bound() {
        let a = Cid::from_bytes(b"hello");
        let b = Cid::from_bytes(b"hello");
        let c = Cid::from_bytes(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.matches(b"hello"));
        assert!(!a.matches(b"hellp"));
    }

    #[test]
    fn display_is_short_hex() {
        let s = format!("{}", Cid::from_bytes(b"x"));
        assert!(s.starts_with("cid:"));
        assert!(s.len() < 25);
    }
}
