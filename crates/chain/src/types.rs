//! Primitive chain types.

use zkdet_crypto::sha256;

/// Wei — the smallest currency unit.
pub type Wei = u128;

/// A 20-byte account address (Ethereum style).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (mint/burn endpoint in transfer events).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Derives a deterministic address from a seed (simulating key-pair
    /// generation + address derivation).
    pub fn from_seed(seed: u64) -> Address {
        let mut data = b"zkdet-address".to_vec();
        data.extend_from_slice(&seed.to_le_bytes());
        let h = sha256(&data);
        let mut out = [0u8; 20];
        out.copy_from_slice(&h[12..32]);
        Address(out)
    }

    /// Derives a contract address from deployer + nonce (CREATE semantics).
    pub fn contract(deployer: &Address, nonce: u64) -> Address {
        let mut data = b"zkdet-create".to_vec();
        data.extend_from_slice(&deployer.0);
        data.extend_from_slice(&nonce.to_le_bytes());
        let h = sha256(&data);
        let mut out = [0u8; 20];
        out.copy_from_slice(&h[12..32]);
        Address(out)
    }
}

impl core::fmt::Debug for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An ERC-721 token identifier, unique within its contract.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct TokenId(pub u64);

impl core::fmt::Display for TokenId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_deterministic_and_distinct() {
        assert_eq!(Address::from_seed(1), Address::from_seed(1));
        assert_ne!(Address::from_seed(1), Address::from_seed(2));
        let c1 = Address::contract(&Address::from_seed(1), 0);
        let c2 = Address::contract(&Address::from_seed(1), 1);
        assert_ne!(c1, c2);
    }
}
