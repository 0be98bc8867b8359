//! A small, explicit binary codec for the artefacts ZKDET persists in
//! public storage: ciphertexts and proof bundles.
//!
//! Hand-rolled rather than format-crate-based so the byte layout is part of
//! the specification: length-prefixed little-endian fields, canonical
//! field-element encodings (rejecting non-canonical values on decode).

use zkdet_crypto::mimc::Ciphertext;
use zkdet_curve::G1Affine;
use zkdet_field::{Fq, Fr, PrimeField};
use zkdet_plonk::Proof;

use crate::error::ZkdetError;

/// Incremental byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a u64 (LE).
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Writes a scalar-field element (32 bytes canonical LE).
    pub fn fr(&mut self, x: &Fr) {
        self.buf.extend_from_slice(&x.to_bytes());
    }

    /// Writes a base-field element.
    pub fn fq(&mut self, x: &Fq) {
        self.buf.extend_from_slice(&x.to_bytes());
    }

    /// Writes raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a u128 as two u64 limbs (low, high — LE throughout).
    pub fn u128(&mut self, x: u128) {
        self.u64(x as u64);
        self.u64((x >> 64) as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.raw(s.as_bytes());
    }

    /// Writes a G1 point in the canonical fixed 65-byte wire encoding
    /// (flag + x + y, identity zero-padded) so the byte layout of every
    /// artefact is position-independent of point values.
    pub fn g1(&mut self, p: &G1Affine) {
        self.raw(&p.to_uncompressed());
    }

    /// Writes a length-prefixed vector of scalars.
    pub fn fr_vec(&mut self, xs: &[Fr]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.fr(x);
        }
    }
}

/// Incremental byte reader.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ZkdetError> {
        if self.pos + n > self.data.len() {
            return Err(ZkdetError::Codec(format!(
                "truncated input: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Asserts the whole input was consumed.
    pub fn finish(&self) -> Result<(), ZkdetError> {
        if self.pos != self.data.len() {
            return Err(ZkdetError::Codec(format!(
                "{} trailing bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }

    /// Reads a u64 (LE).
    pub fn u64(&mut self) -> Result<u64, ZkdetError> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| ZkdetError::Codec("u64 slice length".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, ZkdetError> {
        Ok(self.take(1)?[0])
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw_bytes(&mut self, n: usize) -> Result<&'a [u8], ZkdetError> {
        self.take(n)
    }

    /// Reads a u128 written as two u64 limbs (low, high).
    pub fn u128(&mut self) -> Result<u128, ZkdetError> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Ok(u128::from(lo) | (u128::from(hi) << 64))
    }

    /// Reads a length-prefixed UTF-8 string (capped at 2²⁰ bytes).
    pub fn string(&mut self) -> Result<String, ZkdetError> {
        let n = self.u64()?;
        if n > 1 << 20 {
            return Err(ZkdetError::Codec(format!("string too long: {n}")));
        }
        let bytes = self.take(n as usize)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ZkdetError::Codec("non-UTF-8 string".into()))
    }

    /// Reads a canonical scalar-field element.
    pub fn fr(&mut self) -> Result<Fr, ZkdetError> {
        let bytes: [u8; 32] = self
            .take(32)?
            .try_into()
            .map_err(|_| ZkdetError::Codec("Fr slice length".into()))?;
        Fr::from_bytes(&bytes).ok_or_else(|| ZkdetError::Codec("non-canonical Fr".into()))
    }

    /// Reads a canonical base-field element.
    pub fn fq(&mut self) -> Result<Fq, ZkdetError> {
        let bytes: [u8; 32] = self
            .take(32)?
            .try_into()
            .map_err(|_| ZkdetError::Codec("Fq slice length".into()))?;
        Fq::from_bytes(&bytes).ok_or_else(|| ZkdetError::Codec("non-canonical Fq".into()))
    }

    /// Reads a G1 point in the canonical 65-byte wire encoding, with full
    /// validation (flag, canonical coordinates, curve membership, identity
    /// padding) delegated to [`G1Affine::from_uncompressed`].
    pub fn g1(&mut self) -> Result<G1Affine, ZkdetError> {
        let bytes = self.take(zkdet_curve::G1_UNCOMPRESSED_BYTES)?;
        G1Affine::from_uncompressed(bytes).map_err(ZkdetError::from)
    }

    /// Reads a length-prefixed vector of scalars (capped at 2²⁴ entries).
    pub fn fr_vec(&mut self) -> Result<Vec<Fr>, ZkdetError> {
        let n = self.u64()?;
        if n > 1 << 24 {
            return Err(ZkdetError::Codec(format!("vector too long: {n}")));
        }
        (0..n).map(|_| self.fr()).collect()
    }
}

/// Encodes a MiMC-CTR ciphertext.
pub fn encode_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut w = Writer::new();
    w.fr(&ct.nonce);
    w.fr_vec(&ct.blocks);
    w.into_bytes()
}

/// Decodes a MiMC-CTR ciphertext.
pub fn decode_ciphertext(data: &[u8]) -> Result<Ciphertext, ZkdetError> {
    let mut r = Reader::new(data);
    let nonce = r.fr()?;
    let blocks = r.fr_vec()?;
    r.finish()?;
    Ok(Ciphertext { nonce, blocks })
}

/// Encodes a PLONK proof in the canonical fixed-size wire format
/// ([`Proof::SIZE_BYTES`] = 9 G₁ + 6 F_r).
pub fn encode_proof(w: &mut Writer, p: &Proof) {
    w.raw(&p.to_bytes());
}

/// Decodes a PLONK proof, delegating every structural check (lengths,
/// flags, canonical coordinates, curve membership) to
/// [`Proof::from_bytes`].
pub fn decode_proof(r: &mut Reader<'_>) -> Result<Proof, ZkdetError> {
    let bytes = r.take(Proof::SIZE_BYTES)?;
    Proof::from_bytes(bytes).map_err(ZkdetError::from)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_crypto::mimc::MimcCtr;
    use zkdet_field::Field;

    #[test]
    fn ciphertext_roundtrip() {
        let mut rng = StdRng::seed_from_u64(500);
        let ctr = MimcCtr::new(Fr::random(&mut rng), Fr::random(&mut rng));
        let msg: Vec<Fr> = (0..7).map(|_| Fr::random(&mut rng)).collect();
        let ct = ctr.encrypt(&msg);
        let bytes = encode_ciphertext(&ct);
        assert_eq!(decode_ciphertext(&bytes).unwrap(), ct);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut rng = StdRng::seed_from_u64(501);
        let ctr = MimcCtr::new(Fr::random(&mut rng), Fr::random(&mut rng));
        let ct = ctr.encrypt(&[Fr::from(1u64)]);
        let bytes = encode_ciphertext(&ct);
        assert!(decode_ciphertext(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_ciphertext(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut rng = StdRng::seed_from_u64(502);
        let ctr = MimcCtr::new(Fr::random(&mut rng), Fr::random(&mut rng));
        let ct = ctr.encrypt(&[Fr::from(1u64)]);
        let mut bytes = encode_ciphertext(&ct);
        bytes.push(0);
        assert!(decode_ciphertext(&bytes).is_err());
    }

    #[test]
    fn proof_roundtrip() {
        // Produce a real proof and round-trip it.
        use zkdet_plonk::{CircuitBuilder, Plonk};
        let mut rng = StdRng::seed_from_u64(503);
        let srs = zkdet_kzg::Srs::universal_setup(32, &mut rng);
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(3u64));
        let y = b.mul(x, x);
        b.assert_constant(y, Fr::from(9u64));
        let circuit = b.build();
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();

        let mut w = Writer::new();
        encode_proof(&mut w, &proof);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 9 * 65 + 6 * 32, "canonical proof size");
        let mut r = Reader::new(&bytes);
        let decoded = decode_proof(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, proof);
        assert!(Plonk::verify(&vk, &[], &decoded));
    }

    #[test]
    fn corrupt_point_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        w.fq(&Fq::from(1u64));
        w.fq(&Fq::from(1u64)); // (1,1) is not on y² = x³ + 3
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.g1().is_err());
    }
}
