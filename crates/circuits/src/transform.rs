//! Transformation predicates `π_t` (paper §IV-D): duplication, aggregation
//! and partition.
//!
//! All three relate datasets **through their Poseidon commitments** — the
//! CP-NIZK composition of §IV-B: the same commitment wires appear in `π_e`
//! (encryption) and `π_t` (transformation), so the chain
//! `π_{e_s} ∧ π_t ∧ π_{e_d}` proves the full claim without re-proving
//! encryption at every step.

use rand::Rng;
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_field::{Field, Fr};
use zkdet_plonk::{CircuitBuilder, CompiledCircuit, Variable};

use crate::gadgets::poseidon_commit;

fn commit_open(
    b: &mut CircuitBuilder,
    data: &[Variable],
    opening: Fr,
    public_commitment: Fr,
) -> Variable {
    let o = b.alloc(opening);
    let c_pub = b.public_input(public_commitment);
    let c_computed = poseidon_commit(b, data, o);
    b.assert_equal(c_computed, c_pub);
    c_pub
}

fn random_entries<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Vec<Fr> {
    (0..len).map(|_| Fr::random(rng)).collect()
}

/// Duplication (§IV-D 1): `D = S` with `n = m`, proven over commitments.
///
/// Statement: `(c_s, c_d)`. Witness: `(S, D, o_s, o_d)` with `D = S`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicationCircuit {
    /// Number of entries in each dataset.
    pub len: usize,
}

impl DuplicationCircuit {
    /// Shape for `len`-entry datasets.
    pub fn new(len: usize) -> Self {
        DuplicationCircuit { len }
    }

    /// Synthesizes with a concrete witness.
    pub fn synthesize(
        &self,
        source: &[Fr],
        c_s: &Commitment,
        o_s: &Opening,
        c_d: &Commitment,
        o_d: &Opening,
    ) -> CompiledCircuit {
        self.synthesize_builder(source, c_s, o_s, c_d, o_d).build()
    }

    /// Synthesizes the constraint system without finalizing it — the
    /// pre-build [`CircuitBuilder`] is what `zkdet-analyzer` analyzes.
    pub fn synthesize_builder(
        &self,
        source: &[Fr],
        c_s: &Commitment,
        o_s: &Opening,
        c_d: &Commitment,
        o_d: &Opening,
    ) -> CircuitBuilder {
        assert_eq!(source.len(), self.len);
        let mut b = CircuitBuilder::new();
        let s: Vec<_> = source.iter().map(|x| b.alloc(*x)).collect();
        // The replica shares the same wires: dᵢ = sᵢ by construction, and
        // both commitments open over the identical data.
        commit_open(&mut b, &s, o_s.0, c_s.0);
        commit_open(&mut b, &s, o_d.0, c_d.0);
        b
    }

    /// A satisfied instance: random data under two fresh commitments.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CircuitBuilder {
        let data = random_entries(self.len, rng);
        let (c_s, o_s) = CommitmentScheme::commit(&data, rng);
        let (c_d, o_d) = CommitmentScheme::commit(&data, rng);
        self.synthesize_builder(&data, &c_s, &o_s, &c_d, &o_d)
    }

    /// Public inputs: `[c_s, c_d]`.
    pub fn public_inputs(&self, c_s: &Commitment, c_d: &Commitment) -> Vec<Fr> {
        vec![c_s.0, c_d.0]
    }
}

/// Aggregation (§IV-D 2): `D = S₁ ‖ S₂ ‖ … ‖ Sₓ` in order of `k`, with
/// `m = Σ nₖ`, proven over commitments.
///
/// Statement: `(c_d, c_{s₁}, …, c_{sₓ})`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregationCircuit {
    /// Entry counts of the source datasets, in aggregation order.
    pub source_lens: Vec<usize>,
}

impl AggregationCircuit {
    /// Shape for sources of the given sizes.
    pub fn new(source_lens: Vec<usize>) -> Self {
        assert!(!source_lens.is_empty(), "aggregation needs ≥ 1 source");
        AggregationCircuit { source_lens }
    }

    /// Total derived length `m = Σ nₖ`.
    pub fn derived_len(&self) -> usize {
        self.source_lens.iter().sum()
    }

    /// Synthesizes with concrete witnesses. `sources[k]` must have length
    /// `source_lens[k]`; openings pair with `(derived, sources…)`.
    pub fn synthesize(
        &self,
        sources: &[Vec<Fr>],
        source_commitments: &[(Commitment, Opening)],
        c_d: &Commitment,
        o_d: &Opening,
    ) -> CompiledCircuit {
        self.synthesize_builder(sources, source_commitments, c_d, o_d)
            .build()
    }

    /// Synthesizes the constraint system without finalizing it — the
    /// pre-build [`CircuitBuilder`] is what `zkdet-analyzer` analyzes.
    pub fn synthesize_builder(
        &self,
        sources: &[Vec<Fr>],
        source_commitments: &[(Commitment, Opening)],
        c_d: &Commitment,
        o_d: &Opening,
    ) -> CircuitBuilder {
        assert_eq!(sources.len(), self.source_lens.len());
        assert_eq!(source_commitments.len(), sources.len());
        let mut b = CircuitBuilder::new();
        // Public inputs first: derived commitment, then source commitments,
        // in a fixed order (must match `public_inputs`).
        let mut all_wires: Vec<Variable> = Vec::with_capacity(self.derived_len());
        let mut per_source_wires: Vec<Vec<Variable>> = Vec::new();
        for (k, src) in sources.iter().enumerate() {
            assert_eq!(src.len(), self.source_lens[k], "source {k} length");
            let wires: Vec<_> = src.iter().map(|x| b.alloc(*x)).collect();
            all_wires.extend_from_slice(&wires);
            per_source_wires.push(wires);
        }
        // D is exactly the concatenation: same wires, no copies needed.
        commit_open(&mut b, &all_wires, o_d.0, c_d.0);
        for (wires, (c, o)) in per_source_wires.iter().zip(source_commitments) {
            commit_open(&mut b, wires, o.0, c.0);
        }
        b
    }

    /// A satisfied instance: random sources, each and their concatenation committed.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CircuitBuilder {
        let sources: Vec<Vec<Fr>> = self
            .source_lens
            .iter()
            .map(|len| random_entries(*len, rng))
            .collect();
        let commits: Vec<(Commitment, Opening)> = sources
            .iter()
            .map(|source| CommitmentScheme::commit(source, rng))
            .collect();
        let (c_d, o_d) = CommitmentScheme::commit(&sources.concat(), rng);
        self.synthesize_builder(&sources, &commits, &c_d, &o_d)
    }

    /// Public inputs: `[c_d, c_{s₁}, …, c_{sₓ}]`.
    pub fn public_inputs(&self, c_d: &Commitment, sources: &[Commitment]) -> Vec<Fr> {
        let mut pi = vec![c_d.0];
        pi.extend(sources.iter().map(|c| c.0));
        pi
    }
}

/// Partition (§IV-D 3): `S = D₁ ‖ … ‖ D_y` — an ordered split that is
/// exhaustive and mutually exclusive *by construction* (every source wire
/// feeds exactly one part), with `nₖ ≠ 0` enforced structurally.
///
/// Statement: `(c_s, c_{d₁}, …, c_{d_y})`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionCircuit {
    /// Entry counts of the parts, in order (all non-zero).
    pub part_lens: Vec<usize>,
}

impl PartitionCircuit {
    /// Shape for parts of the given sizes.
    ///
    /// # Panics
    ///
    /// Panics if any part is empty (`nₖ ≠ 0` is part of the §IV-D relation).
    pub fn new(part_lens: Vec<usize>) -> Self {
        assert!(!part_lens.is_empty(), "partition needs ≥ 1 part");
        assert!(
            part_lens.iter().all(|n| *n > 0),
            "partition parts must be non-empty (nₖ ≠ 0)"
        );
        PartitionCircuit { part_lens }
    }

    /// Total source length.
    pub fn source_len(&self) -> usize {
        self.part_lens.iter().sum()
    }

    /// Synthesizes with a concrete witness.
    pub fn synthesize(
        &self,
        source: &[Fr],
        c_s: &Commitment,
        o_s: &Opening,
        part_commitments: &[(Commitment, Opening)],
    ) -> CompiledCircuit {
        self.synthesize_builder(source, c_s, o_s, part_commitments)
            .build()
    }

    /// Synthesizes the constraint system without finalizing it — the
    /// pre-build [`CircuitBuilder`] is what `zkdet-analyzer` analyzes.
    pub fn synthesize_builder(
        &self,
        source: &[Fr],
        c_s: &Commitment,
        o_s: &Opening,
        part_commitments: &[(Commitment, Opening)],
    ) -> CircuitBuilder {
        assert_eq!(source.len(), self.source_len());
        assert_eq!(part_commitments.len(), self.part_lens.len());
        let mut b = CircuitBuilder::new();
        let s: Vec<_> = source.iter().map(|x| b.alloc(*x)).collect();
        commit_open(&mut b, &s, o_s.0, c_s.0);
        let mut offset = 0;
        for (len, (c, o)) in self.part_lens.iter().zip(part_commitments) {
            let part = &s[offset..offset + len];
            commit_open(&mut b, part, o.0, c.0);
            offset += len;
        }
        b
    }

    /// A satisfied instance: a random source, committed whole and per part.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CircuitBuilder {
        let source = random_entries(self.source_len(), rng);
        let (c_s, o_s) = CommitmentScheme::commit(&source, rng);
        let mut offset = 0;
        let parts: Vec<(Commitment, Opening)> = self
            .part_lens
            .iter()
            .map(|len| {
                let part = &source[offset..offset + len];
                offset += len;
                CommitmentScheme::commit(part, rng)
            })
            .collect();
        self.synthesize_builder(&source, &c_s, &o_s, &parts)
    }

    /// Public inputs: `[c_s, c_{d₁}, …, c_{d_y}]`.
    pub fn public_inputs(&self, c_s: &Commitment, parts: &[Commitment]) -> Vec<Fr> {
        let mut pi = vec![c_s.0];
        pi.extend(parts.iter().map(|c| c.0));
        pi
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_kzg::Srs;
    use zkdet_plonk::Plonk;

    fn prove_verify(circuit: &CompiledCircuit, publics: &[Fr], rng: &mut StdRng) -> bool {
        let srs = Srs::universal_setup(circuit.rows() + 8, rng);
        let (pk, vk) = Plonk::preprocess(&srs, circuit).unwrap();
        let proof = Plonk::prove(&pk, circuit, rng).unwrap();
        Plonk::verify(&vk, publics, &proof)
    }

    #[test]
    fn duplication_proves() {
        let mut rng = StdRng::seed_from_u64(410);
        let data: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let (c_s, o_s) = CommitmentScheme::commit(&data, &mut rng);
        let (c_d, o_d) = CommitmentScheme::commit(&data, &mut rng);
        let shape = DuplicationCircuit::new(5);
        let circuit = shape.synthesize(&data, &c_s, &o_s, &c_d, &o_d);
        assert!(prove_verify(
            &circuit,
            &shape.public_inputs(&c_s, &c_d),
            &mut rng
        ));
        // Hiding: both commitments differ although the data is identical.
        assert_ne!(c_s, c_d);
    }

    #[test]
    fn duplication_rejects_unrelated_commitment() {
        let mut rng = StdRng::seed_from_u64(411);
        let data: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let other: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let (c_s, o_s) = CommitmentScheme::commit(&data, &mut rng);
        let (c_d, o_d) = CommitmentScheme::commit(&data, &mut rng);
        let (c_x, _) = CommitmentScheme::commit(&other, &mut rng);
        let shape = DuplicationCircuit::new(4);
        let circuit = shape.synthesize(&data, &c_s, &o_s, &c_d, &o_d);
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        // Claiming the duplicate is of different data fails.
        assert!(!Plonk::verify(&vk, &shape.public_inputs(&c_x, &c_d), &proof));
    }

    #[test]
    fn aggregation_concatenates() {
        let mut rng = StdRng::seed_from_u64(412);
        let s1: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let s2: Vec<Fr> = (0..2).map(|_| Fr::random(&mut rng)).collect();
        let mut d = s1.clone();
        d.extend_from_slice(&s2);
        let co1 = CommitmentScheme::commit(&s1, &mut rng);
        let co2 = CommitmentScheme::commit(&s2, &mut rng);
        let (c_d, o_d) = CommitmentScheme::commit(&d, &mut rng);
        let shape = AggregationCircuit::new(vec![3, 2]);
        assert_eq!(shape.derived_len(), 5);
        let circuit = shape.synthesize(
            &[s1, s2],
            &[(co1.0, co1.1), (co2.0, co2.1)],
            &c_d,
            &o_d,
        );
        assert!(prove_verify(
            &circuit,
            &shape.public_inputs(&c_d, &[co1.0, co2.0]),
            &mut rng
        ));
    }

    #[test]
    fn aggregation_order_matters() {
        // Committing to s2 ‖ s1 under a circuit claiming s1 ‖ s2 must fail
        // at synthesis (witness inconsistency) or at proving.
        let mut rng = StdRng::seed_from_u64(413);
        let s1: Vec<Fr> = (0..2).map(|_| Fr::random(&mut rng)).collect();
        let s2: Vec<Fr> = (0..2).map(|_| Fr::random(&mut rng)).collect();
        let mut wrong_d = s2.clone();
        wrong_d.extend_from_slice(&s1); // reversed order
        let co1 = CommitmentScheme::commit(&s1, &mut rng);
        let co2 = CommitmentScheme::commit(&s2, &mut rng);
        let (c_d, o_d) = CommitmentScheme::commit(&wrong_d, &mut rng);
        let shape = AggregationCircuit::new(vec![2, 2]);
        let sources = [s1, s2];
        let commits = [(co1.0, co1.1), (co2.0, co2.1)];
        let result = std::panic::catch_unwind(move || {
            shape
                .synthesize(&sources, &commits, &c_d, &o_d)
                .is_satisfied()
        });
        // Err means the debug assertion caught the inconsistent witness.
        if let Ok(ok) = result {
            assert!(!ok);
        }
    }

    #[test]
    fn partition_splits() {
        let mut rng = StdRng::seed_from_u64(414);
        let source: Vec<Fr> = (0..6).map(|_| Fr::random(&mut rng)).collect();
        let (c_s, o_s) = CommitmentScheme::commit(&source, &mut rng);
        let p1 = CommitmentScheme::commit(&source[..2], &mut rng);
        let p2 = CommitmentScheme::commit(&source[2..6], &mut rng);
        let shape = PartitionCircuit::new(vec![2, 4]);
        let circuit = shape.synthesize(&source, &c_s, &o_s, &[(p1.0, p1.1), (p2.0, p2.1)]);
        assert!(prove_verify(
            &circuit,
            &shape.public_inputs(&c_s, &[p1.0, p2.0]),
            &mut rng
        ));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn partition_rejects_empty_part() {
        let _ = PartitionCircuit::new(vec![3, 0]);
    }
}
