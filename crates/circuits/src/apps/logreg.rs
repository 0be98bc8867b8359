//! Proof of logistic-regression training (paper §IV-E1).
//!
//! The seller trains `β` on the committed source points and sells the
//! parameters as a derived dataset. The circuit verifies convergence by
//! recomputing **one** gradient-descent step from the sold iterate
//! `β = β^{(k)}` — exactly the paper's observation that "proving the
//! correctness of D requires only the last two iterations":
//!
//! 1. `β^{(k+1)}` is derived in-circuit via
//!    `βⱼ^{(k+1)} = βⱼ^{(k)} − (α/n)·Σᵢ xᵢⱼ·(h_β(xᵢ) − yᵢ)`,
//!    with the sigmoid evaluated through the gadget library's cubic
//!    approximation;
//! 2. convergence is asserted as `‖β^{(k+1)} − β^{(k)}‖² ≤ ε`.
//!
//! (The paper states the criterion on the loss difference
//! `‖J(β^{(k+1)}) − J(β^{(k)})‖ ≤ ε`; near a gradient-descent fixed point
//! the two are equivalent up to the step size — `J(β') − J(β) ≈ −‖β'−β‖²/α`
//! — and the parameter-space form avoids the in-circuit logarithm. The
//! `ln`-gadget needed for the literal form ships in
//! [`crate::gadgets::fixed::ln1p_approx`].)

use zkdet_crypto::commitment::{Commitment, Opening};
use zkdet_field::Fr;
use zkdet_plonk::{CircuitBuilder, CompiledCircuit};

use crate::gadgets::fixed::{encode, sigmoid};
use crate::gadgets::{poseidon_commit, Fixed};

/// Host-side training data for the regression proof.
#[derive(Clone, Debug)]
pub struct LogRegWitness {
    /// Feature rows `xᵢ ∈ ℝᵏ`.
    pub features: Vec<Vec<f64>>,
    /// Labels `yᵢ ∈ {0, 1}`.
    pub labels: Vec<f64>,
    /// The sold iterate `β^{(k)}` (including the intercept `β₀` at index 0).
    pub beta: Vec<f64>,
}

impl LogRegWitness {
    /// Flattened fixed-point encoding of the *source dataset* `S`
    /// (`[x₁…, y₁, x₂…, y₂, …]`) — what the seller committed and encrypted.
    pub fn source_encoding(&self) -> Vec<Fr> {
        let mut out = Vec::new();
        for (x, y) in self.features.iter().zip(&self.labels) {
            out.extend(x.iter().map(|v| encode(*v)));
            out.push(encode(*y));
        }
        out
    }

    /// Fixed-point encoding of the *derived dataset* `D = β`.
    pub fn derived_encoding(&self) -> Vec<Fr> {
        self.beta.iter().map(|v| encode(*v)).collect()
    }
}

/// Shape of the logistic-regression convergence circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogisticRegressionCircuit {
    /// Number of training samples `n`.
    pub num_samples: usize,
    /// Feature dimension `k` (excluding the intercept).
    pub num_features: usize,
    /// Gradient-descent step size `α` (structural constant).
    pub step_size_milli: u32,
    /// Convergence threshold `ε`, in units of `2⁻¹⁶` (structural constant).
    pub epsilon_scaled: u64,
}

impl LogisticRegressionCircuit {
    /// Standard shape: `α = 0.1`, `ε` tuned for fixed-point noise.
    pub fn new(num_samples: usize, num_features: usize) -> Self {
        LogisticRegressionCircuit {
            num_samples,
            num_features,
            step_size_milli: 100,
            epsilon_scaled: 64, // ε ≈ 10⁻³ in ‖·‖² units (‖Δβ‖ ≲ 0.03)
        }
    }

    /// Synthesizes the circuit.
    ///
    /// Statement: `(c_s, c_d)` — commitments to the source points and to
    /// the sold parameters. Witness: the points, `β`, and both openings.
    pub fn synthesize(
        &self,
        witness: &LogRegWitness,
        c_s: &Commitment,
        o_s: &Opening,
        c_d: &Commitment,
        o_d: &Opening,
    ) -> CompiledCircuit {
        assert_eq!(witness.features.len(), self.num_samples);
        assert_eq!(witness.labels.len(), self.num_samples);
        assert_eq!(witness.beta.len(), self.num_features + 1);
        let alpha = self.step_size_milli as f64 / 1000.0;

        let mut b = CircuitBuilder::new();
        let c_s_pub = b.public_input(c_s.0);
        let c_d_pub = b.public_input(c_d.0);

        // Witness wires: the flat source dataset and β.
        let mut source_wires = Vec::new();
        let mut x_wires: Vec<Vec<Fixed>> = Vec::with_capacity(self.num_samples);
        let mut y_wires: Vec<Fixed> = Vec::with_capacity(self.num_samples);
        for (x_row, y) in witness.features.iter().zip(&witness.labels) {
            assert_eq!(x_row.len(), self.num_features);
            let row: Vec<Fixed> = x_row.iter().map(|v| Fixed::alloc(&mut b, *v)).collect();
            source_wires.extend(row.iter().map(|f| f.0));
            let yv = Fixed::alloc(&mut b, *y);
            source_wires.push(yv.0);
            x_wires.push(row);
            y_wires.push(yv);
        }
        let beta: Vec<Fixed> = witness.beta.iter().map(|v| Fixed::alloc(&mut b, *v)).collect();

        // Commitment openings (CP links to π_e of both datasets).
        let o_s_var = b.alloc(o_s.0);
        let cs_computed = poseidon_commit(&mut b, &source_wires, o_s_var);
        b.assert_equal(cs_computed, c_s_pub);
        let beta_wires: Vec<_> = beta.iter().map(|f| f.0).collect();
        let o_d_var = b.alloc(o_d.0);
        let cd_computed = poseidon_commit(&mut b, &beta_wires, o_d_var);
        b.assert_equal(cd_computed, c_d_pub);

        // One gradient-descent step from β.
        // errors: eᵢ = σ(β₀ + Σⱼ βⱼ·xᵢⱼ) − yᵢ
        let mut errors = Vec::with_capacity(self.num_samples);
        for (x_row, y) in x_wires.iter().zip(&y_wires) {
            let mut t = beta[0];
            for (j, x) in x_row.iter().enumerate() {
                let term = beta[j + 1].mul(&mut b, *x);
                t = t.add(&mut b, term);
            }
            let h = sigmoid(&mut b, t);
            errors.push(h.sub(&mut b, *y));
        }
        // gradient and updated parameters; accumulate ‖Δβ‖².
        let scale = -alpha / self.num_samples as f64;
        let mut norm_sq = Fixed::constant(&mut b, 0.0);
        for j in 0..=self.num_features {
            let mut grad = Fixed::constant(&mut b, 0.0);
            for (i, e) in errors.iter().enumerate() {
                let contrib = if j == 0 {
                    *e
                } else {
                    e.mul(&mut b, x_wires[i][j - 1])
                };
                grad = grad.add(&mut b, contrib);
            }
            // Δβⱼ = −(α/n)·gradⱼ  (β' − β), so ‖Δβ‖² sums its squares.
            let delta = grad.mul_const(&mut b, scale);
            let d2 = delta.mul(&mut b, delta);
            norm_sq = norm_sq.add(&mut b, d2);
        }
        // Convergence: ‖Δβ‖² ≤ ε (non-negative by construction, so a
        // one-sided range bound suffices).
        let eps = Fr::from(self.epsilon_scaled);
        crate::gadgets::assert_lt_const(&mut b, norm_sq.0, eps + Fr::from(1u64), 48);

        b.build()
    }

    /// Public inputs `[c_s, c_d]`.
    pub fn public_inputs(&self, c_s: &Commitment, c_d: &Commitment) -> Vec<Fr> {
        vec![c_s.0, c_d.0]
    }
}

/// Trains until the circuit's convergence criterion `‖Δβ‖² ≤ ε` holds
/// (capped at `max_iters`), so the produced witness always satisfies the
/// proof relation. Returns `(β, iterations_used)`.
pub fn train_until_converged(
    features: &[Vec<f64>],
    labels: &[f64],
    alpha: f64,
    epsilon: f64,
    max_iters: usize,
) -> (Vec<f64>, usize) {
    let k = features[0].len();
    let n = features.len() as f64;
    let mut beta = vec![0.0; k + 1];
    for it in 0..max_iters {
        let grad = gradient(features, labels, &beta);
        let mut norm_sq = 0.0;
        for (b_j, g_j) in beta.iter_mut().zip(&grad) {
            let delta = -alpha * g_j / n;
            *b_j += delta;
            norm_sq += delta * delta;
        }
        if norm_sq <= epsilon * 0.25 {
            return (beta, it + 1);
        }
    }
    (beta, max_iters)
}

fn gradient(features: &[Vec<f64>], labels: &[f64], beta: &[f64]) -> Vec<f64> {
    let k = features[0].len();
    let mut grad = vec![0.0; k + 1];
    for (x, y) in features.iter().zip(labels) {
        let t: f64 = beta[0] + x.iter().zip(&beta[1..]).map(|(xi, bi)| xi * bi).sum::<f64>();
        let h = 0.5 + t / 4.0 - t * t * t / 48.0; // same cubic as in-circuit
        let e = h - y;
        grad[0] += e;
        for (g, xi) in grad[1..].iter_mut().zip(x) {
            *g += e * xi;
        }
    }
    grad
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use zkdet_crypto::commitment::CommitmentScheme;
    use zkdet_kzg::Srs;
    use zkdet_plonk::Plonk;

    fn synthetic_dataset(n: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        // Noisy labels around a mild linear rule (keeps the cubic-link
        // optimum at moderate ‖β‖ so gradient descent actually settles).
        let labels = features
            .iter()
            .map(|x| {
                let t: f64 = x.iter().sum::<f64>();
                if t + rng.gen_range(-0.5..0.5) > 0.0 { 1.0 } else { 0.0 }
            })
            .collect();
        (features, labels)
    }

    #[test]
    fn converged_training_proves() {
        let (features, labels) = synthetic_dataset(8, 2, 1);
        let eps = 64.0 / 65536.0;
        let (beta, iters) = train_until_converged(&features, &labels, 0.1, eps, 50_000);
        assert!(iters < 50_000, "training must converge");
        let witness = LogRegWitness {
            features,
            labels,
            beta,
        };
        let mut rng = StdRng::seed_from_u64(430);
        let (c_s, o_s) = CommitmentScheme::commit(&witness.source_encoding(), &mut rng);
        let (c_d, o_d) = CommitmentScheme::commit(&witness.derived_encoding(), &mut rng);
        let shape = LogisticRegressionCircuit::new(8, 2);
        let circuit = shape.synthesize(&witness, &c_s, &o_s, &c_d, &o_d);
        assert!(circuit.is_satisfied());

        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(Plonk::verify(&vk, &shape.public_inputs(&c_s, &c_d), &proof));
    }

    #[test]
    fn unconverged_beta_fails_synthesis() {
        // β = 0 with all-ones labels has intercept gradient Σ(0.5 − 1),
        // i.e. ‖Δβ‖ = α/2 — far above ε. The convergence bound is violated
        // and synthesis debug-panics (release: unsatisfiable circuit).
        let (features, _) = synthetic_dataset(8, 2, 2);
        let labels = vec![1.0; 8];
        let witness = LogRegWitness {
            beta: vec![0.0; 3],
            features,
            labels,
        };
        let mut rng = StdRng::seed_from_u64(431);
        let (c_s, o_s) = CommitmentScheme::commit(&witness.source_encoding(), &mut rng);
        let (c_d, o_d) = CommitmentScheme::commit(&witness.derived_encoding(), &mut rng);
        let shape = LogisticRegressionCircuit::new(8, 2);
        let result = std::panic::catch_unwind(move || {
            shape
                .synthesize(&witness, &c_s, &o_s, &c_d, &o_d)
                .is_satisfied()
        });
        if let Ok(ok) = result {
            assert!(!ok);
        }
    }

    #[test]
    fn gate_count_scales_linearly_in_samples() {
        let count = |n: usize| {
            let (features, labels) = synthetic_dataset(n, 2, 3);
            let eps = 64.0 / 65536.0;
            let (beta, _) = train_until_converged(&features, &labels, 0.1, eps, 50_000);
            let witness = LogRegWitness {
                features,
                labels,
                beta,
            };
            let mut rng = StdRng::seed_from_u64(432);
            let (c_s, o_s) = CommitmentScheme::commit(&witness.source_encoding(), &mut rng);
            let (c_d, o_d) = CommitmentScheme::commit(&witness.derived_encoding(), &mut rng);
            LogisticRegressionCircuit::new(n, 2)
                .synthesize(&witness, &c_s, &o_s, &c_d, &o_d)
                .rows()
        };
        let c8 = count(8);
        let c16 = count(16);
        assert!(c16 > c8);
        assert!(c16 <= 3 * c8, "should scale ~linearly: {c8} → {c16}");
    }
}
