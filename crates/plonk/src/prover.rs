//! The PLONK prover (`Prove(ek, x, w)`).
//!
//! Follows the final protocol of the PLONK paper (GWC19, §8.3): five rounds
//! of commit/challenge, a quotient computed on a `4n` coset, a linearisation
//! polynomial, and two batched KZG openings at `ζ` and `ζω`.

use rand::Rng;
use zkdet_field::{par, Field, Fr, PrimeField};
use zkdet_poly::DensePolynomial;

use crate::builder::CompiledCircuit;
use crate::preprocess::{PlonkError, ProvingKey};
use crate::proof::Proof;
use crate::transcript::Transcript;
use crate::{coset_k1, coset_k2};

/// Seeds a transcript with the verifying key and public inputs, exactly as
/// the verifier will.
pub(crate) fn init_transcript(
    vk: &crate::preprocess::VerifyingKey,
    public_inputs: &[Fr],
) -> Transcript {
    let mut t = Transcript::new(b"zkdet-plonk-v1");
    t.absorb_bytes(b"n", &(vk.n as u64).to_le_bytes());
    t.absorb_bytes(b"ell", &(vk.num_public_inputs as u64).to_le_bytes());
    for (label, c) in [
        (&b"ql"[..], &vk.q_l),
        (b"qr", &vk.q_r),
        (b"qo", &vk.q_o),
        (b"qm", &vk.q_m),
        (b"qc", &vk.q_c),
        (b"s1", &vk.sigma1),
        (b"s2", &vk.sigma2),
        (b"s3", &vk.sigma3),
    ] {
        t.absorb_g1(label, &c.0);
    }
    t.absorb_frs(b"public-inputs", public_inputs);
    t
}

/// The polynomial taking `evals` on the domain, plus `blinder(X)·(Xⁿ − 1)`
/// for the blinder with coefficients `blinders` (low first): it takes the
/// same values on the domain and hides them everywhere else.
fn blind(
    domain: &zkdet_poly::EvaluationDomain,
    evals: &[Fr],
    blinders: &[Fr],
) -> DensePolynomial {
    let n = domain.size();
    let mut coeffs = domain.ifft(evals);
    coeffs.resize(n + blinders.len(), Fr::ZERO);
    for (i, b) in blinders.iter().enumerate() {
        coeffs[i] -= *b;
        coeffs[n + i] += *b;
    }
    DensePolynomial::from_coefficients(coeffs)
}

/// Stamps how wide the witness on each wire is: the rows the circuit uses
/// before padding, and per wire the zero, ±1, other-below-2¹⁶ and
/// full-width counts — what a commitment that skips zero or short scalars
/// would have to go on.
fn record_wire_widths(
    span: &mut zkdet_telemetry::SpanGuard<'_>,
    rows_used: usize,
    wires: [&[Fr]; 3],
) {
    const KEYS: [[&str; 4]; 3] = [
        ["a_zero", "a_unit", "a_small", "a_full"],
        ["b_zero", "b_unit", "b_small", "b_full"],
        ["c_zero", "c_unit", "c_small", "c_full"],
    ];
    span.record("rows_used", rows_used as u64);
    for (vals, keys) in wires.iter().zip(KEYS) {
        let mut counts = [0u64; 4];
        for v in vals.iter() {
            let class = if v.is_zero() {
                0
            } else if *v == Fr::ONE || *v == -Fr::ONE {
                1
            } else {
                let limbs = v.to_canonical();
                if limbs[1..].iter().all(|l| *l == 0) && limbs[0] < 1 << 16 {
                    2
                } else {
                    3
                }
            };
            counts[class] += 1;
        }
        for (key, count) in keys.into_iter().zip(counts) {
            span.record(key, count);
        }
    }
}

/// Round 3's quotient `t = (gate + α·perm + α²·(z − 1)·L₁) / Z_H` as the
/// `4n` coefficients of the coset interpolation (degree ≤ 3n + 5 for a
/// satisfied witness). `polys` are `a, b, c, z, PI`; `challenges` are
/// `β, γ, α`.
///
/// The `4n` coset `g·⟨ω₄ₙ⟩` is walked as its four quarter-cosets
/// `s_j·⟨ω⟩`, `s_j = g·ω₄ₙʲ`, whose k-th point is the coset's point
/// `j + 4k`. Per quarter the five polynomials are evaluated into five
/// reused size-n buffers; `z(ωX)` is `z`'s quarter read one slot on;
/// `Z_H = s_jⁿ − 1` is one constant; `L₁/Z_H = 1/(n·(x − 1))`. The selector
/// and σ extensions in the key are read at `j + 4k`, the values land in
/// `t4[j + 4k]`, and one in-place coset iFFT turns `t4` into `t(X)`. Each
/// quarter is cut into `workers` runs of consecutive points, the first run
/// on the calling thread; every value is a function of its index alone.
fn quotient(
    pk: &ProvingKey,
    polys: [&DensePolynomial; 5],
    [beta, gamma, alpha]: [Fr; 3],
    workers: usize,
) -> Result<Vec<Fr>, PlonkError> {
    let domain = &pk.domain;
    let n = domain.size();
    let omega = domain.group_gen();
    let (beta_k1, beta_k2) = (beta * coset_k1(), beta * coset_k2());
    let alpha2 = alpha.square();
    let n_fr = Fr::from(n as u64);
    let chunk_len = n.div_ceil(workers.max(1));

    let mut t4 = vec![Fr::ZERO; pk.domain4.size()];
    let mut evals: [Vec<Fr>; 5] = Default::default();
    let mut shift = pk.domain4.coset_shift();
    for j in 0..4 {
        for (buf, p) in evals.iter_mut().zip(polys) {
            domain.coset_fft_into(p.coefficients(), shift, buf);
        }
        let zh_inv = (shift.pow(&[n as u64, 0, 0, 0]) - Fr::ONE)
            .inverse()
            .ok_or(PlonkError::Internal("quotient coset meets the domain"))?;
        let [a, b, c, z, pi] = &evals;
        let runs = t4.chunks_mut(4 * chunk_len).enumerate();
        par::for_each_parallel(runs, |(chunk_idx, out)| {
            let base = chunk_idx * chunk_len;
            let start = shift * omega.pow(&[base as u64, 0, 0, 0]);
            // L₁(x)/Z_H(x) = 1/(n·(x − 1)) over this run's points.
            let mut l1 = Vec::with_capacity(out.len() / 4);
            let mut x = start;
            for _ in 0..out.len() / 4 {
                l1.push(n_fr * (x - Fr::ONE));
                x *= omega;
            }
            Fr::batch_inverse(&mut l1);
            let mut x = start;
            for (off, point) in out.chunks_exact_mut(4).enumerate() {
                let k = base + off;
                let i = j + 4 * k;
                let gate = pk.q_ext[0][i] * a[k]
                    + pk.q_ext[1][i] * b[k]
                    + pk.q_ext[2][i] * c[k]
                    + pk.q_ext[3][i] * a[k] * b[k]
                    + pk.q_ext[4][i]
                    + pi[k];
                let perm1 = z[k]
                    * (a[k] + beta * x + gamma)
                    * (b[k] + beta_k1 * x + gamma)
                    * (c[k] + beta_k2 * x + gamma);
                let perm2 = z[(k + 1) % n]
                    * (a[k] + beta * pk.sigma_ext[0][i] + gamma)
                    * (b[k] + beta * pk.sigma_ext[1][i] + gamma)
                    * (c[k] + beta * pk.sigma_ext[2][i] + gamma);
                point[j] = (gate + alpha * (perm1 - perm2)) * zh_inv
                    + alpha2 * (z[k] - Fr::ONE) * l1[off];
                x *= omega;
            }
        });
        shift *= pk.domain4.group_gen();
    }
    drop(evals);
    pk.domain4.coset_ifft_in_place(&mut t4);
    Ok(t4)
}

/// Commits through the fallible SRS path, mapping degree overflow back to
/// the preprocessing-level error (the prover's polynomials only exceed the
/// SRS when preprocessing was handed an undersized one).
fn commit_checked(
    srs: &zkdet_kzg::Srs,
    p: &DensePolynomial,
) -> Result<zkdet_kzg::KzgCommitment, PlonkError> {
    srs.try_commit(p).map_err(|e| match e {
        zkdet_kzg::KzgError::DegreeTooLarge { degree, max } => PlonkError::SrsTooSmall {
            required: degree,
            available: max,
        },
        _ => PlonkError::Internal("SRS commitment failed"),
    })
}

/// Produces a proof for the compiled circuit's embedded witness.
pub(crate) fn prove<R: Rng + ?Sized>(
    pk: &ProvingKey,
    circuit: &CompiledCircuit,
    rng: &mut R,
) -> Result<Proof, PlonkError> {
    if !circuit.is_satisfied() {
        return Err(PlonkError::UnsatisfiedWitness);
    }
    let domain = &pk.domain;
    let n = domain.size();
    debug_assert_eq!(n, circuit.rows());
    let srs = &pk.srs;
    let ell = circuit.num_public_inputs();
    let public_inputs = circuit.public_values().to_vec();
    let (k1, k2) = (coset_k1(), coset_k2());

    let mut prove_span = zkdet_telemetry::span("plonk.prove");
    prove_span.record("n", n as u64);
    prove_span.record("public_inputs", ell as u64);
    zkdet_telemetry::counter_add("zkdet.plonk.prove.calls", 1);

    let mut transcript = init_transcript(&pk.vk, &public_inputs);

    // ---- Round 1: wire polynomials -------------------------------------
    let mut round_span = zkdet_telemetry::span("plonk.prove.round1.wires");
    let (a_vals, b_vals, c_vals) = circuit.wire_values();
    if zkdet_telemetry::is_enabled() {
        record_wire_widths(&mut round_span, circuit.rows_used(), [&a_vals, &b_vals, &c_vals]);
    }
    let mut wire_blinders = || [Fr::random(rng), Fr::random(rng)];
    let a_poly = blind(domain, &a_vals, &wire_blinders());
    let b_poly = blind(domain, &b_vals, &wire_blinders());
    let c_poly = blind(domain, &c_vals, &wire_blinders());
    // One commitment at a time: each msm already spreads over every core,
    // and only one of them holds its digit matrix and bucket scratch.
    let a_c = commit_checked(srs, &a_poly)?;
    let b_c = commit_checked(srs, &b_poly)?;
    let c_c = commit_checked(srs, &c_poly)?;
    transcript.absorb_g1(b"a", &a_c.0);
    transcript.absorb_g1(b"b", &b_c.0);
    transcript.absorb_g1(b"c", &c_c.0);
    let beta = transcript.challenge_fr(b"beta");
    let gamma = transcript.challenge_fr(b"gamma");
    drop(round_span);

    // ---- Round 2: permutation product z ---------------------------------
    let round_span = zkdet_telemetry::span("plonk.prove.round2.permutation");
    let z_poly = {
        let omegas = domain.elements();
        let mut denominators = Vec::with_capacity(n);
        let mut numerators = Vec::with_capacity(n);
        for i in 0..n {
            let num = (a_vals[i] + beta * omegas[i] + gamma)
                * (b_vals[i] + beta * k1 * omegas[i] + gamma)
                * (c_vals[i] + beta * k2 * omegas[i] + gamma);
            let den = (a_vals[i] + beta * pk.sigma_vals[0][i] + gamma)
                * (b_vals[i] + beta * pk.sigma_vals[1][i] + gamma)
                * (c_vals[i] + beta * pk.sigma_vals[2][i] + gamma);
            numerators.push(num);
            denominators.push(den);
        }
        Fr::batch_inverse(&mut denominators);
        let mut z_vals = Vec::with_capacity(n);
        let mut acc = Fr::ONE;
        for i in 0..n {
            z_vals.push(acc);
            acc *= numerators[i] * denominators[i];
        }
        debug_assert_eq!(acc, Fr::ONE, "permutation grand product must close");
        let z_blinders = [Fr::random(rng), Fr::random(rng), Fr::random(rng)];
        blind(domain, &z_vals, &z_blinders)
    };
    drop((a_vals, b_vals, c_vals));
    let z_c = commit_checked(srs, &z_poly)?;
    transcript.absorb_g1(b"z", &z_c.0);
    let alpha = transcript.challenge_fr(b"alpha");
    drop(round_span);

    // ---- Round 3: quotient ----------------------------------------------
    let mut round_span = zkdet_telemetry::span("plonk.prove.round3.quotient");
    round_span.record("coset_size", 4 * n as u64);
    // Public-input polynomial: PI(ωⁱ) = -xᵢ for i < ℓ.
    let mut pi_vals = vec![Fr::ZERO; n];
    for (i, x) in public_inputs.iter().enumerate() {
        pi_vals[i] = -*x;
    }
    domain.ifft_in_place(&mut pi_vals);
    let pi_poly = DensePolynomial::from_coefficients(pi_vals);

    let t_poly = DensePolynomial::from_coefficients(quotient(
        pk,
        [&a_poly, &b_poly, &c_poly, &z_poly, &pi_poly],
        [beta, gamma, alpha],
        par::cores(),
    )?);
    debug_assert!(
        t_poly.degree() <= 3 * n + 5,
        "quotient degree {} exceeds 3n+5",
        t_poly.degree()
    );

    // Split into three chunks of n+2 coefficients with cross blinding.
    let chunk = n + 2;
    let coeffs = t_poly.coefficients();
    let take = |lo: usize, hi: usize| -> Vec<Fr> {
        (lo..hi)
            .map(|i| coeffs.get(i).copied().unwrap_or(Fr::ZERO))
            .collect()
    };
    let b10 = Fr::random(rng);
    let b11 = Fr::random(rng);
    let mut t_lo_coeffs = take(0, chunk);
    t_lo_coeffs.push(b10); // + b10·X^{n+2}
    let mut t_mid_coeffs = take(chunk, 2 * chunk);
    t_mid_coeffs[0] -= b10;
    t_mid_coeffs.push(b11);
    let mut t_hi_coeffs = take(2 * chunk, coeffs.len().max(2 * chunk));
    if t_hi_coeffs.is_empty() {
        t_hi_coeffs.push(Fr::ZERO);
    }
    t_hi_coeffs[0] -= b11;
    let t_lo = DensePolynomial::from_coefficients(t_lo_coeffs);
    let t_mid = DensePolynomial::from_coefficients(t_mid_coeffs);
    let t_hi = DensePolynomial::from_coefficients(t_hi_coeffs);
    let t_lo_c = commit_checked(srs, &t_lo)?;
    let t_mid_c = commit_checked(srs, &t_mid)?;
    let t_hi_c = commit_checked(srs, &t_hi)?;
    transcript.absorb_g1(b"t_lo", &t_lo_c.0);
    transcript.absorb_g1(b"t_mid", &t_mid_c.0);
    transcript.absorb_g1(b"t_hi", &t_hi_c.0);
    let zeta = transcript.challenge_fr(b"zeta");
    drop(round_span);

    // ---- Round 4: evaluations -------------------------------------------
    let round_span = zkdet_telemetry::span("plonk.prove.round4.evaluations");
    let a_eval = a_poly.evaluate(&zeta);
    let b_eval = b_poly.evaluate(&zeta);
    let c_eval = c_poly.evaluate(&zeta);
    let sigma1_eval = pk.sigma_polys[0].evaluate(&zeta);
    let sigma2_eval = pk.sigma_polys[1].evaluate(&zeta);
    let zeta_omega = zeta * domain.group_gen();
    let z_omega_eval = z_poly.evaluate(&zeta_omega);
    transcript.absorb_frs(
        b"evals",
        &[a_eval, b_eval, c_eval, sigma1_eval, sigma2_eval, z_omega_eval],
    );
    let v = transcript.challenge_fr(b"v");
    drop(round_span);

    // ---- Round 5: linearisation and openings -----------------------------
    let round_span = zkdet_telemetry::span("plonk.prove.round5.openings");
    let alpha2 = alpha.square();
    let zeta_n = zeta.pow(&[n as u64, 0, 0, 0]);
    let zh_zeta = zeta_n - Fr::ONE;
    let l1_zeta = zh_zeta
        * (Fr::from(n as u64) * (zeta - Fr::ONE))
            .inverse()
            .ok_or(PlonkError::Internal("ζ collided with the domain"))?;
    let pi_zeta = pi_poly.evaluate(&zeta);

    // Gate part (polynomial in the selectors) + PI(ζ).
    let mut r = pk.q_polys[3].scale(a_eval * b_eval);
    r = &r + &pk.q_polys[0].scale(a_eval);
    r = &r + &pk.q_polys[1].scale(b_eval);
    r = &r + &pk.q_polys[2].scale(c_eval);
    r = &r + &pk.q_polys[4];
    r = &r + &DensePolynomial::constant(pi_zeta);
    // Permutation part.
    let z_coeff = alpha
        * (a_eval + beta * zeta + gamma)
        * (b_eval + beta * k1 * zeta + gamma)
        * (c_eval + beta * k2 * zeta + gamma)
        + alpha2 * l1_zeta;
    r = &r + &z_poly.scale(z_coeff);
    let sigma_factor = alpha * (a_eval + beta * sigma1_eval + gamma) * (b_eval + beta * sigma2_eval + gamma);
    r = &r - &pk.sigma_polys[2].scale(sigma_factor * beta * z_omega_eval);
    r = &r - &DensePolynomial::constant(sigma_factor * (c_eval + gamma) * z_omega_eval);
    r = &r - &DensePolynomial::constant(alpha2 * l1_zeta);
    // Quotient part.
    let zeta_chunk = zeta.pow(&[(n + 2) as u64, 0, 0, 0]);
    let mut t_combined = t_lo.clone();
    t_combined = &t_combined + &t_mid.scale(zeta_chunk);
    t_combined = &t_combined + &t_hi.scale(zeta_chunk.square());
    r = &r - &t_combined.scale(zh_zeta);

    debug_assert_eq!(r.evaluate(&zeta), Fr::ZERO, "linearisation must vanish at ζ");

    // Batched opening at ζ.
    let mut opening = r;
    let mut vp = Fr::ONE;
    for (poly, eval) in [
        (&a_poly, a_eval),
        (&b_poly, b_eval),
        (&c_poly, c_eval),
        (&pk.sigma_polys[0], sigma1_eval),
        (&pk.sigma_polys[1], sigma2_eval),
    ] {
        vp *= v;
        opening = &opening + &(poly - &DensePolynomial::constant(eval)).scale(vp);
    }
    let (w_quot, rem) = opening.divide_by_linear(zeta);
    debug_assert_eq!(rem, Fr::ZERO);
    let w_zeta = commit_checked(srs, &w_quot)?;

    // Opening of z at ζω.
    let (wz_quot, rem) = (&z_poly - &DensePolynomial::constant(z_omega_eval))
        .divide_by_linear(zeta_omega);
    debug_assert_eq!(rem, Fr::ZERO);
    let w_zeta_omega = commit_checked(srs, &wz_quot)?;

    transcript.absorb_g1(b"w_zeta", &w_zeta.0);
    transcript.absorb_g1(b"w_zeta_omega", &w_zeta_omega.0);
    let _u = transcript.challenge_fr(b"u"); // consumed by the verifier
    drop(round_span);
    drop(prove_span);

    Ok(Proof {
        a: a_c,
        b: b_c,
        c: c_c,
        z: z_c,
        t_lo: t_lo_c,
        t_mid: t_mid_c,
        t_hi: t_hi_c,
        w_zeta,
        w_zeta_omega,
        a_eval,
        b_eval,
        c_eval,
        sigma1_eval,
        sigma2_eval,
        z_omega_eval,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use rand::{rngs::StdRng, SeedableRng};

    use super::*;
    use crate::{CircuitBuilder, Plonk};

    /// The whole-coset quotient: every polynomial and `z(ωX)` extended onto
    /// the `4n` coset at once, `Z_H` and `L₁` as `4n` vectors of their own.
    fn quotient_4n_reference(
        pk: &ProvingKey,
        [a, b, c, z, pi]: [&DensePolynomial; 5],
        [beta, gamma, alpha]: [Fr; 3],
    ) -> Vec<Fr> {
        let (domain, domain4) = (&pk.domain, &pk.domain4);
        let z_shift = DensePolynomial::from_coefficients(
            z.coefficients()
                .iter()
                .enumerate()
                .map(|(i, c)| *c * domain.element(i))
                .collect(),
        );
        let ext = |p: &DensePolynomial| domain4.coset_fft(p.coefficients());
        let [a4, b4, c4, z4, pi4, zw4] = [a, b, c, z, pi, &z_shift].map(ext);
        let mut l1 = vec![Fr::ZERO; domain.size()];
        l1[0] = Fr::ONE;
        let l1_4 = ext(&DensePolynomial::from_coefficients(domain.ifft(&l1)));
        let (k1, k2) = (coset_k1(), coset_k2());
        let t4: Vec<Fr> = (0..domain4.size())
            .map(|i| {
                let x = domain4.coset_shift() * domain4.element(i);
                let gate = pk.q_ext[0][i] * a4[i]
                    + pk.q_ext[1][i] * b4[i]
                    + pk.q_ext[2][i] * c4[i]
                    + pk.q_ext[3][i] * a4[i] * b4[i]
                    + pk.q_ext[4][i]
                    + pi4[i];
                let perm1 = z4[i]
                    * (a4[i] + beta * x + gamma)
                    * (b4[i] + beta * k1 * x + gamma)
                    * (c4[i] + beta * k2 * x + gamma);
                let perm2 = zw4[i]
                    * (a4[i] + beta * pk.sigma_ext[0][i] + gamma)
                    * (b4[i] + beta * pk.sigma_ext[1][i] + gamma)
                    * (c4[i] + beta * pk.sigma_ext[2][i] + gamma);
                let num = gate
                    + alpha * (perm1 - perm2)
                    + alpha.square() * (z4[i] - Fr::ONE) * l1_4[i];
                num * domain.evaluate_vanishing(&x).inverse().unwrap()
            })
            .collect();
        domain4.coset_ifft(&t4)
    }

    /// A circuit of random additions and multiplications that pads to
    /// exactly `n` rows.
    fn random_circuit(n: usize, rng: &mut StdRng) -> crate::CompiledCircuit {
        let rows = n / 2 + 1 + rng.gen_range(0..n / 2);
        let mut b = CircuitBuilder::new();
        let mut vars = vec![b.alloc(Fr::random(rng)), b.public_input(Fr::random(rng))];
        while b.gate_count() + 1 < rows {
            let x = vars[rng.gen_range(0..vars.len())];
            let y = vars[rng.gen_range(0..vars.len())];
            let v = if rng.gen_bool(0.5) { b.add(x, y) } else { b.mul(x, y) };
            vars.push(v);
        }
        let circuit = b.build();
        assert_eq!(circuit.rows(), n);
        circuit
    }

    #[test]
    fn quarter_coset_quotient_equals_the_whole_coset_one() {
        let mut rng = StdRng::seed_from_u64(78);
        let srs = zkdet_kzg::Srs::universal_setup((1 << 10) + 5, &mut rng);
        for log_n in 3..=10 {
            let n = 1usize << log_n;
            let (pk, _) = Plonk::preprocess(&srs, &random_circuit(n, &mut rng)).unwrap();
            let mut poly = |len: usize| DensePolynomial::random(len - 1, &mut rng);
            let (a, b, c, z, pi) = (poly(n + 2), poly(n + 2), poly(n + 2), poly(n + 3), poly(n));
            let polys = [&a, &b, &c, &z, &pi];
            let challenges = [Fr::random(&mut rng), Fr::random(&mut rng), Fr::random(&mut rng)];
            let expected = quotient_4n_reference(&pk, polys, challenges);
            for workers in [1, 2, 5] {
                assert_eq!(
                    quotient(&pk, polys, challenges, workers).unwrap(),
                    expected,
                    "n = {n}, {workers} workers"
                );
            }
        }
    }
}
