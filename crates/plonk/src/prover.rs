//! The PLONK prover (`Prove(ek, x, w)`).
//!
//! Follows the final protocol of the PLONK paper (GWC19, §8.3): five rounds
//! of commit/challenge, a quotient computed on a `4n` coset, a linearisation
//! polynomial, and two batched KZG openings at `ζ` and `ζω`.

use rand::Rng;
use zkdet_field::{Field, Fr};
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

/// Multiplies a low-degree polynomial by the vanishing polynomial
/// `Z_H = Xⁿ - 1`.
fn mul_by_vanishing(p: &DensePolynomial, n: usize) -> DensePolynomial {
    &p.shift_up(n) - p
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
    let domain4 = &pk.domain4;
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
    let round_span = zkdet_telemetry::span("plonk.prove.round1.wires");
    let (a_vals, b_vals, c_vals) = circuit.wire_values();
    let blind = |vals: &[Fr], rng: &mut R, domain: &zkdet_poly::EvaluationDomain| {
        let base = DensePolynomial::from_coefficients(domain.ifft(vals));
        let blinder =
            DensePolynomial::from_coefficients(vec![Fr::random(rng), Fr::random(rng)]);
        &base + &mul_by_vanishing(&blinder, domain.size())
    };
    let a_poly = blind(&a_vals, rng, domain);
    let b_poly = blind(&b_vals, rng, domain);
    let c_poly = blind(&c_vals, rng, domain);
    let [a_c, b_c, c_c] = {
        let polys = [&a_poly, &b_poly, &c_poly];
        let mut out = [zkdet_kzg::KzgCommitment(zkdet_curve::G1Affine::identity()); 3];
        // zkdet-analyzer: allow(raw-thread-spawn) three wire commitments, joined in wire order before the transcript absorbs them; no RNG on the workers
        crossbeam::thread::scope(|scope| -> Result<(), PlonkError> {
            let handles: Vec<_> = polys
                .iter()
                .map(|p| scope.spawn(move |_| commit_checked(srs, p)))
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = h
                    .join()
                    .map_err(|_| PlonkError::Internal("commit worker panicked"))??;
            }
            Ok(())
        })
        .map_err(|_| PlonkError::Internal("commit scope panicked"))??;
        out
    };
    transcript.absorb_g1(b"a", &a_c.0);
    transcript.absorb_g1(b"b", &b_c.0);
    transcript.absorb_g1(b"c", &c_c.0);
    let beta = transcript.challenge_fr(b"beta");
    let gamma = transcript.challenge_fr(b"gamma");
    drop(round_span);

    // ---- Round 2: permutation product z ---------------------------------
    let round_span = zkdet_telemetry::span("plonk.prove.round2.permutation");
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
    let z_base = DensePolynomial::from_coefficients(domain.ifft(&z_vals));
    let z_blinder = DensePolynomial::from_coefficients(vec![
        Fr::random(rng),
        Fr::random(rng),
        Fr::random(rng),
    ]);
    let z_poly = &z_base + &mul_by_vanishing(&z_blinder, n);
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
    let pi_poly = DensePolynomial::from_coefficients(domain.ifft(&pi_vals));

    // z(ωX): coefficients zᵢ·ωⁱ.
    let z_shift_poly = DensePolynomial::from_coefficients(
        z_poly
            .coefficients()
            .iter()
            .scan(Fr::ONE, |w, c| {
                let out = *c * *w;
                *w *= domain.group_gen();
                Some(out)
            })
            .collect(),
    );
    // Six independent coset extensions — run them on scoped threads.
    let [a4, b4, c4, z4, pi4, zw4] = {
        let polys = [&a_poly, &b_poly, &c_poly, &z_poly, &pi_poly, &z_shift_poly];
        let mut out: [Vec<Fr>; 6] = Default::default();
        // zkdet-analyzer: allow(raw-thread-spawn) six pure coset FFTs, joined in a fixed order into fixed slots
        crossbeam::thread::scope(|scope| -> Result<(), PlonkError> {
            let handles: Vec<_> = polys
                .iter()
                .map(|p| scope.spawn(move |_| domain4.coset_fft(p.coefficients())))
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = h
                    .join()
                    .map_err(|_| PlonkError::Internal("coset fft worker panicked"))?;
            }
            Ok(())
        })
        .map_err(|_| PlonkError::Internal("coset fft scope panicked"))??;
        out
    };

    // Coset point values X and vanishing values Xⁿ - 1.
    let g = domain4.coset_shift();
    let n4 = domain4.size();
    let mut x4 = Vec::with_capacity(n4);
    let mut xv = g;
    for _ in 0..n4 {
        x4.push(xv);
        xv *= domain4.group_gen();
    }
    let w4_n = domain4.group_gen().pow(&[n as u64, 0, 0, 0]);
    let g_n = g.pow(&[n as u64, 0, 0, 0]);
    let mut zh4 = Vec::with_capacity(n4);
    let mut acc_zh = g_n;
    for _ in 0..n4 {
        zh4.push(acc_zh - Fr::ONE);
        acc_zh *= w4_n;
    }
    Fr::batch_inverse(&mut zh4);

    let alpha2 = alpha.square();
    let mut t4 = vec![Fr::ZERO; n4];
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let chunk_len = n4.div_ceil(threads);
    // zkdet-analyzer: allow(raw-thread-spawn) quotient evaluations over disjoint output chunks; each value is a pure function of its index, whatever the chunking
    crossbeam::thread::scope(|scope| {
        for (chunk_idx, out_chunk) in t4.chunks_mut(chunk_len).enumerate() {
            let (a4, b4, c4, z4, pi4, zw4) = (&a4, &b4, &c4, &z4, &pi4, &zw4);
            let (x4, zh4) = (&x4, &zh4);
            let pk = &pk;
            scope.spawn(move |_| {
                let base = chunk_idx * chunk_len;
                for (j, slot) in out_chunk.iter_mut().enumerate() {
                    let i = base + j;
                    let gate = pk.q_ext[0][i] * a4[i]
                        + pk.q_ext[1][i] * b4[i]
                        + pk.q_ext[2][i] * c4[i]
                        + pk.q_ext[3][i] * a4[i] * b4[i]
                        + pk.q_ext[4][i]
                        + pi4[i];
                    let perm1 = z4[i]
                        * (a4[i] + beta * x4[i] + gamma)
                        * (b4[i] + beta * k1 * x4[i] + gamma)
                        * (c4[i] + beta * k2 * x4[i] + gamma);
                    let perm2 = zw4[i]
                        * (a4[i] + beta * pk.sigma_ext[0][i] + gamma)
                        * (b4[i] + beta * pk.sigma_ext[1][i] + gamma)
                        * (c4[i] + beta * pk.sigma_ext[2][i] + gamma);
                    let l1_term = (z4[i] - Fr::ONE) * pk.l1_ext[i];
                    let num = gate + alpha * (perm1 - perm2) + alpha2 * l1_term;
                    *slot = num * zh4[i];
                }
            });
        }
    })
    .map_err(|_| PlonkError::Internal("quotient worker panicked"))?;
    let t_poly = DensePolynomial::from_coefficients(domain4.coset_ifft(&t4));
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
