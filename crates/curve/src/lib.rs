//! BN254 elliptic-curve groups and the optimal ate pairing.
//!
//! * [`G1Affine`]/[`G1Projective`] — points on `E/F_p : y² = x³ + 3`
//!   (prime-order `r`, cofactor 1),
//! * [`G2Affine`]/[`G2Projective`] — points on the sextic twist
//!   `E'/F_{p²} : y² = x³ + 3/ξ` with `ξ = 9 + i`,
//! * [`pairing`] / [`multi_pairing`] — the optimal ate pairing
//!   `e : G1 × G2 → F_{p¹²}` (non-degenerate, bilinear),
//! * [`msm`] — Pippenger multi-scalar multiplication, the prover hot path:
//!   signed-digit windows sized by a cost model, batch-affine bucket sums,
//!   one worker per core; the result never depends on the core count.
//!
//! # Example
//!
//! ```rust
//! use zkdet_curve::{pairing, G1Affine, G2Affine, G1Projective, G2Projective};
//! use zkdet_field::{Field, Fr};
//!
//! // e(aP, bQ) = e(P, Q)^(ab)
//! let (a, b) = (Fr::from(3u64), Fr::from(5u64));
//! let lhs = pairing(&(G1Projective::generator() * a).to_affine(),
//!                   &(G2Projective::generator() * b).to_affine());
//! let rhs = pairing(&G1Affine::generator(), &G2Affine::generator());
//! assert_eq!(lhs, rhs.pow(&[15, 0, 0, 0]));
//! ```

#![forbid(unsafe_code)]

mod group;
mod msm;
mod pairing;
mod wire;

pub use group::{CurveParams, G1Affine, G1Projective, G2Affine, G2Projective, G1, G2};
pub use msm::{fixed_base_batch_mul, msm};
pub use pairing::{final_exponentiation, miller_loop, multi_miller_loop, multi_pairing, pairing};
pub use wire::{WireError, G1_UNCOMPRESSED_BYTES, G2_UNCOMPRESSED_BYTES};
