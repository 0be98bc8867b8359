//! Polynomial arithmetic over the BN254 scalar field.
//!
//! Provides [`DensePolynomial`] (coefficient form) and [`EvaluationDomain`]
//! (radix-2 FFT domains over the `2^28`-adic subgroup of `F_r`), the two
//! workhorses of the PLONK prover.
//!
//! # Example
//!
//! ```rust
//! use zkdet_poly::{DensePolynomial, EvaluationDomain};
//! use zkdet_field::{Field, Fr};
//!
//! let p = DensePolynomial::from_coefficients(vec![Fr::from(1u64), Fr::from(2u64)]); // 1 + 2x
//! assert_eq!(p.evaluate(&Fr::from(10u64)), Fr::from(21u64));
//!
//! let domain = EvaluationDomain::new(4).unwrap();
//! let evals = domain.fft(p.coefficients());
//! let back = domain.ifft(&evals);
//! assert_eq!(DensePolynomial::from_coefficients(back), p);
//! ```

#![forbid(unsafe_code)]

mod domain;
mod polynomial;

pub use domain::EvaluationDomain;
pub use polynomial::DensePolynomial;
