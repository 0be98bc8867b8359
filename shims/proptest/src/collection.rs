//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Generates `Vec`s whose length is uniform in `len` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range in collection::vec");
    VecStrategy { element, len }
}

/// See [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    len: core::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + rng.below(span.max(1)) as usize;
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_respects_length_bounds() {
        let strat = vec(any::<u64>(), 1..8);
        let mut rng = TestRng::for_test("vec_bounds");
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((1..8).contains(&v.len()));
        }
    }
}
