//! Weighted sampling, mirroring `rand::distributions`.

use std::fmt;

use crate::rng::RngCore;

/// A distribution over values of type `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error constructing a [`WeightedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedError {
    /// The weight list was empty.
    NoItem,
    /// A weight was negative, NaN or infinite, or the total was zero.
    InvalidWeight,
}

impl fmt::Display for WeightedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoItem => write!(f, "weighted index needs at least one weight"),
            Self::InvalidWeight => write!(f, "weights must be finite, non-negative, and sum > 0"),
        }
    }
}

impl std::error::Error for WeightedError {}

/// Samples indices `0..n` with probability proportional to the given
/// weights, via a cumulative table and binary search (O(log n) per draw).
///
/// # Example
///
/// ```
/// use gcopss_compat::distributions::{Distribution, WeightedIndex};
/// use gcopss_compat::{SeedableRng, StdRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let w = WeightedIndex::new([1.0, 0.0, 3.0]).unwrap();
/// let i = w.sample(&mut rng);
/// assert!(i == 0 || i == 2); // index 1 has zero weight
/// ```
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    /// `cumulative[i]` = sum of weights `0..=i`; strictly positive tail.
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Builds the sampler from per-index weights.
    ///
    /// # Errors
    ///
    /// [`WeightedError::NoItem`] for an empty list;
    /// [`WeightedError::InvalidWeight`] if any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new<W: AsRef<[f64]>>(weights: W) -> Result<Self, WeightedError> {
        let weights = weights.as_ref();
        if weights.is_empty() {
            return Err(WeightedError::NoItem);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(WeightedError::InvalidWeight);
            }
            total += w;
            cumulative.push(total);
        }
        if !(total.is_finite() && total > 0.0) {
            return Err(WeightedError::InvalidWeight);
        }
        Ok(Self { cumulative, total })
    }
}

impl Distribution<usize> for WeightedIndex {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let x = crate::rng::unit_f64(rng.next_u64()) * self.total;
        // First index whose cumulative weight exceeds x; zero-weight
        // entries have cumulative == predecessor and are never selected.
        let i = self.cumulative.partition_point(|&c| c <= x);
        i.min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeedableRng, StdRng};

    #[test]
    fn rejects_bad_weights() {
        let empty: [f64; 0] = [];
        assert!(matches!(WeightedIndex::new(empty), Err(WeightedError::NoItem)));
        assert!(matches!(
            WeightedIndex::new([-1.0, 2.0]),
            Err(WeightedError::InvalidWeight)
        ));
        assert!(matches!(
            WeightedIndex::new([f64::NAN]),
            Err(WeightedError::InvalidWeight)
        ));
        assert!(matches!(
            WeightedIndex::new([0.0, 0.0]),
            Err(WeightedError::InvalidWeight)
        ));
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let w = WeightedIndex::new([0.0, 1.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let i = w.sample(&mut rng);
            assert!(i == 1 || i == 3, "sampled zero-weight index {i}");
        }
    }

    #[test]
    fn frequencies_track_weights() {
        let w = WeightedIndex::new([1.0, 2.0, 7.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[w.sample(&mut rng)] += 1;
        }
        let f: Vec<f64> = counts.iter().map(|&c| f64::from(c) / f64::from(n)).collect();
        assert!((f[0] - 0.1).abs() < 0.01, "{f:?}");
        assert!((f[1] - 0.2).abs() < 0.01, "{f:?}");
        assert!((f[2] - 0.7).abs() < 0.01, "{f:?}");
    }
}
