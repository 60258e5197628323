//! Slice sampling and shuffling, mirroring `rand::seq`.

use crate::rng::Rng;

/// Random operations on slices.
pub trait SliceRandom {
    /// Element type of the slice.
    type Item;

    /// Returns a uniformly chosen reference, or `None` if empty.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;

    /// Shuffles the slice in place (Fisher–Yates, from the back).
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_range(0..=i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeedableRng, StdRng};

    #[test]
    fn choose_empty_is_none() {
        let v: Vec<u32> = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(v.choose(&mut rng), None);
    }

    #[test]
    fn choose_is_uniformish() {
        let v = [0usize, 1, 2, 3];
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[*v.choose(&mut rng).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(3);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn shuffle_deterministic_per_seed() {
        let shuffle_with = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            v.shuffle(&mut rng);
            v
        };
        assert_eq!(shuffle_with(9), shuffle_with(9));
        assert_ne!(shuffle_with(9), shuffle_with(10));
    }
}
