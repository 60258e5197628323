//! Bloom filters over CD hashes, as used by the COPSS Subscription Table.
//!
//! The paper stores, per outgoing face, a Bloom filter describing the set of
//! subscribed CDs (§III-C). Membership tests are performed on the
//! precomputed per-level hashes carried by multicast packets, so a router
//! only does "simple bit comparison".
//!
//! [`CountingBloomFilter`] keeps 16-bit counters rather than bits so that
//! `Unsubscribe` can delete entries, which the COPSS subscription table
//! needs.

use std::fmt;

/// Sizing parameters for a Bloom filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BloomParams {
    /// Number of bits (or counters).
    pub bits: usize,
    /// Number of hash functions.
    pub hashes: u32,
}

impl BloomParams {
    /// Parameters sized for an expected number of entries and a target
    /// false-positive rate, using the standard optimal formulas.
    ///
    /// # Panics
    ///
    /// Panics if `expected_items` is zero or `fp_rate` is not in `(0, 1)`.
    #[must_use]
    pub fn for_items(expected_items: usize, fp_rate: f64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(
            fp_rate > 0.0 && fp_rate < 1.0,
            "fp_rate must be in (0, 1), got {fp_rate}"
        );
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fp_rate.ln() / (ln2 * ln2)).ceil().max(8.0);
        let k = ((m / n) * ln2).round().clamp(1.0, 16.0);
        Self {
            bits: m as usize,
            hashes: k as u32,
        }
    }
}

impl Default for BloomParams {
    /// Sized for ~256 CDs at a 1% false-positive rate, comfortable for the
    /// paper's 31-leaf-CD game maps with headroom.
    fn default() -> Self {
        Self::for_items(256, 0.01)
    }
}

/// Derives the `i`-th bit index from a single 64-bit element hash using
/// Kirsch–Mitzenmacher double hashing.
#[inline]
fn bit_index(element_hash: u64, i: u32, bits: usize) -> usize {
    // Split the 64-bit hash into two 32-bit halves, then h1 + i*h2.
    let h1 = element_hash as u32 as u64;
    let h2 = (element_hash >> 32) | 1; // force odd so strides cover the table
    ((h1.wrapping_add(u64::from(i).wrapping_mul(h2))) % bits as u64) as usize
}

/// A counting Bloom filter (16-bit saturating counters) supporting removal.
///
/// Used by the COPSS subscription table so that `Unsubscribe` packets can
/// delete a face's CDs without rebuilding the filter.
///
/// Counters are 16-bit: with 8-bit counters an undersized filter under
/// heavy per-face load (≥1M inserts) saturates counters at 255, and since a
/// saturated counter is sticky (never decremented, to preserve
/// no-false-negative), the filter accumulates permanent false positives.
/// 16-bit counters push the saturation point past any load a face can
/// realistically present; [`CountingBloomFilter::saturated_counters`]
/// exposes whether the backstop was ever hit.
///
/// # Example
///
/// ```
/// # use gcopss_names::CountingBloomFilter;
/// let mut f = CountingBloomFilter::default();
/// f.insert(42);
/// f.insert(42);
/// f.remove(42);
/// assert!(f.contains(42)); // still one insertion outstanding
/// f.remove(42);
/// assert!(!f.contains(42));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    params: BloomParams,
    counters: Vec<u16>,
    items: usize,
}

impl CountingBloomFilter {
    /// Creates an empty filter with the given parameters.
    #[must_use]
    pub fn new(params: BloomParams) -> Self {
        Self {
            counters: vec![0; params.bits],
            params,
            items: 0,
        }
    }

    /// Net number of elements (inserts minus removes).
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Returns `true` if no elements are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Inserts an element by its 64-bit hash. Counters saturate at
    /// [`u16::MAX`] (a saturated counter is never decremented, preserving
    /// no-false-negative at the cost of a permanent false positive).
    pub fn insert(&mut self, element_hash: u64) {
        for i in 0..self.params.hashes {
            let b = bit_index(element_hash, i, self.params.bits);
            self.counters[b] = self.counters[b].saturating_add(1);
        }
        self.items += 1;
    }

    /// Removes one occurrence of an element by its 64-bit hash.
    ///
    /// Removing an element that was never inserted can introduce false
    /// negatives (as with any counting Bloom filter); callers keep an exact
    /// set alongside and only remove present elements.
    pub fn remove(&mut self, element_hash: u64) {
        for i in 0..self.params.hashes {
            let b = bit_index(element_hash, i, self.params.bits);
            if self.counters[b] != u16::MAX {
                self.counters[b] = self.counters[b].saturating_sub(1);
            }
        }
        self.items = self.items.saturating_sub(1);
    }

    /// Tests membership by 64-bit hash.
    #[must_use]
    pub fn contains(&self, element_hash: u64) -> bool {
        (0..self.params.hashes).all(|i| {
            let b = bit_index(element_hash, i, self.params.bits);
            self.counters[b] > 0
        })
    }

    /// Tests whether any of the given hashes is (probably) present.
    #[must_use]
    pub fn contains_any(&self, hashes: &[u64]) -> bool {
        hashes.iter().any(|&h| self.contains(h))
    }

    /// Number of counters stuck at the saturation ceiling. Non-zero means
    /// the filter was driven far past its sizing and now carries permanent
    /// false positives in those slots.
    #[must_use]
    pub fn saturated_counters(&self) -> usize {
        self.counters.iter().filter(|&&c| c == u16::MAX).count()
    }

    /// The largest counter value — headroom indicator for saturation audits.
    #[must_use]
    pub fn max_counter(&self) -> u16 {
        self.counters.iter().copied().max().unwrap_or(0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.items = 0;
    }
}

impl Default for CountingBloomFilter {
    fn default() -> Self {
        Self::new(BloomParams::default())
    }
}

impl fmt::Debug for CountingBloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CountingBloomFilter")
            .field("bits", &self.params.bits)
            .field("hashes", &self.params.hashes)
            .field("items", &self.items)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Name;

    #[test]
    fn params_for_items_reasonable() {
        let p = BloomParams::for_items(100, 0.01);
        assert!(p.bits >= 900, "bits = {}", p.bits);
        assert!((5..=9).contains(&p.hashes), "hashes = {}", p.hashes);
    }

    #[test]
    #[should_panic(expected = "fp_rate")]
    fn params_reject_bad_fp() {
        let _ = BloomParams::for_items(10, 1.5);
    }

    #[test]
    fn no_false_negatives() {
        let mut f = CountingBloomFilter::new(BloomParams::for_items(64, 0.01));
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| Name::parse_lit(&format!("/a/{i}")).stable_hash())
            .collect();
        for &h in &hashes {
            f.insert(h);
        }
        for &h in &hashes {
            assert!(f.contains(h));
        }
    }

    #[test]
    fn fp_rate_is_bounded() {
        let mut f = CountingBloomFilter::new(BloomParams::for_items(128, 0.01));
        for i in 0..128u64 {
            f.insert(Name::parse_lit(&format!("/in/{i}")).stable_hash());
        }
        let mut fps = 0;
        let probes = 10_000;
        for i in 0..probes {
            if f.contains(Name::parse_lit(&format!("/out/{i}")).stable_hash()) {
                fps += 1;
            }
        }
        // 1% nominal; allow generous slack.
        assert!(fps < probes / 20, "false positives: {fps}/{probes}");
    }

    #[test]
    fn contains_any_checks_all_levels() {
        let mut f = CountingBloomFilter::default();
        f.insert(Name::parse_lit("/1").stable_hash());
        let cd = Name::parse_lit("/1/2/3");
        assert!(f.contains_any(&cd.hash_chain()));
        let other = Name::parse_lit("/2/2/3");
        assert!(!f.contains_any(&other.hash_chain()));
    }

    #[test]
    fn clear_empties_filter() {
        let mut f = CountingBloomFilter::default();
        f.insert(7);
        f.clear();
        assert!(!f.contains(7));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn counting_filter_supports_removal() {
        let mut f = CountingBloomFilter::default();
        let h = Name::parse_lit("/1/2").stable_hash();
        f.insert(h);
        assert!(f.contains(h));
        f.remove(h);
        assert!(!f.contains(h));
        assert!(f.is_empty());
    }

    #[test]
    fn counting_filter_multiset_semantics() {
        let mut f = CountingBloomFilter::default();
        f.insert(99);
        f.insert(99);
        f.remove(99);
        assert!(f.contains(99));
        f.remove(99);
        assert!(!f.contains(99));
    }

    #[test]
    fn counting_filter_no_false_negatives_under_churn() {
        let mut f = CountingBloomFilter::new(BloomParams::for_items(256, 0.01));
        let keep: Vec<u64> = (0..100u64)
            .map(|i| Name::parse_lit(&format!("/keep/{i}")).stable_hash())
            .collect();
        let churn: Vec<u64> = (0..100u64)
            .map(|i| Name::parse_lit(&format!("/churn/{i}")).stable_hash())
            .collect();
        for &h in &keep {
            f.insert(h);
        }
        for &h in &churn {
            f.insert(h);
        }
        for &h in &churn {
            f.remove(h);
        }
        for &h in &keep {
            assert!(f.contains(h), "false negative after churn");
        }
    }

    #[test]
    fn counting_filter_survives_million_insert_churn() {
        // Saturation audit (ISSUE 6): a face sized for 256 CDs but driven
        // with 1M inserts pushes average counter values near 2000 — far past
        // the 255 ceiling of 8-bit counters, whose sticky saturation would
        // leave permanent false positives after the face unsubscribes
        // everything. 16-bit counters must absorb the load and drain back to
        // an empty, false-positive-free filter.
        let params = BloomParams::default(); // ~256 CDs, ~2.5k counters
        let mut f = CountingBloomFilter::new(params);
        const N: u64 = 1_000_000;
        let hash = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
        for i in 0..N {
            f.insert(hash(i));
        }
        assert_eq!(f.items(), N as usize);
        let peak = f.max_counter();
        assert!(
            peak > u64::from(u8::MAX) as u16,
            "audit premise: load must exceed what 8-bit counters can hold, peak = {peak}"
        );
        assert_eq!(
            f.saturated_counters(),
            0,
            "16-bit counters must not saturate at 1M inserts per face"
        );
        for i in 0..N {
            f.remove(hash(i));
        }
        assert!(f.is_empty());
        assert_eq!(f.max_counter(), 0, "counters must drain exactly to zero");
        for i in 0..1000 {
            assert!(
                !f.contains(hash(N + i)),
                "drained filter must not report members"
            );
        }
    }
}
