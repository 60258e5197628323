//! Bloom filters over CD hashes, as used by the COPSS Subscription Table.
//!
//! The paper stores, per outgoing face, a Bloom filter describing the set of
//! subscribed CDs (§III-C). Membership tests are performed on the
//! precomputed per-level hashes carried by multicast packets, so a router
//! only does "simple bit comparison".
//!
//! A [`BloomFilter`] summarises a set that is built once and never shrinks:
//! the Subscription Table builds one per face from its index when the
//! summary is wanted, so nothing is ever removed and bits suffice.

/// Bits per filter: the optimum `m = −n ln p / ln²2` for n = 256 CDs at a
/// false-positive rate p = 1 %, comfortable for the paper's 31-leaf-CD game
/// maps with headroom.
const BITS: usize = 2_454;

/// Hashes per element: the optimum `k = (m / n) ln 2` for the same sizing.
const HASHES: u32 = 7;

/// `u64` words holding [`BITS`] bits.
const WORDS: usize = BITS.div_ceil(64);

/// Derives the `i`-th bit index from a single 64-bit element hash using
/// Kirsch–Mitzenmacher double hashing.
#[inline]
fn bit_index(element_hash: u64, i: u32) -> usize {
    // Split the 64-bit hash into two 32-bit halves, then h1 + i*h2.
    let h1 = element_hash as u32 as u64;
    let h2 = (element_hash >> 32) | 1; // force odd so strides cover the table
    ((h1.wrapping_add(u64::from(i).wrapping_mul(h2))) % BITS as u64) as usize
}

/// A Bloom filter of 2 454 bits and 7 hashes over 64-bit element hashes.
///
/// # Example
///
/// ```
/// # use gcopss_names::{BloomFilter, Cd, Name};
/// let mut f = BloomFilter::default();
/// f.insert(Name::parse_lit("/1").stable_hash());
/// // A publication to /1/2 carries the hash of its prefix /1.
/// assert!(f.contains_any(Cd::parse_lit("/1/2").hashes().as_slice()));
/// assert!(!f.contains_any(Cd::parse_lit("/2/2").hashes().as_slice()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: [u64; WORDS],
}

impl Default for BloomFilter {
    fn default() -> Self {
        Self { words: [0; WORDS] }
    }
}

impl BloomFilter {
    /// Inserts an element by its 64-bit hash.
    pub fn insert(&mut self, element_hash: u64) {
        for i in 0..HASHES {
            let b = bit_index(element_hash, i);
            self.words[b / 64] |= 1 << (b % 64);
        }
    }

    /// Tests membership by 64-bit hash.
    #[must_use]
    pub fn contains(&self, element_hash: u64) -> bool {
        (0..HASHES).all(|i| {
            let b = bit_index(element_hash, i);
            self.words[b / 64] & (1 << (b % 64)) != 0
        })
    }

    /// Tests whether any of the given hashes is (probably) present.
    #[must_use]
    pub fn contains_any(&self, hashes: &[u64]) -> bool {
        hashes.iter().any(|&h| self.contains(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Name;

    #[test]
    fn sizing_is_optimal_for_256_items_at_one_percent() {
        let (n, p) = (256.0_f64, 0.01_f64);
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * p.ln() / (ln2 * ln2)).ceil();
        let k = ((m / n) * ln2).round();
        assert_eq!(BITS, m as usize);
        assert_eq!(HASHES, k as u32);
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::default();
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
        let mut f = BloomFilter::default();
        for i in 0..256u64 {
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
        let mut f = BloomFilter::default();
        f.insert(Name::parse_lit("/1").stable_hash());
        let cd = Name::parse_lit("/1/2/3");
        assert!(f.contains_any(&cd.hash_chain()));
        let other = Name::parse_lit("/2/2/3");
        assert!(!f.contains_any(&other.hash_chain()));
    }
}
