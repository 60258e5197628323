//! Hierarchical names and Content Descriptors for G-COPSS.
//!
//! This crate provides the naming substrate shared by the NDN forwarding
//! engine (`gcopss-ndn`), the COPSS publish/subscribe layer (`gcopss-copss`)
//! and the game model (`gcopss-game`):
//!
//! * [`Name`] — an NDN-style hierarchical name (`/1/2/3`), a sequence of
//!   [`Component`]s.
//! * [`Cd`] — a *Content Descriptor*: a name used as a pub/sub topic, carrying
//!   a precomputed per-level hash chain ([`CdHashes`]) so that routers can
//!   match Bloom filters with plain integer comparisons (the first-hop hash
//!   optimization of §III-C of the paper).
//! * [`NameTreeBitmap`] — the one prefix trie: a stride-based tree-bitmap
//!   keyed on the per-level hash chain, under every name-keyed table (FIB
//!   longest-prefix match, Subscription Table matching, Content Store, RP
//!   table).
//! * [`CountingBloomFilter`] — the per-face CD set representation used by
//!   the COPSS Subscription Table.
//!
//! # Naming convention for hierarchical game maps
//!
//! Following the paper (§III-A), a game map is partitioned hierarchically and
//! each area maps to a CD. Every non-leaf area also owns a dedicated child
//! CD `0` (the "own-area" CD) representing the space *at* that layer, e.g.
//! the airspace above region `/1` is `/1/0` and the satellite layer above the
//! whole map is `/0`. Zones/regions are numbered from `1`, so component `0`
//! never collides with a real sub-area.
//!
//! # Example
//!
//! ```
//! # use gcopss_names::{Name, Cd};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let zone: Name = "/1/2".parse()?;
//! let region: Name = "/1".parse()?;
//! assert!(region.is_prefix_of(&zone));
//!
//! // A soldier standing on zone 1/2 publishes with CD /1/2 ...
//! let publication = Cd::new(zone);
//! // ... and a plane flying over region 1 (subscribed to /1) receives it.
//! assert!(region.is_prefix_of(publication.name()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod cd;
pub mod chunk;
mod component;
mod error;
mod name;
mod tree_bitmap;

pub use bloom::{BloomParams, CountingBloomFilter};
pub use cd::{Cd, CdHashes};
pub use component::Component;
pub use error::ParseNameError;
pub use name::{Name, Prefixes};
pub use tree_bitmap::{NameTreeBitmap, PrefixValues};

/// Stable 64-bit FNV-1a hash used everywhere a deterministic, seed-free hash
/// of name data is required (Bloom filters, CD hash chains, hybrid
/// CD→IP-multicast-group mapping).
///
/// Determinism across runs matters: experiments are seeded and must be
/// exactly reproducible, which rules out `std`'s randomly-keyed hasher.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_mix(FNV_OFFSET, bytes)
}

/// Extends an existing [`fnv1a`] hash with one more name component (used to
/// hash names incrementally, level by level).
///
/// A separator byte is mixed in after the component so that `/ab` + `/c`
/// hashes differently from `/a` + `/bc`.
#[must_use]
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_mix(fnv1a_mix(h, bytes), b"/")
}

/// The FNV-1a step, byte by byte, from state `h`.
fn fnv1a_mix(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// [`fnv1a`] as a [`Hasher`](std::hash::Hasher), so a `HashMap`/`HashSet`
/// can be given the same state in every process ([`FixedState`]).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl std::hash::Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_mix(self.0, bytes);
    }
}

/// The hasher state of every hash map and set under `crates/*/src`
/// (`scripts/check_hermetic.sh` rejects one without it). std's default
/// `RandomState` is seeded per process; the seed decides which tombstones an
/// insert reuses and hence when a table regrows, so with it the heap ledger
/// of a run (calls, bytes, peak) differs between identical processes. These
/// maps key on simulation-internal ids and names, never on outside input,
/// so they need no flooding protection. A fixed state does **not** make
/// iteration order meaningful: none of these maps may be iterated into an
/// export or a decision.
pub type FixedState = std::hash::BuildHasherDefault<Fnv1aHasher>;

#[cfg(test)]
mod hash_tests {
    use super::*;

    #[test]
    fn fnv1a_is_deterministic() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    #[test]
    fn fnv1a_empty_is_offset_basis() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn hasher_is_fnv1a_over_everything_written() {
        use std::hash::Hasher;
        let mut h = Fnv1aHasher::default();
        h.write(b"ab");
        h.write(b"c");
        assert_eq!(h.finish(), fnv1a(b"abc"));
    }

    #[test]
    fn extend_distinguishes_component_boundaries() {
        let root = fnv1a(b"");
        let ab_c = fnv1a_extend(fnv1a_extend(root, b"ab"), b"c");
        let a_bc = fnv1a_extend(fnv1a_extend(root, b"a"), b"bc");
        assert_ne!(ab_c, a_bc);
    }
}
