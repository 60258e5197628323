//! Content Descriptors: names used as pub/sub topics.

use std::fmt;
use std::sync::Arc;

use crate::Name;

/// The precomputed per-level hash chain of a CD.
///
/// Element `i` is the stable hash of the CD's prefix with `i` components;
/// the chain therefore has `name.len() + 1` elements. The paper's §III-C
/// optimization has the first-hop router compute these once so that every
/// downstream router can match its Bloom filters with integer operations
/// only.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CdHashes(Vec<u64>);

impl CdHashes {
    /// Returns the hash of the full CD.
    #[must_use]
    pub fn full(&self) -> u64 {
        *self.0.last().expect("hash chain is never empty")
    }

    /// All per-level hashes, root first.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Number of levels (name length + 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// A hash chain always contains at least the root hash.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A Content Descriptor: a [`Name`] used as a publish/subscribe topic,
/// bundled with its precomputed [`CdHashes`].
///
/// `Cd` is cheap to clone (`Arc` internally) because multicast packets carry
/// their CD across every hop of the simulated network.
///
/// # Example
///
/// ```
/// # use gcopss_names::{Cd, Name};
/// let cd = Cd::parse_lit("/1/2");
/// assert_eq!(cd.name().to_string(), "/1/2");
/// assert_eq!(cd.hashes().len(), 3); // "/", "/1", "/1/2"
/// ```
#[derive(Clone)]
pub struct Cd {
    inner: Arc<CdInner>,
}

struct CdInner {
    name: Name,
    hashes: CdHashes,
}

impl Cd {
    /// Creates a CD from a name, computing its hash chain.
    #[must_use]
    pub fn new(name: Name) -> Self {
        let hashes = CdHashes(name.hash_chain());
        Self {
            inner: Arc::new(CdInner { name, hashes }),
        }
    }

    /// Parses a CD from a string literal, panicking on failure. Intended for
    /// tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid name.
    #[must_use]
    pub fn parse_lit(s: &str) -> Self {
        Self::new(Name::parse_lit(s))
    }

    /// The underlying name.
    #[must_use]
    pub fn name(&self) -> &Name {
        &self.inner.name
    }

    /// The precomputed per-level hashes.
    #[must_use]
    pub fn hashes(&self) -> &CdHashes {
        &self.inner.hashes
    }
}

impl fmt::Display for Cd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.name.fmt(f)
    }
}

impl fmt::Debug for Cd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cd({})", self.inner.name)
    }
}

impl PartialEq for Cd {
    fn eq(&self, other: &Self) -> bool {
        self.inner.name == other.inner.name
    }
}

impl Eq for Cd {}

impl PartialOrd for Cd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.inner.name.cmp(&other.inner.name)
    }
}

impl std::hash::Hash for Cd {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.name.hash(state);
    }
}

impl From<Name> for Cd {
    fn from(name: Name) -> Self {
        Self::new(name)
    }
}

impl std::str::FromStr for Cd {
    type Err = crate::ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(Self::new(s.parse()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd_exposes_name_and_hashes() {
        let cd = Cd::parse_lit("/1/2");
        assert_eq!(cd.name(), &Name::parse_lit("/1/2"));
        assert_eq!(cd.hashes().len(), 3);
        assert_eq!(cd.hashes().as_slice()[1], Name::parse_lit("/1").stable_hash());
        assert_eq!(cd.hashes().full(), Name::parse_lit("/1/2").stable_hash());
    }

    #[test]
    fn cd_equality_ignores_arc_identity() {
        let a = Cd::parse_lit("/1");
        let b = Cd::parse_lit("/1");
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(a, c);
    }

    #[test]
    fn cd_clone_is_shallow() {
        let a = Cd::parse_lit("/1/2/3");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
