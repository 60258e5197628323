//! The Forwarding Information Base.

use gcopss_names::{Name, NameTreeBitmap};

use crate::FaceId;

/// The FIB: maps name prefixes to the set of outgoing faces that lead
/// toward potential producers.
///
/// Lookup is longest-prefix match, as in NDN. G-COPSS manipulates the FIB
/// directly with `FibAdd`/`FibRemove` packets (§III-C), e.g. when an RP
/// announces the CDs it serves.
///
/// Entries live in a stride-based [`NameTreeBitmap`], so LPM cost is
/// `O(depth)` bitmap descents regardless of table size — the property the
/// `exp_scale` sweep verifies at 1M–10M prefixes. [`Fib::lookup_hashed`]
/// additionally skips rehashing when the packet carries its per-level hash
/// chain (§III-C first-hop optimization).
///
/// # Example
///
/// ```
/// # use gcopss_ndn::{Fib, FaceId};
/// # use gcopss_names::Name;
/// let mut fib = Fib::new();
/// fib.add(Name::parse_lit("/rp"), FaceId(1));
/// fib.add(Name::parse_lit("/rp/7"), FaceId(2));
/// let faces = fib.lookup(&Name::parse_lit("/rp/7/x")).unwrap();
/// assert_eq!(faces, &[FaceId(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fib {
    entries: NameTreeBitmap<Vec<FaceId>>,
}

impl Fib {
    /// Creates an empty FIB.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `face` as a next hop for `prefix`. Returns `true` if the face
    /// was not already registered for that exact prefix.
    pub fn add(&mut self, prefix: Name, face: FaceId) -> bool {
        let faces = self.entries.get_or_insert_with(&prefix, Vec::new);
        if faces.contains(&face) {
            false
        } else {
            faces.push(face);
            faces.sort_unstable();
            true
        }
    }

    /// Removes `face` from `prefix`'s entry, pruning the entry when it
    /// becomes empty. Returns `true` if the face was present.
    pub fn remove(&mut self, prefix: &Name, face: FaceId) -> bool {
        let Some(faces) = self.entries.get_mut(prefix) else {
            return false;
        };
        let Some(pos) = faces.iter().position(|f| *f == face) else {
            return false;
        };
        faces.remove(pos);
        if faces.is_empty() {
            self.entries.remove(prefix);
        }
        true
    }

    /// Removes the whole entry for `prefix`, returning its faces if present.
    pub fn remove_prefix(&mut self, prefix: &Name) -> Option<Vec<FaceId>> {
        self.entries.remove(prefix)
    }

    /// Longest-prefix-match lookup: faces of the deepest matching prefix.
    #[must_use]
    pub fn lookup(&self, name: &Name) -> Option<&[FaceId]> {
        self.entries
            .prefix_values(name)
            .last()
            .map(|(_, faces)| faces.as_slice())
    }

    /// Like [`Fib::lookup`] but matching with the packet's precomputed
    /// per-level hash chain (`chain[i]` = hash of the `i`-component prefix,
    /// as produced by [`Name::hash_chain`]), avoiding any rehash on the
    /// forwarding path.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is shorter than `name.len() + 1`.
    #[must_use]
    pub fn lookup_hashed(&self, name: &Name, chain: &[u64]) -> Option<&[FaceId]> {
        self.entries
            .prefix_values_hashed(name, chain)
            .last()
            .map(|(_, faces)| faces.as_slice())
    }

    /// The faces registered for exactly `prefix`, if any.
    #[must_use]
    pub fn exact(&self, prefix: &Name) -> Option<&[FaceId]> {
        self.entries.get(prefix).map(Vec::as_slice)
    }

    /// Number of prefixes with at least one face.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the FIB has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    #[test]
    fn add_and_lookup_lpm() {
        let mut fib = Fib::new();
        assert!(fib.add(n("/a"), FaceId(1)));
        assert!(fib.add(n("/a/b"), FaceId(2)));
        assert!(!fib.add(n("/a"), FaceId(1)), "duplicate add");
        assert!(fib.add(n("/a"), FaceId(3)));

        assert_eq!(fib.lookup(&n("/a/x")).unwrap(), &[FaceId(1), FaceId(3)]);
        assert_eq!(fib.lookup(&n("/a/b/c")).unwrap(), &[FaceId(2)]);
        assert!(fib.lookup(&n("/z")).is_none());
    }

    #[test]
    fn remove_face_and_prune() {
        let mut fib = Fib::new();
        fib.add(n("/a"), FaceId(1));
        fib.add(n("/a"), FaceId(2));
        assert!(fib.remove(&n("/a"), FaceId(1)));
        assert!(!fib.remove(&n("/a"), FaceId(1)));
        assert_eq!(fib.lookup(&n("/a")).unwrap(), &[FaceId(2)]);
        assert!(fib.remove(&n("/a"), FaceId(2)));
        assert!(fib.lookup(&n("/a")).is_none());
        assert!(fib.is_empty());
    }

    #[test]
    fn remove_prefix_wholesale() {
        let mut fib = Fib::new();
        fib.add(n("/a"), FaceId(1));
        fib.add(n("/a"), FaceId(2));
        assert_eq!(
            fib.remove_prefix(&n("/a")),
            Some(vec![FaceId(1), FaceId(2)])
        );
        assert_eq!(fib.remove_prefix(&n("/a")), None);
    }

    #[test]
    fn root_default_route() {
        let mut fib = Fib::new();
        fib.add(Name::root(), FaceId(9));
        assert_eq!(fib.lookup(&n("/anything/at/all")).unwrap(), &[FaceId(9)]);
    }
}
