//! The Pending Interest Table.

use std::collections::HashMap;

use gcopss_names::{FixedState, Name};

use crate::{FaceId, Interest};

/// Result of inserting an Interest into the [`Pit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PitInsert {
    /// First Interest for this name: the router must forward it.
    Forward,
    /// An Interest for this name is already pending; this one was
    /// aggregated (its face recorded, nothing forwarded).
    Aggregated,
    /// Duplicate nonce: a looping or retransmitted copy, dropped.
    DuplicateNonce,
}

#[derive(Debug, Clone)]
struct PitEntry {
    /// Faces the Interest arrived on (where Data must be returned).
    faces: Vec<FaceId>,
    /// Nonces seen for this name, for duplicate suppression.
    nonces: Vec<u64>,
    /// Absolute expiry time (ns).
    expires_ns: u64,
}

/// The PIT: reverse-path breadcrumbs for pending Interests.
///
/// Data packets consume PIT entries whose name is a prefix of the Data name
/// and are sent back out of the recorded faces — NDN's reverse-path
/// forwarding.
///
/// # Example
///
/// ```
/// # use gcopss_ndn::{Pit, PitInsert, FaceId, Interest};
/// # use gcopss_names::{FixedState, Name};
/// let mut pit = Pit::new();
/// let i = Interest::new(Name::parse_lit("/a/b"), 1);
/// assert_eq!(pit.insert(0, FaceId(1), &i), PitInsert::Forward);
/// let faces = pit.consume(0, &Name::parse_lit("/a/b"));
/// assert_eq!(faces, vec![FaceId(1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pit {
    /// Walked only by the two `retain`s below (expiry, face purge), which do
    /// not depend on order; it must never be iterated into an export.
    entries: HashMap<Name, PitEntry, FixedState>,
}

impl Pit {
    /// Creates an empty PIT.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an incoming Interest, returning what the router should do.
    ///
    /// `now_ns` is the current time; expired entries for the same name are
    /// replaced rather than aggregated onto.
    pub fn insert(&mut self, now_ns: u64, face: FaceId, interest: &Interest) -> PitInsert {
        let expires = now_ns.saturating_add(interest.lifetime_ns);
        match self.entries.get_mut(&interest.name) {
            Some(e) if e.expires_ns > now_ns => {
                if e.nonces.contains(&interest.nonce) {
                    return PitInsert::DuplicateNonce;
                }
                e.nonces.push(interest.nonce);
                e.expires_ns = e.expires_ns.max(expires);
                if e.faces.contains(&face) {
                    // Same face re-expressing with a new nonce: treat as a
                    // retransmission that must be re-forwarded.
                    PitInsert::Forward
                } else {
                    e.faces.push(face);
                    PitInsert::Aggregated
                }
            }
            _ => {
                self.entries.insert(
                    interest.name.clone(),
                    PitEntry {
                        faces: vec![face],
                        nonces: vec![interest.nonce],
                        expires_ns: expires,
                    },
                );
                PitInsert::Forward
            }
        }
    }

    /// Consumes every live PIT entry whose name is a prefix of `data_name`
    /// and returns the union of their downstream faces (deduplicated,
    /// deterministic order).
    pub fn consume(&mut self, now_ns: u64, data_name: &Name) -> Vec<FaceId> {
        let mut faces = Vec::new();
        let components = data_name.components();
        for level in 0..=components.len() {
            // `Name: Borrow<[Component]>`: each prefix is probed as a slice.
            if let Some(e) = self.entries.remove(&components[..level]) {
                if e.expires_ns >= now_ns {
                    for f in e.faces {
                        if !faces.contains(&f) {
                            faces.push(f);
                        }
                    }
                }
            }
        }
        faces.sort_unstable();
        faces
    }

    /// Returns `true` if a live entry exists for exactly `name`.
    #[must_use]
    pub fn contains(&self, now_ns: u64, name: &Name) -> bool {
        self.entries
            .get(name)
            .is_some_and(|e| e.expires_ns > now_ns)
    }

    /// Drops expired entries; returns how many were removed. Routers call
    /// this periodically (or lazily).
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires_ns > now_ns);
        before - self.entries.len()
    }

    /// Removes a dead face from every entry (the face's link or neighbor
    /// failed); entries left with no downstream face are dropped entirely.
    /// Returns how many entries were dropped.
    pub fn purge_face(&mut self, face: FaceId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| {
            e.faces.retain(|&f| f != face);
            !e.faces.is_empty()
        });
        before - self.entries.len()
    }

    /// Drops every entry — the router restarted and its breadcrumbs are
    /// gone. Pending Interests must be re-expressed by downstreams.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of entries (including not-yet-collected expired ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the PIT is empty.
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
    fn forward_then_aggregate() {
        let mut pit = Pit::new();
        let i1 = Interest::new(n("/a"), 1);
        let i2 = Interest::new(n("/a"), 2);
        assert_eq!(pit.insert(0, FaceId(1), &i1), PitInsert::Forward);
        assert_eq!(pit.insert(0, FaceId(2), &i2), PitInsert::Aggregated);
        assert_eq!(pit.len(), 1);
    }

    #[test]
    fn duplicate_nonce_dropped() {
        let mut pit = Pit::new();
        let i = Interest::new(n("/a"), 7);
        assert_eq!(pit.insert(0, FaceId(1), &i), PitInsert::Forward);
        assert_eq!(pit.insert(0, FaceId(2), &i), PitInsert::DuplicateNonce);
    }

    #[test]
    fn same_face_new_nonce_reforwards() {
        let mut pit = Pit::new();
        assert_eq!(
            pit.insert(0, FaceId(1), &Interest::new(n("/a"), 1)),
            PitInsert::Forward
        );
        assert_eq!(
            pit.insert(0, FaceId(1), &Interest::new(n("/a"), 2)),
            PitInsert::Forward
        );
    }

    #[test]
    fn consume_returns_union_of_prefix_entries() {
        let mut pit = Pit::new();
        pit.insert(0, FaceId(1), &Interest::new(n("/a"), 1));
        pit.insert(0, FaceId(2), &Interest::new(n("/a/b"), 2));
        pit.insert(0, FaceId(3), &Interest::new(n("/z"), 3));
        let faces = pit.consume(1, &n("/a/b/c"));
        assert_eq!(faces, vec![FaceId(1), FaceId(2)]);
        // Entries consumed; /z untouched.
        assert_eq!(pit.len(), 1);
        assert!(pit.contains(1, &n("/z")));
    }

    #[test]
    fn consume_dedupes_faces() {
        let mut pit = Pit::new();
        pit.insert(0, FaceId(1), &Interest::new(n("/a"), 1));
        pit.insert(0, FaceId(1), &Interest::new(n("/a/b"), 2));
        let faces = pit.consume(1, &n("/a/b"));
        assert_eq!(faces, vec![FaceId(1)]);
    }

    #[test]
    fn expiry() {
        let mut pit = Pit::new();
        let i = Interest::with_lifetime(n("/a"), 1, 100);
        pit.insert(0, FaceId(1), &i);
        assert!(pit.contains(50, &n("/a")));
        assert!(!pit.contains(150, &n("/a")));
        // Expired entry is replaced, not aggregated onto — even with the
        // same nonce.
        assert_eq!(
            pit.insert(200, FaceId(2), &Interest::new(n("/a"), 1)),
            PitInsert::Forward
        );
    }

    #[test]
    fn expire_collects_dead_entries() {
        let mut pit = Pit::new();
        pit.insert(0, FaceId(1), &Interest::with_lifetime(n("/a"), 1, 10));
        pit.insert(0, FaceId(1), &Interest::with_lifetime(n("/b"), 2, 1000));
        assert_eq!(pit.expire(100), 1);
        assert_eq!(pit.len(), 1);
        assert!(!pit.is_empty());
    }

    #[test]
    fn purge_face_removes_dead_downstreams() {
        let mut pit = Pit::new();
        pit.insert(0, FaceId(1), &Interest::new(n("/a"), 1));
        pit.insert(0, FaceId(2), &Interest::new(n("/a"), 2)); // aggregated
        pit.insert(0, FaceId(1), &Interest::new(n("/b"), 3)); // only face 1
        // Face 1 dies: /b is dropped outright, /a keeps face 2.
        assert_eq!(pit.purge_face(FaceId(1)), 1);
        assert_eq!(pit.len(), 1);
        assert_eq!(pit.consume(1, &n("/a")), vec![FaceId(2)]);
        // Purging an unknown face is a no-op.
        assert_eq!(pit.purge_face(FaceId(9)), 0);
    }

    #[test]
    fn consume_of_expired_entry_returns_nothing() {
        let mut pit = Pit::new();
        pit.insert(0, FaceId(1), &Interest::with_lifetime(n("/a"), 1, 10));
        // consume() removes the entry but must not return dead faces.
        let faces = pit.consume(100, &n("/a"));
        assert!(faces.is_empty());
    }
}
