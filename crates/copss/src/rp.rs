//! The prefix-free Rendezvous Point table.

use std::error::Error;
use std::fmt;

use gcopss_names::{Name, NameTreeBitmap};

use crate::RpId;

/// Error returned when an RP assignment would violate prefix-freeness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpAssignError {
    /// The prefix that was being assigned.
    pub prefix: Name,
    /// The existing served prefix it conflicts with.
    pub conflicts_with: Name,
}

impl fmt::Display for RpAssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prefix {} conflicts with served prefix {}",
            self.prefix, self.conflicts_with
        )
    }
}

impl Error for RpAssignError {}

/// The CD-prefix → RP assignment, kept **prefix-free**: no served prefix is
/// a strict prefix of another (§III-B "Rendezvous Point Setup"). This
/// guarantees every publication CD is covered by *exactly one* RP.
///
/// Every G-COPSS router holds a copy of this table (distributed via
/// `RpUpdate` packets); first-hop routers use it to pick the RP a
/// publication is encapsulated toward, and subscription propagation uses
/// the overlap query to find all RPs a subscription must join.
///
/// # Example
///
/// ```
/// # use gcopss_copss::{RpTable, RpId};
/// # use gcopss_names::Name;
/// let mut t = RpTable::new();
/// t.assign(Name::parse_lit("/1"), RpId(0)).unwrap();
/// t.assign(Name::parse_lit("/2"), RpId(1)).unwrap();
/// assert_eq!(t.rp_for(&Name::parse_lit("/1/4")), Some(RpId(0)));
/// // /1 is served, so serving / or /1/2 would break prefix-freeness:
/// assert!(t.assign(Name::root(), RpId(2)).is_err());
/// assert!(t.assign(Name::parse_lit("/1/2"), RpId(2)).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RpTable {
    served: NameTreeBitmap<RpId>,
}

impl RpTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `prefix` to `rp`.
    ///
    /// # Errors
    ///
    /// Returns [`RpAssignError`] if `prefix` is a prefix of, or prefixed by,
    /// an already-served prefix (assigned to a *different* RP or the same
    /// one — re-assigning the exact same prefix to a new RP is allowed, as
    /// that is how handoff works).
    pub fn assign(&mut self, prefix: Name, rp: RpId) -> Result<(), RpAssignError> {
        // Exact re-assignment (handoff) is fine.
        if self.served.get(&prefix).is_some() {
            self.served.insert(prefix, rp);
            return Ok(());
        }
        if let Some((conflict, _)) = self.served.longest_prefix(&prefix) {
            return Err(RpAssignError {
                prefix,
                conflicts_with: conflict,
            });
        }
        if let Some((conflict, _)) = self.served.descendants(&prefix).first() {
            return Err(RpAssignError {
                prefix,
                conflicts_with: conflict.clone(),
            });
        }
        self.served.insert(prefix, rp);
        Ok(())
    }

    /// Removes the assignment for exactly `prefix`, returning its RP.
    pub fn unassign(&mut self, prefix: &Name) -> Option<RpId> {
        self.served.remove(prefix)
    }

    /// Replaces the single served prefix `prefix` by `children` (all direct
    /// or indirect extensions of it), keeping the same RP. This is the
    /// refinement step before a split can offload part of a served prefix.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is not served or some child does not extend it.
    pub fn refine(&mut self, prefix: &Name, children: &[Name]) {
        let rp = self
            .served
            .remove(prefix)
            .unwrap_or_else(|| panic!("prefix {prefix} not served"));
        for c in children {
            assert!(
                prefix.is_strict_prefix_of(c),
                "{c} does not refine {prefix}"
            );
            self.served.insert(c.clone(), rp);
        }
    }

    /// The unique RP serving publication CD `cd`, if any. Because the table
    /// is prefix-free, at most one served prefix covers `cd`.
    #[must_use]
    pub fn rp_for(&self, cd: &Name) -> Option<RpId> {
        self.served.prefix_values(cd).last().map(|(_, rp)| *rp)
    }

    /// The served prefix covering `cd`, with its RP.
    #[must_use]
    pub fn serving_prefix(&self, cd: &Name) -> Option<(Name, RpId)> {
        self.served.longest_prefix(cd).map(|(p, rp)| (p, *rp))
    }

    /// All RPs a *subscription* to `name` must join: RPs whose served
    /// prefix covers `name` **or** lies below it (a subscriber of `/1`
    /// must join the RPs serving `/1/1`, `/1/2`, … — the paper's
    /// subscription-aggregation rule).
    ///
    /// Deduplicated, deterministic order.
    #[must_use]
    pub fn rps_for_subscription(&self, name: &Name) -> Vec<RpId> {
        let mut out: Vec<RpId> = Vec::new();
        out.extend(self.rp_for(name));
        for (_, rp) in self.served.descendants(name) {
            if !out.contains(rp) {
                out.push(*rp);
            }
        }
        out.sort_unstable();
        out
    }

    /// The served prefixes (with RPs) relevant to a subscription to `name`:
    /// the covering prefix and/or all served prefixes below `name`.
    #[must_use]
    pub fn prefixes_for_subscription(&self, name: &Name) -> Vec<(Name, RpId)> {
        let mut out: Vec<(Name, RpId)> = Vec::new();
        if let Some((p, rp)) = self.served.longest_prefix(name) {
            out.push((p, *rp));
        }
        for (p, rp) in self.served.descendants(name) {
            if !out.iter().any(|(q, _)| *q == p) {
                out.push((p, *rp));
            }
        }
        out
    }

    /// All prefixes currently served by `rp`.
    #[must_use]
    pub fn prefixes_of(&self, rp: RpId) -> Vec<Name> {
        self.served
            .iter()
            .into_iter()
            .filter(|(_, r)| **r == rp)
            .map(|(p, _)| p)
            .collect()
    }

    /// Every `(prefix, rp)` assignment in deterministic order.
    #[must_use]
    pub fn assignments(&self) -> Vec<(Name, RpId)> {
        self.served
            .iter()
            .into_iter()
            .map(|(p, rp)| (p, *rp))
            .collect()
    }

    /// All distinct RPs in the table.
    #[must_use]
    pub fn rps(&self) -> Vec<RpId> {
        let mut out: Vec<RpId> = self.assignments().into_iter().map(|(_, rp)| rp).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of served prefixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.served.len()
    }

    /// Returns `true` if nothing is served.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.served.is_empty()
    }

    /// Checks the prefix-free invariant (for tests and debug assertions).
    #[must_use]
    pub fn is_prefix_free(&self) -> bool {
        let names: Vec<Name> = self.assignments().into_iter().map(|(p, _)| p).collect();
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                if a.is_prefix_of(b) || b.is_prefix_of(a) {
                    return false;
                }
            }
        }
        true
    }

    /// Applies an `RpUpdate`: the given CD prefixes move to `new_rp`. The
    /// moved prefixes may refine existing served prefixes (e.g. moving
    /// `/1/2` out of a served `/1` splits `/1` into its retained children),
    /// so callers provide the full retained refinement too.
    ///
    /// For the common case where `moved` are exactly existing served
    /// prefixes, this is a plain re-assignment.
    pub fn apply_move(&mut self, moved: &[Name], new_rp: RpId) {
        for m in moved {
            // If m is exactly served, re-assign. Otherwise it refines a
            // served ancestor; the caller must have refined already, but be
            // forgiving: refine on the fly using the moved name itself.
            // Either re-assign an exactly-served prefix, or insert the
            // moved prefix alongside a coarser served ancestor. The latter
            // shadows the ancestor for everything under `m` — `rp_for`
            // resolves by longest prefix, so routing stays consistent even
            // though the table is no longer strictly prefix-free during
            // the transition.
            self.served.insert(m.clone(), new_rp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    #[test]
    fn unique_covering_rp() {
        let mut t = RpTable::new();
        t.assign(n("/1"), RpId(0)).unwrap();
        t.assign(n("/2"), RpId(1)).unwrap();
        assert_eq!(t.rp_for(&n("/1/1/1")), Some(RpId(0)));
        assert_eq!(t.rp_for(&n("/2")), Some(RpId(1)));
        assert_eq!(t.rp_for(&n("/3")), None);
        assert_eq!(t.serving_prefix(&n("/1/4")), Some((n("/1"), RpId(0))));
    }

    #[test]
    fn prefix_freeness_enforced() {
        let mut t = RpTable::new();
        t.assign(n("/1/1"), RpId(0)).unwrap();
        let e = t.assign(n("/1"), RpId(1)).unwrap_err();
        assert_eq!(e.conflicts_with, n("/1/1"));
        let e = t.assign(n("/1/1/1"), RpId(1)).unwrap_err();
        assert_eq!(e.conflicts_with, n("/1/1"));
        // Sibling is fine.
        t.assign(n("/1/2"), RpId(1)).unwrap();
        assert!(t.is_prefix_free());
    }

    #[test]
    fn exact_reassignment_is_handoff() {
        let mut t = RpTable::new();
        t.assign(n("/1"), RpId(0)).unwrap();
        t.assign(n("/1"), RpId(5)).unwrap();
        assert_eq!(t.rp_for(&n("/1/9")), Some(RpId(5)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn subscription_overlap_query() {
        let mut t = RpTable::new();
        t.assign(n("/1/1"), RpId(0)).unwrap();
        t.assign(n("/1/2"), RpId(1)).unwrap();
        t.assign(n("/2"), RpId(2)).unwrap();
        // Subscribing to /1 requires joining the RPs below it.
        assert_eq!(t.rps_for_subscription(&n("/1")), vec![RpId(0), RpId(1)]);
        // Subscribing to /1/1/5 requires only the covering RP.
        assert_eq!(t.rps_for_subscription(&n("/1/1/5")), vec![RpId(0)]);
        // Subscribing to / requires all.
        assert_eq!(
            t.rps_for_subscription(&Name::root()),
            vec![RpId(0), RpId(1), RpId(2)]
        );
        let pfx = t.prefixes_for_subscription(&n("/1"));
        assert_eq!(pfx.len(), 2);
    }

    #[test]
    fn refine_splits_prefix_in_place() {
        let mut t = RpTable::new();
        t.assign(Name::root(), RpId(0)).unwrap();
        t.refine(&Name::root(), &[n("/0"), n("/1"), n("/2")]);
        assert_eq!(t.len(), 3);
        assert!(t.is_prefix_free());
        assert_eq!(t.rp_for(&n("/1/5")), Some(RpId(0)));
        assert_eq!(t.rp_for(&n("/9")), None, "refinement narrows coverage");
    }

    #[test]
    #[should_panic(expected = "does not refine")]
    fn refine_rejects_non_descendants() {
        let mut t = RpTable::new();
        t.assign(n("/1"), RpId(0)).unwrap();
        t.refine(&n("/1"), &[n("/2/1")]);
    }

    #[test]
    fn apply_move_reassigns() {
        let mut t = RpTable::new();
        t.assign(n("/1"), RpId(0)).unwrap();
        t.assign(n("/2"), RpId(0)).unwrap();
        t.apply_move(&[n("/2")], RpId(1));
        assert_eq!(t.rp_for(&n("/2/3")), Some(RpId(1)));
        assert_eq!(t.rp_for(&n("/1/3")), Some(RpId(0)));
        assert_eq!(t.rps(), vec![RpId(0), RpId(1)]);
    }

    #[test]
    fn prefixes_of_lists_rp_assignments() {
        let mut t = RpTable::new();
        t.assign(n("/1"), RpId(0)).unwrap();
        t.assign(n("/2"), RpId(1)).unwrap();
        t.assign(n("/3"), RpId(0)).unwrap();
        assert_eq!(t.prefixes_of(RpId(0)), vec![n("/1"), n("/3")]);
        assert_eq!(t.assignments().len(), 3);
    }
}
