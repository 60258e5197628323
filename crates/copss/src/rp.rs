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

    /// The unique RP serving publication CD `cd`, if any. Because the table
    /// is prefix-free, at most one served prefix covers `cd`.
    #[must_use]
    pub fn rp_for(&self, cd: &Name) -> Option<RpId> {
        self.served.prefix_values(cd).last().map(|(_, rp)| *rp)
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

    /// Applies an `RpUpdate`: the given CD prefixes move to `new_rp`.
    ///
    /// A moved prefix that is exactly served is re-assigned. One that lies
    /// below a coarser served prefix (moving `/1/2` out of a served `/1`)
    /// is inserted alongside it and shadows the ancestor for everything
    /// under it: [`RpTable::rp_for`] resolves by longest prefix, so routing
    /// stays consistent even though the table is not strictly prefix-free
    /// during the transition.
    pub fn apply_move(&mut self, moved: &[Name], new_rp: RpId) {
        for m in moved {
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
    }

    #[test]
    fn apply_move_reassigns() {
        let mut t = RpTable::new();
        t.assign(n("/1"), RpId(0)).unwrap();
        t.assign(n("/2"), RpId(0)).unwrap();
        t.apply_move(&[n("/2")], RpId(1));
        assert_eq!(t.rp_for(&n("/2/3")), Some(RpId(1)));
        assert_eq!(t.rp_for(&n("/1/3")), Some(RpId(0)));
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
