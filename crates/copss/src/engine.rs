//! The router-local COPSS engine: subscription state + RP table + the
//! upstream-join reconciliation that keeps the multicast trees correct.

use std::collections::{BTreeMap, BTreeSet};

use gcopss_names::Name;
use gcopss_ndn::FaceId;

use crate::{RpId, RpTable, SubscriptionTable};

/// A join this router must propagate toward an RP: "send
/// `Subscribe{name, rp}` one hop toward `rp`".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinRequest {
    /// The RP whose multicast tree is being joined.
    pub rp: RpId,
    /// The subscribed CD name.
    pub name: Name,
}

/// A prune this router must propagate toward an RP: "send
/// `Unsubscribe{name, rp}` one hop toward `rp`".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PruneRequest {
    /// The RP whose multicast tree is being left.
    pub rp: RpId,
    /// The unsubscribed CD name.
    pub name: Name,
}

/// The COPSS half of a G-COPSS router (Fig. 2): the Subscription Table, the
/// router's copy of the RP table, and the record of joins it has sent
/// upstream.
///
/// Subscriptions are *tree-scoped*: every ST entry carries the RPs it was
/// joined toward, and a multicast travelling tree `T` only leaves through
/// faces whose matching entry is anchored at `T`. Host subscriptions arrive
/// untagged; the first-hop router derives their anchors from its RP table
/// (and re-derives them when CDs move between RPs).
///
/// The engine's central operation is *reconciliation*: after any change to
/// the ST or the RP table, [`CopssEngine::reconcile`] recomputes the set of
/// `(rp, name)` joins this router needs and returns the difference against
/// what is currently joined — new joins to send and stale joins to prune.
/// This one mechanism implements subscription propagation and aggregation
/// (§III-B), unsubscription pruning, and the re-anchoring of subscriptions
/// when CDs move to a new RP during hot-spot splits (§IV-B).
#[derive(Debug, Clone, Default)]
pub struct CopssEngine {
    st: SubscriptionTable,
    rp_table: RpTable,
    /// Joins currently propagated upstream, per RP.
    joined: BTreeMap<RpId, BTreeSet<Name>>,
}

impl CopssEngine {
    /// Creates an engine with empty tables.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The subscription table (read-only).
    #[must_use]
    pub fn st(&self) -> &SubscriptionTable {
        &self.st
    }

    /// This router's view of the CD → RP assignment.
    #[must_use]
    pub fn rp_table(&self) -> &RpTable {
        &self.rp_table
    }

    /// Mutable access to the RP table (initial configuration).
    pub fn rp_table_mut(&mut self) -> &mut RpTable {
        &mut self.rp_table
    }

    /// Records subscriptions arriving on `face` and returns the upstream
    /// joins that became necessary.
    ///
    /// `from_rp` is the RP tag carried by the Subscribe packet: `None` for
    /// host subscriptions (this router derives the anchors), `Some` for
    /// joins propagated by a downstream router.
    pub fn handle_subscribe(
        &mut self,
        face: FaceId,
        cds: &[Name],
        from_rp: Option<RpId>,
    ) -> Vec<JoinRequest> {
        for cd in cds {
            let (rps, auto) = match from_rp {
                Some(rp) => ([rp].into(), false),
                None => (
                    self.rp_table
                        .rps_for_subscription(cd)
                        .into_iter()
                        .collect::<BTreeSet<_>>(),
                    true,
                ),
            };
            self.st.subscribe(face, cd.clone(), rps, auto);
        }
        self.reconcile().0
    }

    /// Removes subscriptions from `face` and returns the upstream prunes
    /// (and, rarely, joins) that follow. `from_rp` mirrors
    /// [`CopssEngine::handle_subscribe`].
    pub fn handle_unsubscribe(
        &mut self,
        face: FaceId,
        cds: &[Name],
        from_rp: Option<RpId>,
    ) -> (Vec<JoinRequest>, Vec<PruneRequest>) {
        for cd in cds {
            self.st.unsubscribe(face, cd, from_rp);
        }
        self.reconcile()
    }

    /// Removes every subscription of a face (face teardown, e.g. a link or
    /// neighbor failure). Returns the CD names purged from the ST along
    /// with the upstream joins/prunes that follow, so the router can count
    /// the purge and repair the trees.
    pub fn handle_face_down(
        &mut self,
        face: FaceId,
    ) -> (Vec<Name>, Vec<JoinRequest>, Vec<PruneRequest>) {
        let purged = self.st.remove_face(face);
        let (joins, prunes) = self.reconcile();
        (purged, joins, prunes)
    }

    /// Applies an `RpUpdate` (CDs moved to a new RP): updates the RP table,
    /// re-derives the anchors of host subscriptions, and returns the joins
    /// and prunes needed to re-anchor this router's upstream state.
    pub fn handle_rp_update(
        &mut self,
        moved: &[Name],
        new_rp: RpId,
    ) -> (Vec<JoinRequest>, Vec<PruneRequest>) {
        self.rp_table.apply_move(moved, new_rp);
        let table = &self.rp_table;
        self.st
            .retag_auto(|name| table.rps_for_subscription(name).into_iter().collect());
        self.reconcile()
    }

    /// The RP a publication to `cd` must be sent to (unique by
    /// prefix-freeness).
    #[must_use]
    pub fn rp_for_publication(&self, cd: &Name) -> Option<RpId> {
        self.rp_table.rp_for(cd)
    }

    /// The joins currently held toward `rp`.
    #[must_use]
    pub fn joined_toward(&self, rp: RpId) -> Vec<Name> {
        self.joined
            .get(&rp)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Every `(rp, name)` join this engine believes it holds upstream, as
    /// re-sendable [`JoinRequest`]s. Used after a fault repair: the upstream
    /// may have purged this router's branch, so the joins are re-expressed
    /// along the (possibly new) path — subscriptions are idempotent, a
    /// refresh that was not needed is absorbed by the upstream ST.
    #[must_use]
    pub fn refresh_joins(&self) -> Vec<JoinRequest> {
        let mut out: Vec<JoinRequest> = self
            .joined
            .iter()
            .flat_map(|(rp, set)| {
                set.iter().map(|name| JoinRequest {
                    rp: *rp,
                    name: name.clone(),
                })
            })
            .collect();
        out.sort();
        out
    }

    /// Discards all soft state — the ST and the upstream-join record — as
    /// happens when the hosting router crashes and restarts. The RP table survives (it is configuration, rebuilt
    /// from floods, not per-subscriber state).
    pub fn clear_soft_state(&mut self) {
        self.st = SubscriptionTable::default();
        self.joined.clear();
    }

    /// Recomputes the needed `(rp, name)` joins from the current ST and
    /// diffs them against the joins already propagated. Returns
    /// `(new joins, stale prunes)` and updates the internal record.
    pub fn reconcile(&mut self) -> (Vec<JoinRequest>, Vec<PruneRequest>) {
        // 1. Collect every (name, anchor RP) pair the ST requires.
        let mut needed: BTreeMap<RpId, BTreeSet<Name>> = BTreeMap::new();
        for (name, rps) in self.st.all_subscriptions_tagged() {
            for rp in rps {
                needed.entry(rp).or_default().insert(name.clone());
            }
        }

        // 2. Per RP, drop names covered by a broader needed name
        //    (subscription aggregation).
        for set in needed.values_mut() {
            let names: Vec<Name> = set.iter().cloned().collect();
            for n in &names {
                if names.iter().any(|m| m.is_strict_prefix_of(n)) {
                    set.remove(n);
                }
            }
        }
        needed.retain(|_, set| !set.is_empty());

        // 3. Diff against what is already joined.
        let mut joins = Vec::new();
        let mut prunes = Vec::new();
        for (rp, set) in &needed {
            let current = self.joined.get(rp);
            for name in set.iter() {
                if !current.is_some_and(|c| c.contains(name)) {
                    joins.push(JoinRequest {
                        rp: *rp,
                        name: name.clone(),
                    });
                }
            }
        }
        for (rp, current) in &self.joined {
            let target = needed.get(rp);
            for name in current.iter() {
                if !target.is_some_and(|s| s.contains(name)) {
                    prunes.push(PruneRequest {
                        rp: *rp,
                        name: name.clone(),
                    });
                }
            }
        }
        // 4. Commit.
        self.joined = needed;
        joins.sort();
        prunes.sort();
        (joins, prunes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_names::Cd;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    fn engine_with_root_rp() -> CopssEngine {
        let mut e = CopssEngine::new();
        e.rp_table_mut().assign(Name::root(), RpId(0)).unwrap();
        e
    }

    #[test]
    fn host_subscribe_triggers_join() {
        let mut e = engine_with_root_rp();
        let joins = e.handle_subscribe(FaceId(1), &[n("/1/2")], None);
        assert_eq!(
            joins,
            vec![JoinRequest {
                rp: RpId(0),
                name: n("/1/2")
            }]
        );
        assert_eq!(e.joined_toward(RpId(0)), vec![n("/1/2")]);
    }

    #[test]
    fn tagged_subscribe_joins_only_that_rp() {
        let mut e = CopssEngine::new();
        e.rp_table_mut().assign(n("/1"), RpId(0)).unwrap();
        e.rp_table_mut().assign(n("/2"), RpId(1)).unwrap();
        // A downstream router joined / toward RP 1 specifically.
        let joins = e.handle_subscribe(FaceId(1), &[Name::root()], Some(RpId(1)));
        assert_eq!(
            joins,
            vec![JoinRequest {
                rp: RpId(1),
                name: Name::root()
            }]
        );
        assert!(e.joined_toward(RpId(0)).is_empty());
        // Tree scoping: RP 0's publications do not use this face.
        let cd = Cd::parse_lit("/1/5");
        assert!(e.st().matching_faces(&cd, None, Some(RpId(0))).is_empty());
        assert_eq!(
            e.st().matching_faces(&Cd::parse_lit("/2/5"), None, Some(RpId(1))),
            vec![FaceId(1)]
        );
    }

    #[test]
    fn second_identical_subscription_is_aggregated() {
        let mut e = engine_with_root_rp();
        e.handle_subscribe(FaceId(1), &[n("/1")], None);
        let joins = e.handle_subscribe(FaceId(2), &[n("/1")], None);
        assert!(joins.is_empty(), "aggregated at this router");
        let faces = e.st().matching_faces(&Cd::parse_lit("/1/5"), None, Some(RpId(0)));
        assert_eq!(faces, vec![FaceId(1), FaceId(2)]);
    }

    #[test]
    fn broader_subscription_covers_narrower_join() {
        let mut e = engine_with_root_rp();
        e.handle_subscribe(FaceId(1), &[n("/1/2")], None);
        let joins = e.handle_subscribe(FaceId(2), &[n("/1")], None);
        assert_eq!(
            joins,
            vec![JoinRequest {
                rp: RpId(0),
                name: n("/1")
            }]
        );
        assert_eq!(e.joined_toward(RpId(0)), vec![n("/1")]);
    }

    #[test]
    fn unsubscribe_prunes_when_last() {
        let mut e = engine_with_root_rp();
        e.handle_subscribe(FaceId(1), &[n("/1")], None);
        e.handle_subscribe(FaceId(2), &[n("/1")], None);
        let (j, p) = e.handle_unsubscribe(FaceId(1), &[n("/1")], None);
        assert!(j.is_empty() && p.is_empty(), "face 2 still subscribed");
        let (j, p) = e.handle_unsubscribe(FaceId(2), &[n("/1")], None);
        assert!(j.is_empty());
        assert_eq!(
            p,
            vec![PruneRequest {
                rp: RpId(0),
                name: n("/1")
            }]
        );
    }

    #[test]
    fn subscription_spanning_multiple_rps() {
        let mut e = CopssEngine::new();
        e.rp_table_mut().assign(n("/1/1"), RpId(0)).unwrap();
        e.rp_table_mut().assign(n("/1/2"), RpId(1)).unwrap();
        e.rp_table_mut().assign(n("/2"), RpId(2)).unwrap();
        let joins = e.handle_subscribe(FaceId(1), &[n("/1")], None);
        assert_eq!(
            joins,
            vec![
                JoinRequest {
                    rp: RpId(0),
                    name: n("/1")
                },
                JoinRequest {
                    rp: RpId(1),
                    name: n("/1")
                },
            ]
        );
        // Tree scoping: the host face receives from both trees.
        let cd = Cd::parse_lit("/1/1/7");
        assert_eq!(e.st().matching_faces(&cd, None, Some(RpId(0))), vec![FaceId(1)]);
        assert!(e.st().matching_faces(&cd, None, Some(RpId(2))).is_empty());
    }

    #[test]
    fn rp_update_reanchors_joins_and_retags() {
        let mut e = CopssEngine::new();
        e.rp_table_mut().assign(n("/1"), RpId(0)).unwrap();
        e.rp_table_mut().assign(n("/2"), RpId(0)).unwrap();
        e.handle_subscribe(FaceId(1), &[n("/2/3")], None);
        assert_eq!(e.joined_toward(RpId(0)), vec![n("/2/3")]);
        // /2 moves to RP 1: the join must move too.
        let (j, p) = e.handle_rp_update(&[n("/2")], RpId(1));
        assert_eq!(
            j,
            vec![JoinRequest {
                rp: RpId(1),
                name: n("/2/3")
            }]
        );
        assert_eq!(
            p,
            vec![PruneRequest {
                rp: RpId(0),
                name: n("/2/3")
            }]
        );
        // The host face entry now lives on RP 1's tree.
        let cd = Cd::parse_lit("/2/3");
        assert_eq!(e.st().matching_faces(&cd, None, Some(RpId(1))), vec![FaceId(1)]);
        assert!(e.st().matching_faces(&cd, None, Some(RpId(0))).is_empty());
    }

    #[test]
    fn face_down_prunes_everything_unique() {
        let mut e = engine_with_root_rp();
        e.handle_subscribe(FaceId(1), &[n("/1"), n("/2")], None);
        e.handle_subscribe(FaceId(2), &[n("/2")], None);
        let (purged, j, p) = e.handle_face_down(FaceId(1));
        assert_eq!(purged, vec![n("/1"), n("/2")]);
        assert!(j.is_empty());
        assert_eq!(
            p,
            vec![PruneRequest {
                rp: RpId(0),
                name: n("/1")
            }]
        );
        assert_eq!(e.joined_toward(RpId(0)), vec![n("/2")]);
    }

    #[test]
    fn no_rp_table_means_no_joins() {
        let mut e = CopssEngine::new();
        let joins = e.handle_subscribe(FaceId(1), &[n("/1")], None);
        assert!(joins.is_empty());
        // Subscription is still recorded for untagged matching.
        assert_eq!(
            e.st().matching_faces(&Cd::parse_lit("/1/1"), None, None),
            vec![FaceId(1)]
        );
    }

    #[test]
    fn reconcile_is_idempotent() {
        let mut e = engine_with_root_rp();
        e.handle_subscribe(FaceId(1), &[n("/1"), n("/1/2"), n("/3")], None);
        let (j, p) = e.reconcile();
        assert!(j.is_empty(), "{j:?}");
        assert!(p.is_empty(), "{p:?}");
    }
}
