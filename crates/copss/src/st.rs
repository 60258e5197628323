//! The Subscription Table.

use std::collections::{BTreeMap, BTreeSet};

use gcopss_names::{BloomParams, Cd, CountingBloomFilter, Name, NameTreeBitmap};
use gcopss_ndn::FaceId;

use crate::RpId;

/// One face's subscription to one CD name.
///
/// The two anchor sets record *who asserted* the anchors — host-derived
/// anchors are recomputed from the RP table on every `RpUpdate`
/// ([`SubscriptionTable::retag_auto`]), while router-join anchors are owned
/// by the joining router and must survive retagging untouched. Folding both
/// into one set with an `auto` flag (as this table originally did) lets a
/// host re-subscribe convert a router-join entry, after which the next
/// retag silently wipes the router's anchors and multicasts skip the face.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SubEntry {
    /// Anchors derived from the RP table for a host subscription (no RP tag
    /// on the wire). `Some` even when empty: a host subscription with no
    /// reachable RP still exists for untagged (host-side) delivery.
    host: Option<BTreeSet<RpId>>,
    /// Anchors asserted by explicit router joins, one per joined RP tree.
    router: Option<BTreeSet<RpId>>,
}

impl SubEntry {
    fn empty() -> Self {
        Self {
            host: None,
            router: None,
        }
    }

    fn is_gone(&self) -> bool {
        self.host.is_none() && self.router.is_none()
    }

    /// A multicast on tree `tree` may leave through this entry's face.
    /// `tree = None` matches any entry (host-side and hybrid delivery).
    fn matches_tree(&self, tree: Option<RpId>) -> bool {
        match tree {
            None => true,
            Some(t) => {
                self.host.as_ref().is_some_and(|s| s.contains(&t))
                    || self.router.as_ref().is_some_and(|s| s.contains(&t))
            }
        }
    }

    /// The union of both provenances' anchors.
    fn anchors(&self) -> impl Iterator<Item = &RpId> {
        self.host
            .iter()
            .flatten()
            .chain(self.router.iter().flatten())
    }
}

/// The COPSS Subscription Table: for every face, the set of CDs subscribed
/// through that face, each tagged with the RP trees it was joined toward.
///
/// The match rule is hierarchical: a multicast with CD `c` on tree `T` is
/// forwarded to face `f` iff `f` subscribed to some *prefix* of `c` with
/// `T` among its anchor RPs.
///
/// Internally the table keeps two synchronized views:
///
/// * a **shared match index** — one [`NameTreeBitmap`] over all faces'
///   subscription names, each node holding the per-face anchor entries for
///   that exact name. [`SubscriptionTable::matching_faces_into`] walks the
///   packet's CD down this index using the precomputed per-level hashes it
///   carries (§III-C), so the cost of a match is `O(depth)` regardless of
///   how many faces or subscriptions the table holds;
/// * **per-face tables** — each face's exact entry map plus the counting
///   Bloom filter of §III-C. The exact maps make `Unsubscribe` and
///   [`SubscriptionTable::matching_faces_exact`] (the brute-force oracle the
///   differential tests compare against) independent of the index; the
///   Bloom filters remain the wire-representable per-face CD summary
///   behind [`SubscriptionTable::matching_faces_bloom`].
///
/// # Example
///
/// ```
/// # use gcopss_copss::{RpId, SubscriptionTable};
/// # use gcopss_names::{Cd, Name};
/// # use gcopss_ndn::FaceId;
/// let mut st = SubscriptionTable::default();
/// st.subscribe(FaceId(1), Name::parse_lit("/sports"), [RpId(0)].into(), true);
/// let out = st.matching_faces(&Cd::parse_lit("/sports/football"), None, Some(RpId(0)));
/// assert_eq!(out, vec![FaceId(1)]);
/// assert!(st
///     .matching_faces(&Cd::parse_lit("/sports/football"), None, Some(RpId(9)))
///     .is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SubscriptionTable {
    /// Shared match index: subscription name → per-face anchor entries.
    index: NameTreeBitmap<BTreeMap<FaceId, SubEntry>>,
    faces: BTreeMap<FaceId, FaceTable>,
    bloom_params: BloomParams,
}

#[derive(Debug, Clone)]
struct FaceTable {
    entries: BTreeMap<Name, SubEntry>,
    bloom: CountingBloomFilter,
}

impl SubscriptionTable {
    /// Creates an empty table whose per-face Bloom filters use the given
    /// sizing.
    #[must_use]
    pub fn new(bloom_params: BloomParams) -> Self {
        Self {
            index: NameTreeBitmap::new(),
            faces: BTreeMap::new(),
            bloom_params,
        }
    }

    /// Mirrors `face`'s entry for `name` into the shared index (or removes
    /// it when the entry is gone).
    fn sync_index(
        index: &mut NameTreeBitmap<BTreeMap<FaceId, SubEntry>>,
        name: &Name,
        face: FaceId,
        entry: Option<&SubEntry>,
    ) {
        match entry {
            Some(e) => {
                index
                    .get_or_insert_with(name, BTreeMap::new)
                    .insert(face, e.clone());
            }
            None => {
                if let Some(m) = index.get_mut(name) {
                    m.remove(&face);
                    if m.is_empty() {
                        index.remove(name);
                    }
                }
            }
        }
    }

    /// Adds a subscription for `cd` through `face`, anchored at `rps`.
    /// `auto = true` marks a host subscription whose anchors are derived
    /// from the RP table (and recomputed by
    /// [`SubscriptionTable::retag_auto`]); `auto = false` marks an explicit
    /// router join whose anchors are owned by the joining router. The two
    /// provenances accumulate independently on the same entry. Returns
    /// `true` if the face was not already subscribed to exactly `cd`;
    /// re-subscribing merges into the matching provenance's anchor set.
    pub fn subscribe(&mut self, face: FaceId, cd: Name, rps: BTreeSet<RpId>, auto: bool) -> bool {
        let params = self.bloom_params;
        let ft = self.faces.entry(face).or_insert_with(|| FaceTable {
            entries: BTreeMap::new(),
            bloom: CountingBloomFilter::new(params),
        });
        let mut created = false;
        let e = ft.entries.entry(cd.clone()).or_insert_with(|| {
            created = true;
            SubEntry::empty()
        });
        if created {
            ft.bloom.insert(cd.stable_hash());
        }
        let side = if auto { &mut e.host } else { &mut e.router };
        side.get_or_insert_with(BTreeSet::new).extend(rps);
        Self::sync_index(&mut self.index, &cd, face, Some(e));
        created
    }

    /// Removes the subscription for exactly `cd` from `face`. With
    /// `rp = Some(r)`, only the router-join anchor `r` is removed (a tagged
    /// `Unsubscribe` is a router-tree leave; host-derived anchors are not
    /// the leaving router's to retract) and the entry stays while any
    /// provenance remains; with `None` the whole entry goes. Returns `true`
    /// if the entry was fully removed.
    pub fn unsubscribe(&mut self, face: FaceId, cd: &Name, rp: Option<RpId>) -> bool {
        let Some(ft) = self.faces.get_mut(&face) else {
            return false;
        };
        let Some(e) = ft.entries.get_mut(cd) else {
            return false;
        };
        match rp {
            Some(r) => {
                if let Some(router) = &mut e.router {
                    router.remove(&r);
                    if router.is_empty() {
                        e.router = None;
                    }
                }
            }
            None => {
                e.host = None;
                e.router = None;
            }
        }
        let gone = e.is_gone();
        if gone {
            ft.entries.remove(cd);
            ft.bloom.remove(cd.stable_hash());
            Self::sync_index(&mut self.index, cd, face, None);
            if ft.entries.is_empty() {
                self.faces.remove(&face);
            }
        } else {
            Self::sync_index(&mut self.index, cd, face, Some(e));
        }
        gone
    }

    /// Removes every subscription of `face` (e.g. the face went down),
    /// returning the removed CDs.
    pub fn remove_face(&mut self, face: FaceId) -> Vec<Name> {
        let Some(ft) = self.faces.remove(&face) else {
            return Vec::new();
        };
        let cds: Vec<Name> = ft.entries.into_keys().collect();
        for cd in &cds {
            Self::sync_index(&mut self.index, cd, face, None);
        }
        cds
    }

    /// Recomputes the anchor sets of host-derived entries from the current
    /// RP table — called after an `RpUpdate` moved CDs. Router-join anchors
    /// are left untouched: they were asserted by explicit joins, not derived
    /// from the RP table, and wiping them here is exactly the
    /// anchor-clobbering bug this table used to have. (Hosts keep receiving
    /// from draining trees regardless: delivery to host faces is
    /// name-matched without a tree check, since leaves cannot loop.)
    pub fn retag_auto(&mut self, anchors_of: impl Fn(&Name) -> BTreeSet<RpId>) {
        for (face, ft) in &mut self.faces {
            for (name, e) in &mut ft.entries {
                if e.host.is_some() {
                    e.host = Some(anchors_of(name));
                    Self::sync_index(&mut self.index, name, *face, Some(e));
                }
            }
        }
    }

    /// Writes the faces a multicast with CD `cd` travelling tree `tree` must
    /// be forwarded to, excluding `arrival`, into `out` — sorted, without
    /// duplicates, replacing whatever `out` held. Walks the shared index
    /// down the packet's precomputed per-level hashes — `O(depth)` bitmap
    /// descents, independent of table size — and applies the exact
    /// tree-membership check at each stored prefix. `tree = None` matches
    /// any tree (host-side and hybrid tables).
    ///
    /// Allocates only while `out` grows: a forwarder that keeps its buffer
    /// across packets matches without touching the heap.
    pub fn matching_faces_into(
        &self,
        cd: &Cd,
        arrival: Option<FaceId>,
        tree: Option<RpId>,
        out: &mut Vec<FaceId>,
    ) {
        out.clear();
        for (_, face_map) in self
            .index
            .prefix_values_hashed(cd.name(), cd.hashes().as_slice())
        {
            for (f, e) in face_map {
                if Some(*f) != arrival && e.matches_tree(tree) {
                    out.push(*f);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// [`SubscriptionTable::matching_faces_into`] a fresh vector.
    #[must_use]
    pub fn matching_faces(
        &self,
        cd: &Cd,
        arrival: Option<FaceId>,
        tree: Option<RpId>,
    ) -> Vec<FaceId> {
        let mut out = Vec::new();
        self.matching_faces_into(cd, arrival, tree, &mut out);
        out
    }

    /// Like [`SubscriptionTable::matching_faces`] but scanning every face's
    /// exact entry map, without the shared index (ground truth for the
    /// differential tests).
    #[must_use]
    pub fn matching_faces_exact(
        &self,
        cd: &Cd,
        arrival: Option<FaceId>,
        tree: Option<RpId>,
    ) -> Vec<FaceId> {
        self.faces
            .iter()
            .filter(|(f, _)| Some(**f) != arrival)
            .filter(|(_, ft)| Self::face_matches(ft, cd.name(), tree))
            .map(|(f, _)| *f)
            .collect()
    }

    /// The paper-literal per-face path: Bloom prefilter on the packet's
    /// per-level hashes ("simple bit comparison", §III-C), then the exact
    /// per-face check. Same result as [`SubscriptionTable::matching_faces`]
    /// (the filter admits no false negatives and the exact check runs
    /// after), but `O(faces)` per packet — kept as the baseline the
    /// `exp_scale` sweep measures the index against.
    #[must_use]
    pub fn matching_faces_bloom(
        &self,
        cd: &Cd,
        arrival: Option<FaceId>,
        tree: Option<RpId>,
    ) -> Vec<FaceId> {
        let hashes = cd.hashes().as_slice();
        self.faces
            .iter()
            .filter(|(f, _)| Some(**f) != arrival)
            .filter(|(_, ft)| ft.bloom.contains_any(hashes))
            .filter(|(_, ft)| Self::face_matches(ft, cd.name(), tree))
            .map(|(f, _)| *f)
            .collect()
    }

    fn face_matches(ft: &FaceTable, cd: &Name, tree: Option<RpId>) -> bool {
        cd.prefixes()
            .any(|p| ft.entries.get(&p).is_some_and(|e| e.matches_tree(tree)))
    }

    /// Every `(name, anchor RPs)` subscription across all faces, merged
    /// over both provenances.
    #[must_use]
    pub fn all_subscriptions_tagged(&self) -> BTreeMap<Name, BTreeSet<RpId>> {
        let mut out: BTreeMap<Name, BTreeSet<RpId>> = BTreeMap::new();
        for ft in self.faces.values() {
            for (name, e) in &ft.entries {
                out.entry(name.clone()).or_default().extend(e.anchors());
            }
        }
        out
    }

    /// Total number of (face, CD) subscription pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faces.values().map(|ft| ft.entries.len()).sum()
    }

    /// Returns `true` if no face has any subscription.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faces.is_empty()
    }
}

impl Default for SubscriptionTable {
    fn default() -> Self {
        Self::new(BloomParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    fn rps(ids: &[u32]) -> BTreeSet<RpId> {
        ids.iter().map(|&i| RpId(i)).collect()
    }

    #[test]
    fn hierarchical_matching() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0]), true);
        st.subscribe(FaceId(2), n("/1/2"), rps(&[0]), true);
        st.subscribe(FaceId(3), n("/2"), rps(&[0]), true);

        // Publication to /1/2 reaches the /1 subscriber and the /1/2
        // subscriber, not the /2 subscriber.
        let out = st.matching_faces(&Cd::parse_lit("/1/2"), None, Some(RpId(0)));
        assert_eq!(out, vec![FaceId(1), FaceId(2)]);

        // Publication to /1 reaches only the /1 subscriber (the /1/2
        // subscription is more specific; it must NOT match /1 — that is the
        // whole point of the own-area CDs).
        let out = st.matching_faces(&Cd::parse_lit("/1"), None, Some(RpId(0)));
        assert_eq!(out, vec![FaceId(1)]);
    }

    #[test]
    fn tree_scoping_separates_rp_trees() {
        let mut st = SubscriptionTable::default();
        // Face 1 joined / toward RP 0 only; face 2 toward RP 1 only.
        st.subscribe(FaceId(1), Name::root(), rps(&[0]), false);
        st.subscribe(FaceId(2), Name::root(), rps(&[1]), false);
        let cd = Cd::parse_lit("/1/2");
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(0))), vec![FaceId(1)]);
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(1))), vec![FaceId(2)]);
        // Untagged matching sees both (host-side delivery).
        assert_eq!(
            st.matching_faces(&cd, None, None),
            vec![FaceId(1), FaceId(2)]
        );
    }

    #[test]
    fn arrival_face_excluded() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0]), true);
        st.subscribe(FaceId(2), n("/1"), rps(&[0]), true);
        let out = st.matching_faces(&Cd::parse_lit("/1/5"), Some(FaceId(1)), Some(RpId(0)));
        assert_eq!(out, vec![FaceId(2)]);
    }

    #[test]
    fn bloom_is_superset_of_exact() {
        let mut st = SubscriptionTable::default();
        for i in 1..=5u32 {
            for j in 1..=5u32 {
                st.subscribe(FaceId(i), n(&format!("/{i}/{j}")), rps(&[0]), true);
            }
        }
        for i in 1..=5u32 {
            for j in 1..=5u32 {
                let cd = Cd::parse_lit(&format!("/{i}/{j}"));
                let exact = st.matching_faces_exact(&cd, None, Some(RpId(0)));
                let bloom = st.matching_faces_bloom(&cd, None, Some(RpId(0)));
                assert_eq!(bloom, exact, "bloom path diverged from exact");
            }
        }
    }

    #[test]
    fn index_path_matches_exact_path() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0]), true);
        st.subscribe(FaceId(2), n("/1/2"), rps(&[1]), false);
        st.subscribe(FaceId(3), n("/1/2/3"), rps(&[0, 1]), true);
        for probe in ["/1", "/1/2", "/1/2/3", "/1/2/3/4", "/2", "/1/9"] {
            let cd = Cd::parse_lit(probe);
            for tree in [None, Some(RpId(0)), Some(RpId(1)), Some(RpId(9))] {
                for arrival in [None, Some(FaceId(1)), Some(FaceId(2))] {
                    assert_eq!(
                        st.matching_faces(&cd, arrival, tree),
                        st.matching_faces_exact(&cd, arrival, tree),
                        "index diverged at cd={probe} tree={tree:?} arrival={arrival:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsubscribe_per_rp_and_whole() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0, 1]), false);
        // Removing one anchor keeps the entry.
        assert!(!st.unsubscribe(FaceId(1), &n("/1"), Some(RpId(0))));
        assert_eq!(
            st.matching_faces(&Cd::parse_lit("/1/1"), None, Some(RpId(1))),
            vec![FaceId(1)]
        );
        assert!(st
            .matching_faces(&Cd::parse_lit("/1/1"), None, Some(RpId(0)))
            .is_empty());
        // Removing the last anchor removes the entry.
        assert!(st.unsubscribe(FaceId(1), &n("/1"), Some(RpId(1))));
        assert!(st.is_empty());
    }

    #[test]
    fn unsubscribe_untagged_removes_entry() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0, 1]), true);
        st.subscribe(FaceId(1), n("/2"), rps(&[0]), true);
        assert!(st.unsubscribe(FaceId(1), &n("/1"), None));
        assert!(!st.unsubscribe(FaceId(1), &n("/1"), None));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn resubscribe_merges_anchors() {
        let mut st = SubscriptionTable::default();
        assert!(st.subscribe(FaceId(1), n("/1"), rps(&[0]), false));
        assert!(!st.subscribe(FaceId(1), n("/1"), rps(&[1]), false));
        for rp in [RpId(0), RpId(1)] {
            assert_eq!(
                st.matching_faces(&Cd::parse_lit("/1/9"), None, Some(rp)),
                vec![FaceId(1)]
            );
        }
    }

    #[test]
    fn host_resubscribe_must_not_clobber_router_anchors() {
        // Regression (ISSUE 6): face 1 is a downstream router joined toward
        // RP 0. A host behind the same face then subscribes to the same CD
        // (anchors derived from the RP table: RP 5). With the old merged
        // `auto |= auto` entry, the re-subscribe converted the whole entry
        // to host provenance, and the retag after the next RpUpdate
        // replaced {0, 5} with {5} — multicasts on tree 0 silently stopped
        // leaving through face 1.
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0]), false); // router join
        st.subscribe(FaceId(1), n("/1"), rps(&[5]), true); // host re-subscribe
        st.retag_auto(|_| rps(&[5])); // RpUpdate settles

        let cd = Cd::parse_lit("/1/9");
        assert_eq!(
            st.matching_faces(&cd, None, Some(RpId(0))),
            vec![FaceId(1)],
            "router-join anchor lost after host re-subscribe + retag"
        );
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(5))), vec![FaceId(1)]);

        // And the reverse order: host first, router join second — the retag
        // must also leave the router's anchor alone.
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(2), n("/1"), rps(&[5]), true);
        st.subscribe(FaceId(2), n("/1"), rps(&[0]), false);
        st.retag_auto(|_| rps(&[5]));
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(0))), vec![FaceId(2)]);
    }

    #[test]
    fn tagged_unsubscribe_is_a_router_leave() {
        // A tagged Unsubscribe retracts a router join; host-derived anchors
        // are not the leaving router's to retract.
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0]), false);
        st.subscribe(FaceId(1), n("/1"), rps(&[0, 5]), true);
        assert!(!st.unsubscribe(FaceId(1), &n("/1"), Some(RpId(0))));
        let cd = Cd::parse_lit("/1/9");
        // The host-derived anchor 0 still matches; only the join is gone.
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(0))), vec![FaceId(1)]);
        // Retag drops the host's 0; now nothing anchors tree 0.
        st.retag_auto(|_| rps(&[5]));
        assert!(st.matching_faces(&cd, None, Some(RpId(0))).is_empty());
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(5))), vec![FaceId(1)]);
    }

    #[test]
    fn counting_bloom_survives_unsubscribe_of_sibling() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1/1"), rps(&[0]), true);
        st.subscribe(FaceId(1), n("/1/2"), rps(&[0]), true);
        st.unsubscribe(FaceId(1), &n("/1/2"), None);
        let out = st.matching_faces_bloom(&Cd::parse_lit("/1/1"), None, Some(RpId(0)));
        assert_eq!(out, vec![FaceId(1)]);
    }

    #[test]
    fn retag_auto_recomputes_host_entries() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/1"), rps(&[0]), true); // host
        st.subscribe(FaceId(2), n("/1"), rps(&[0]), false); // router join
        st.retag_auto(|_| rps(&[5]));
        let cd = Cd::parse_lit("/1/1");
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(5))), vec![FaceId(1)]);
        assert_eq!(st.matching_faces(&cd, None, Some(RpId(0))), vec![FaceId(2)]);
    }

    #[test]
    fn remove_face_returns_cds() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/a"), rps(&[0]), true);
        st.subscribe(FaceId(1), n("/b"), rps(&[0]), true);
        let mut cds = st.remove_face(FaceId(1));
        cds.sort();
        assert_eq!(cds, vec![n("/a"), n("/b")]);
        assert!(st.is_empty());
        assert!(st.remove_face(FaceId(1)).is_empty());
        assert!(st.matching_faces(&Cd::parse_lit("/a/x"), None, None).is_empty());
    }

    #[test]
    fn union_and_tagged_views() {
        let mut st = SubscriptionTable::default();
        st.subscribe(FaceId(1), n("/a"), rps(&[0]), true);
        st.subscribe(FaceId(2), n("/a"), rps(&[1]), true);
        st.subscribe(FaceId(2), n("/b"), rps(&[0]), true);
        let tagged = st.all_subscriptions_tagged();
        assert_eq!(tagged[&n("/a")], rps(&[0, 1]));
        assert_eq!(st.len(), 3);
    }
}
