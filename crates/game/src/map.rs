//! Hierarchical game maps and the CD naming convention.

use std::collections::BTreeMap;
use std::fmt;

use gcopss_names::{Cd, Name};

/// Identifier of an area (any node of the map hierarchy: the world, a
/// region, or a zone).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct AreaId(pub u32);

impl AreaId {
    /// Index into dense per-area arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AreaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "area{}", self.0)
    }
}

/// The six movement types of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveType {
    /// To a lower layer, e.g. `/1/0 → /1/1` (plane landing). No snapshot
    /// download required.
    ToLowerLayer,
    /// Zone → its region, e.g. `/1/1 → /1/0` (plane take-off).
    ZoneToRegion,
    /// Region → the world layer, e.g. `/1/0 → /0` (launching a satellite).
    RegionToWorld,
    /// To a different zone in the same region, e.g. `/1/1 → /1/2`.
    ZoneSameRegion,
    /// To a different zone in a different region, e.g. `/2/3 → /3/2`.
    ZoneDifferentRegion,
    /// One region's airspace to another's, e.g. `/1/0 → /2/0`.
    RegionToRegion,
}

impl MoveType {
    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::ToLowerLayer => "to lower layer",
            Self::ZoneToRegion => "zone -> region",
            Self::RegionToWorld => "region -> world",
            Self::ZoneSameRegion => "different zone [same region]",
            Self::ZoneDifferentRegion => "different zone [different region]",
            Self::RegionToRegion => "to a different region",
        }
    }

    /// All six types, in Table III order.
    #[must_use]
    pub fn all() -> [MoveType; 6] {
        [
            Self::ToLowerLayer,
            Self::ZoneToRegion,
            Self::RegionToWorld,
            Self::ZoneSameRegion,
            Self::ZoneDifferentRegion,
            Self::RegionToRegion,
        ]
    }
}

#[derive(Debug, Clone)]
struct AreaNode {
    /// Path from the root: `/` for the world, `/1` for region 1, `/1/2`
    /// for a zone.
    path: Name,
    parent: Option<AreaId>,
    children: Vec<AreaId>,
    depth: usize,
}

/// A hierarchical game map (§III-A).
///
/// Areas form a tree. A player "at" a leaf area stands in that zone; a
/// player "at" a non-leaf area occupies that layer's own-area (flies over
/// it). Every area therefore has a unique *publication* leaf CD:
///
/// * leaf area `/1/2` → publishes to `/1/2`;
/// * non-leaf area `/1` → publishes to its own-area CD `/1/0`;
/// * the world `/` → publishes to `/0`.
///
/// Subscriptions follow §III-B: a player at area `a` subscribes to the
/// own-area CDs of every strict ancestor of `a` plus `a`'s own path (which
/// aggregates everything below `a`, including `a`'s own-area).
#[derive(Debug, Clone)]
pub struct GameMap {
    areas: Vec<AreaNode>,
    by_path: BTreeMap<Name, AreaId>,
    /// Leaf publication CDs in deterministic order.
    leaf_cds: Vec<Name>,
}

impl GameMap {
    /// Builds a uniform map: `layout[d]` children at depth `d`. The paper's
    /// evaluation map is `&[5, 5]`; Fig. 1's example map is `&[2, 4]`.
    ///
    /// # Panics
    ///
    /// Panics if any layout entry is zero.
    #[must_use]
    pub fn uniform(layout: &[u32]) -> Self {
        assert!(
            layout.iter().all(|&c| c > 0),
            "layout entries must be positive"
        );
        let mut areas = vec![AreaNode {
            path: Name::root(),
            parent: None,
            children: Vec::new(),
            depth: 0,
        }];
        let mut frontier = vec![AreaId(0)];
        for (d, &fanout) in layout.iter().enumerate() {
            let mut next = Vec::new();
            for parent in frontier {
                for i in 1..=fanout {
                    let id = AreaId(areas.len() as u32);
                    let path = areas[parent.index()].path.child_index(i);
                    areas.push(AreaNode {
                        path,
                        parent: Some(parent),
                        children: Vec::new(),
                        depth: d + 1,
                    });
                    areas[parent.index()].children.push(id);
                    next.push(id);
                }
            }
            frontier = next;
        }
        Self::finish(areas)
    }

    /// The paper's evaluation map: 5 regions × 5 zones (31 leaf CDs).
    #[must_use]
    pub fn paper_map() -> Self {
        Self::uniform(&[5, 5])
    }

    fn finish(areas: Vec<AreaNode>) -> Self {
        let by_path = areas
            .iter()
            .enumerate()
            .map(|(i, a)| (a.path.clone(), AreaId(i as u32)))
            .collect();
        let mut leaf_cds: Vec<Name> = (0..areas.len())
            .map(|i| Self::pub_cd_of(&areas, AreaId(i as u32)))
            .collect();
        leaf_cds.sort();
        leaf_cds.dedup();
        Self {
            areas,
            by_path,
            leaf_cds,
        }
    }

    fn pub_cd_of(areas: &[AreaNode], area: AreaId) -> Name {
        let node = &areas[area.index()];
        if node.children.is_empty() {
            node.path.clone()
        } else {
            node.path.own_area()
        }
    }

    /// Number of areas (tree nodes), including the world.
    #[must_use]
    pub fn area_count(&self) -> usize {
        self.areas.len()
    }

    /// All area ids.
    pub fn areas(&self) -> impl Iterator<Item = AreaId> + '_ {
        (0..self.areas.len() as u32).map(AreaId)
    }

    /// The world area (tree root).
    #[must_use]
    pub fn world(&self) -> AreaId {
        AreaId(0)
    }

    /// The tree path of an area (`/1/2` for a zone, `/` for the world).
    ///
    /// # Panics
    ///
    /// Panics if `area` is unknown.
    #[must_use]
    pub fn path(&self, area: AreaId) -> &Name {
        &self.areas[area.index()].path
    }

    /// The parent area, or `None` for the world.
    #[must_use]
    pub fn parent(&self, area: AreaId) -> Option<AreaId> {
        self.areas[area.index()].parent
    }

    /// Child areas (empty for zones).
    #[must_use]
    pub fn children(&self, area: AreaId) -> &[AreaId] {
        &self.areas[area.index()].children
    }

    /// Depth in the tree (world = 0).
    #[must_use]
    pub fn depth(&self, area: AreaId) -> usize {
        self.areas[area.index()].depth
    }

    /// Returns `true` for areas with no children.
    #[must_use]
    pub fn is_leaf_area(&self, area: AreaId) -> bool {
        self.areas[area.index()].children.is_empty()
    }

    /// Looks up an area by its tree path.
    #[must_use]
    pub fn area_by_name(&self, path: &Name) -> Option<AreaId> {
        self.by_path.get(path).copied()
    }

    /// The leaf CD a player at `area` publishes to (§III-B "Hierarchical
    /// Publishing").
    #[must_use]
    pub fn publication_cd(&self, area: AreaId) -> Cd {
        Cd::new(Self::pub_cd_of(&self.areas, area))
    }

    /// The CDs a player at `area` subscribes to (§III-B "Hierarchical
    /// Subscriptions"): ancestors' own-areas, then the area's own aggregate
    /// path.
    #[must_use]
    pub fn subscription_cds(&self, area: AreaId) -> Vec<Name> {
        let mut out = Vec::new();
        // Walk ancestors from the root down for deterministic order.
        let mut ancestors = Vec::new();
        let mut cur = self.parent(area);
        while let Some(a) = cur {
            ancestors.push(a);
            cur = self.parent(a);
        }
        for a in ancestors.into_iter().rev() {
            out.push(self.path(a).own_area());
        }
        out.push(self.path(area).clone());
        out
    }

    /// All leaf publication CDs in deterministic order (the paper's 31 CDs
    /// for the 5×5 map).
    #[must_use]
    pub fn leaf_cds(&self) -> &[Name] {
        &self.leaf_cds
    }

    /// The area whose *publication CD* is `cd` (inverse of
    /// [`GameMap::publication_cd`]).
    #[must_use]
    pub fn area_of_leaf_cd(&self, cd: &Name) -> Option<AreaId> {
        if cd.last().is_some_and(gcopss_names::Component::is_own_area) {
            self.area_by_name(&cd.parent().expect("own-area CD has a parent"))
        } else {
            let id = self.area_by_name(cd)?;
            self.is_leaf_area(id).then_some(id)
        }
    }

    /// Leaf CDs visible from `area`: every leaf CD matched by one of the
    /// area's subscriptions. This is the player's Area of Interest (AoI).
    #[must_use]
    pub fn visible_leaf_cds(&self, area: AreaId) -> Vec<Name> {
        let subs = self.subscription_cds(area);
        self.leaf_cds
            .iter()
            .filter(|cd| subs.iter().any(|s| s.is_prefix_of(cd)))
            .cloned()
            .collect()
    }

    /// Returns `true` if a player at `viewer` receives publications made at
    /// `publisher`'s location.
    #[must_use]
    pub fn can_see(&self, viewer: AreaId, publisher: AreaId) -> bool {
        let p = self.publication_cd(publisher);
        self.subscription_cds(viewer)
            .iter()
            .any(|s| s.is_prefix_of(p.name()))
    }

    /// Classifies a move for Table III. Returns `None` for degenerate moves
    /// (same area, or multi-layer jumps the model never generates).
    #[must_use]
    pub fn classify_move(&self, from: AreaId, to: AreaId) -> Option<MoveType> {
        if from == to {
            return None;
        }
        let (df, dt) = (self.depth(from), self.depth(to));
        if dt > df {
            // Moving down any number of layers: view only narrows.
            return self
                .path(from)
                .is_prefix_of(self.path(to))
                .then_some(MoveType::ToLowerLayer);
        }
        if dt < df {
            if df - dt != 1 || self.parent(from) != Some(to) {
                return None; // only single-layer ascents are modeled
            }
            // Zone -> its region, or region -> world.
            return if self.is_leaf_area(from) {
                Some(MoveType::ZoneToRegion)
            } else {
                Some(MoveType::RegionToWorld)
            };
        }
        // Lateral.
        if self.is_leaf_area(from) && self.is_leaf_area(to) {
            if self.parent(from) == self.parent(to) {
                Some(MoveType::ZoneSameRegion)
            } else {
                Some(MoveType::ZoneDifferentRegion)
            }
        } else if !self.is_leaf_area(from) && !self.is_leaf_area(to) {
            Some(MoveType::RegionToRegion)
        } else {
            None
        }
    }

    /// The leaf CDs newly visible after moving `from → to`, i.e. the
    /// snapshots the player must download (Table III's "# of Leaf CDs"
    /// column).
    #[must_use]
    pub fn snapshot_cds_for_move(&self, from: AreaId, to: AreaId) -> Vec<Name> {
        let old: Vec<Name> = self.visible_leaf_cds(from);
        self.visible_leaf_cds(to)
            .into_iter()
            .filter(|cd| !old.contains(cd))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    #[test]
    fn paper_map_has_31_leaf_cds() {
        let m = GameMap::paper_map();
        assert_eq!(m.area_count(), 1 + 5 + 25);
        let leaves = m.leaf_cds();
        assert_eq!(leaves.len(), 31);
        assert!(leaves.contains(&n("/0")));
        assert!(leaves.contains(&n("/3/0")));
        assert!(leaves.contains(&n("/5/5")));
        assert!(!leaves.contains(&n("/1")));
    }

    #[test]
    fn publication_cds() {
        let m = GameMap::paper_map();
        let world = m.world();
        let region1 = m.area_by_name(&n("/1")).unwrap();
        let zone12 = m.area_by_name(&n("/1/2")).unwrap();
        assert_eq!(m.publication_cd(world).name(), &n("/0"));
        assert_eq!(m.publication_cd(region1).name(), &n("/1/0"));
        assert_eq!(m.publication_cd(zone12).name(), &n("/1/2"));
    }

    #[test]
    fn subscription_cds_follow_section_3b() {
        let m = GameMap::paper_map();
        let zone12 = m.area_by_name(&n("/1/2")).unwrap();
        assert_eq!(
            m.subscription_cds(zone12),
            vec![n("/0"), n("/1/0"), n("/1/2")]
        );
        let region1 = m.area_by_name(&n("/1")).unwrap();
        assert_eq!(m.subscription_cds(region1), vec![n("/0"), n("/1")]);
        assert_eq!(m.subscription_cds(m.world()), vec![Name::root()]);
    }

    #[test]
    fn visibility_matches_paper_semantics() {
        let m = GameMap::paper_map();
        let world = m.world();
        let r1 = m.area_by_name(&n("/1")).unwrap();
        let r2 = m.area_by_name(&n("/2")).unwrap();
        let z12 = m.area_by_name(&n("/1/2")).unwrap();
        let z13 = m.area_by_name(&n("/1/3")).unwrap();

        // Satellite sees everything.
        for a in m.areas() {
            assert!(m.can_see(world, a));
        }
        // Soldier sees: satellite, planes over region 1, own zone.
        assert!(m.can_see(z12, world));
        assert!(m.can_see(z12, r1));
        assert!(m.can_see(z12, z12));
        assert!(!m.can_see(z12, z13));
        assert!(!m.can_see(z12, r2));
        // Plane over region 1 sees all of region 1 and the satellite.
        assert!(m.can_see(r1, z12));
        assert!(m.can_see(r1, z13));
        assert!(m.can_see(r1, world));
        assert!(!m.can_see(r1, r2));
        // Soldier does NOT see other soldiers' zones; plane does.
        assert_eq!(m.visible_leaf_cds(z12).len(), 3);
        assert_eq!(m.visible_leaf_cds(r1).len(), 7); // /0, /1/0, /1/1../1/5
        assert_eq!(m.visible_leaf_cds(world).len(), 31);
    }

    #[test]
    fn area_of_leaf_cd_round_trips() {
        let m = GameMap::paper_map();
        for a in m.areas() {
            let cd = m.publication_cd(a);
            assert_eq!(m.area_of_leaf_cd(cd.name()), Some(a));
        }
        assert_eq!(m.area_of_leaf_cd(&n("/1")), None, "/1 is not a leaf CD");
        assert_eq!(m.area_of_leaf_cd(&n("/9/9")), None);
    }

    #[test]
    fn move_classification_matches_table3() {
        let m = GameMap::paper_map();
        let a = |s: &str| m.area_by_name(&n(s)).unwrap();
        assert_eq!(
            m.classify_move(a("/1"), a("/1/1")),
            Some(MoveType::ToLowerLayer)
        );
        assert_eq!(
            m.classify_move(a("/1/1"), a("/1")),
            Some(MoveType::ZoneToRegion)
        );
        assert_eq!(
            m.classify_move(a("/1"), m.world()),
            Some(MoveType::RegionToWorld)
        );
        assert_eq!(
            m.classify_move(a("/1/1"), a("/1/2")),
            Some(MoveType::ZoneSameRegion)
        );
        assert_eq!(
            m.classify_move(a("/2/3"), a("/3/2")),
            Some(MoveType::ZoneDifferentRegion)
        );
        assert_eq!(
            m.classify_move(a("/1"), a("/2")),
            Some(MoveType::RegionToRegion)
        );
        assert_eq!(m.classify_move(a("/1"), a("/1")), None);
    }

    #[test]
    fn snapshot_counts_match_table3() {
        let m = GameMap::paper_map();
        let a = |s: &str| m.area_by_name(&n(s)).unwrap();
        // Row 1: to lower layer -> 0 CDs.
        assert_eq!(m.snapshot_cds_for_move(a("/1"), a("/1/1")).len(), 0);
        // Row 2: zone -> region -> 4 CDs (/1/2../1/5).
        assert_eq!(m.snapshot_cds_for_move(a("/1/1"), a("/1")).len(), 4);
        // Row 3: region -> world -> 24 CDs.
        assert_eq!(m.snapshot_cds_for_move(a("/1"), m.world()).len(), 24);
        // Row 4: different zone, same region -> 1 CD.
        assert_eq!(m.snapshot_cds_for_move(a("/1/1"), a("/1/2")).len(), 1);
        // Row 5: different zone, different region -> 2 CDs.
        assert_eq!(m.snapshot_cds_for_move(a("/2/3"), a("/3/2")).len(), 2);
        // Row 6: region -> region -> 6 CDs.
        assert_eq!(m.snapshot_cds_for_move(a("/1"), a("/2")).len(), 6);
    }

    #[test]
    fn deeper_hierarchies_work() {
        let m = GameMap::uniform(&[2, 2, 2]);
        assert_eq!(m.area_count(), 1 + 2 + 4 + 8);
        // Leaf CDs: 8 zones + 4 + 2 + 1 own-areas.
        assert_eq!(m.leaf_cds().len(), 15);
        let deep = m.area_by_name(&n("/1/2/1")).unwrap();
        assert_eq!(
            m.subscription_cds(deep),
            vec![n("/0"), n("/1/0"), n("/1/2/0"), n("/1/2/1")]
        );
        assert_eq!(m.depth(deep), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fanout_rejected() {
        let _ = GameMap::uniform(&[3, 0]);
    }
}
