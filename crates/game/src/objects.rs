//! Game objects and the snapshot size model.

use std::fmt;

use gcopss_names::Name;
use gcopss_compat::StdRng;
use gcopss_compat::{Rng, SeedableRng};

use crate::GameMap;

/// Identifier of a game object.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Index into dense per-object arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// The evolving state of one object under the paper's size model (§V-B):
///
/// `size(obj_vn) = Σ_{i=1..n} αⁿ⁻ⁱ · size(upd_i)`
///
/// i.e. each update contributes its size, discounted geometrically by age —
/// equivalently `size_n = α·size_{n-1} + size(upd_n)`. Version 0 (the
/// pristine object shipped with the map) has size 0 for snapshot purposes:
/// the broker "does not send anything if the object has not changed".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectState {
    /// Number of updates applied.
    pub version: u64,
    /// Current snapshot size in (fractional) bytes.
    pub size: f64,
}

impl ObjectState {
    /// A pristine, never-updated object.
    #[must_use]
    pub fn pristine() -> Self {
        Self {
            version: 0,
            size: 0.0,
        }
    }

    /// Applies one update of `update_size` bytes with decay factor `alpha`.
    pub fn apply_update(&mut self, alpha: f64, update_size: u32) {
        self.size = self.size * alpha + f64::from(update_size);
        self.version += 1;
    }

    /// Snapshot bytes the broker must ship for this object (0 when
    /// pristine).
    #[must_use]
    pub fn snapshot_bytes(&self) -> u32 {
        self.size.round() as u32
    }
}

impl Default for ObjectState {
    fn default() -> Self {
        Self::pristine()
    }
}

/// Geometric decay of update contributions to the snapshot size. The paper
/// sets α = 0.95; with its update sizes (50–350 B) and counts the reported
/// final sizes (579–1,740 B) correspond to objects re-created periodically,
/// which we reproduce by resetting long-lived objects is unnecessary — the
/// steady state `mean_update/(1-α)` is simply capped by
/// [`ObjectModelParams::max_size`].
const ALPHA: f64 = 0.95;

/// Parameters of the object distribution.
#[derive(Debug, Clone)]
pub struct ObjectModelParams {
    /// Objects per leaf area, drawn uniformly from this inclusive range
    /// (the paper's Fig. 3d shows 80–120 per area; the trace totals 3,197
    /// objects over 31 areas).
    pub objects_per_area: (u32, u32),
    /// Cap on the snapshot size of a single object (bytes). The paper
    /// reports final object sizes of 579–1,740 bytes; the cap keeps
    /// heavily-updated objects in that regime.
    pub max_size: u32,
}

impl Default for ObjectModelParams {
    fn default() -> Self {
        Self {
            objects_per_area: (80, 120),
            max_size: 1_740,
        }
    }
}

/// The set of game objects: their placement over leaf areas and their
/// evolving snapshot sizes.
///
/// # Example
///
/// ```
/// # use gcopss_game::{GameMap, ObjectModel, ObjectModelParams};
/// let map = GameMap::paper_map();
/// let model = ObjectModel::generate(7, &map, &ObjectModelParams::default());
/// assert!(model.object_count() >= 31 * 80);
/// ```
#[derive(Debug, Clone)]
pub struct ObjectModel {
    params: ObjectModelParams,
    /// Per leaf-CD (indexed as in `GameMap::leaf_cds` order): object ids.
    per_area: Vec<Vec<ObjectId>>,
    /// Leaf CD of each object.
    area_of: Vec<usize>,
    /// Evolving state of each object.
    states: Vec<ObjectState>,
    /// Leaf CDs, mirroring the map.
    leaf_cds: Vec<Name>,
}

impl ObjectModel {
    /// Distributes objects over the leaf areas of `map`, deterministically
    /// for a given `seed`.
    #[must_use]
    pub fn generate(seed: u64, map: &GameMap, params: &ObjectModelParams) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let leaf_cds: Vec<Name> = map.leaf_cds().to_vec();
        let mut per_area = Vec::with_capacity(leaf_cds.len());
        let mut area_of = Vec::new();
        for (ai, _) in leaf_cds.iter().enumerate() {
            let (lo, hi) = params.objects_per_area;
            let count = rng.gen_range(lo..=hi);
            let mut ids = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let id = ObjectId(area_of.len() as u32);
                area_of.push(ai);
                ids.push(id);
            }
            per_area.push(ids);
        }
        let states = vec![ObjectState::pristine(); area_of.len()];
        Self {
            params: params.clone(),
            per_area,
            area_of,
            states,
            leaf_cds,
        }
    }

    /// Total number of objects.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.area_of.len()
    }

    /// The leaf CD containing an object.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is unknown.
    #[must_use]
    pub fn leaf_cd_of(&self, obj: ObjectId) -> &Name {
        &self.leaf_cds[self.area_of[obj.index()]]
    }

    /// The objects located in the given leaf CD, if it exists.
    #[must_use]
    pub fn objects_in(&self, leaf_cd: &Name) -> &[ObjectId] {
        self.leaf_cds
            .iter()
            .position(|c| c == leaf_cd)
            .map_or(&[], |i| &self.per_area[i])
    }

    /// Number of objects per leaf CD, in `leaf_cds` order (Fig. 3d).
    #[must_use]
    pub fn objects_per_area(&self) -> Vec<(Name, usize)> {
        self.leaf_cds
            .iter()
            .cloned()
            .zip(self.per_area.iter().map(Vec::len))
            .collect()
    }

    /// Applies an update of `size` bytes to `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is unknown.
    pub fn apply_update(&mut self, obj: ObjectId, size: u32) {
        let s = &mut self.states[obj.index()];
        s.apply_update(ALPHA, size);
        if s.size > f64::from(self.params.max_size) {
            s.size = f64::from(self.params.max_size);
        }
    }

    /// Current state of an object.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is unknown.
    #[must_use]
    pub fn state(&self, obj: ObjectId) -> ObjectState {
        self.states[obj.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_recurrence_matches_closed_form() {
        assert_eq!(ALPHA, 0.95, "the paper's α");
        let alpha = ALPHA;
        let updates = [100u32, 200, 300, 150];
        let mut s = ObjectState::pristine();
        for &u in &updates {
            s.apply_update(alpha, u);
        }
        let n = updates.len();
        let closed: f64 = updates
            .iter()
            .enumerate()
            .map(|(i, &u)| alpha.powi((n - 1 - i) as i32) * f64::from(u))
            .sum();
        assert!((s.size - closed).abs() < 1e-9);
        assert_eq!(s.version, 4);
    }

    #[test]
    fn pristine_objects_cost_nothing() {
        let s = ObjectState::pristine();
        assert_eq!(s.snapshot_bytes(), 0);
        assert_eq!(s.version, 0);
    }

    #[test]
    fn generation_is_deterministic_and_in_range() {
        let map = GameMap::paper_map();
        let p = ObjectModelParams::default();
        let a = ObjectModel::generate(5, &map, &p);
        let b = ObjectModel::generate(5, &map, &p);
        assert_eq!(a.object_count(), b.object_count());
        for (_, count) in a.objects_per_area() {
            assert!((80..=120).contains(&count));
        }
        // Total in the ballpark of the paper's 3,197.
        assert!((31 * 80..=31 * 120).contains(&a.object_count()));
    }

    #[test]
    fn updates_accumulate_and_cap() {
        let map = GameMap::paper_map();
        let mut m = ObjectModel::generate(
            1,
            &map,
            &ObjectModelParams {
                max_size: 1000,
                ..Default::default()
            },
        );
        let cd = map.leaf_cds()[0].clone();
        let obj = m.objects_in(&cd)[0];
        for _ in 0..200 {
            m.apply_update(obj, 300);
        }
        let s = m.state(obj);
        assert_eq!(s.snapshot_bytes(), 1000, "capped");
        assert_eq!(s.version, 200);
    }

    #[test]
    fn objects_map_back_to_their_area() {
        let map = GameMap::paper_map();
        let m = ObjectModel::generate(2, &map, &ObjectModelParams::default());
        for ai in 0..map.leaf_cds().len() {
            let cd = &map.leaf_cds()[ai];
            for &o in m.objects_in(cd) {
                assert_eq!(m.leaf_cd_of(o), cd);
            }
        }
        assert!(m.objects_in(&Name::parse_lit("/9/9")).is_empty());
    }
}
