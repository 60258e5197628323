//! A stride-based tree-bitmap prefix map keyed by per-level name hashes.
//!
//! [`NameTreeBitmap`] is the trie under every name-keyed table (Subscription
//! Table, FIB, Content Store, RP table). The layout is the one BGP-scale
//! engines use for prefix tables, adapted to hierarchical names:
//!
//! * One *name node* per stored name prefix, arranged in the name hierarchy
//!   (a node's children are its one-component extensions).
//! * Each node dispatches to its children through a **stride-6 tree-bitmap**:
//!   a 64-bit occupancy bitmap per internal node plus a popcount-indexed,
//!   densely packed slot array. The dispatch key is the child's *cumulative
//!   prefix hash* — exactly the per-level hash chain that [`Cd`](crate::Cd)
//!   packets carry precomputed (§III-C of the paper), so a router matches a
//!   publication with shifts, masks and popcounts only.
//! * Hash collisions cannot corrupt matching: a leaf stores the actual
//!   [`Component`] next to each child and compares it on the way down, so two
//!   names that collide in all 64 hash bits still resolve exactly (they share
//!   a leaf bucket).
//! * Every name node maintains the number of values stored in its subtree, so
//!   "any subscriber under this prefix?" is answered on the lookup path
//!   without walking descendants.
//!
//! A lookup for a name of `d` components costs `O(d)` bitmap descents, each
//! bounded by `⌈64/6⌉` nodes *independent of the number of entries* — the
//! flat per-lookup cost the `exp_scale` sweep measures at 1M–10M entries.

use crate::{fnv1a, fnv1a_extend, Component, Name};

/// Number of hash bits consumed per tree-bitmap level.
const STRIDE: u32 = 6;
/// Maximum tree-bitmap depth: two distinct 64-bit hashes differ in some
/// 6-bit chunk at depth ≤ 10 (`10 * 6 = 60 < 64 ≤ 66`).
const MAX_DEPTH: u32 = 10;

/// Selects the stride chunk of `hash` consumed at tree-bitmap `depth`.
#[inline]
fn chunk(hash: u64, depth: u32) -> u64 {
    debug_assert!(depth <= MAX_DEPTH, "tree-bitmap descent too deep");
    (hash >> (STRIDE * depth)) & 0x3f
}

/// One internal tree-bitmap node: a 64-bit occupancy bitmap and the packed
/// array of occupied slots, indexed by popcount of the lower bits.
#[derive(Debug, Clone)]
struct AmtNode<T> {
    bitmap: u64,
    slots: Vec<AmtSlot<T>>,
}

#[derive(Debug, Clone)]
enum AmtSlot<T> {
    /// Further stride levels (two children shared this chunk).
    Branch(Box<AmtNode<T>>),
    /// All children whose cumulative prefix hash is exactly `hash`.
    Leaf(Leaf<T>),
}

/// The children sharing one full 64-bit prefix hash. `entries` has one
/// element unless two sibling components collide in all 64 bits.
#[derive(Debug, Clone)]
struct Leaf<T> {
    hash: u64,
    entries: Vec<(Component, Node<T>)>,
}

impl<T> Default for AmtNode<T> {
    fn default() -> Self {
        Self {
            bitmap: 0,
            slots: Vec::new(),
        }
    }
}

impl<T> AmtNode<T> {
    #[inline]
    fn slot_index(&self, bit: u64) -> usize {
        (self.bitmap & (bit - 1)).count_ones() as usize
    }

    /// The child node for `(hash, comp)`, if present.
    fn child(&self, hash: u64, depth: u32, comp: &Component) -> Option<&Node<T>> {
        let bit = 1u64 << chunk(hash, depth);
        if self.bitmap & bit == 0 {
            return None;
        }
        match &self.slots[self.slot_index(bit)] {
            AmtSlot::Branch(b) => b.child(hash, depth + 1, comp),
            AmtSlot::Leaf(l) => {
                if l.hash != hash {
                    return None;
                }
                l.entries.iter().find(|(c, _)| c == comp).map(|(_, n)| n)
            }
        }
    }

    fn child_mut(&mut self, hash: u64, depth: u32, comp: &Component) -> Option<&mut Node<T>> {
        let bit = 1u64 << chunk(hash, depth);
        if self.bitmap & bit == 0 {
            return None;
        }
        let idx = self.slot_index(bit);
        match &mut self.slots[idx] {
            AmtSlot::Branch(b) => b.child_mut(hash, depth + 1, comp),
            AmtSlot::Leaf(l) => {
                if l.hash != hash {
                    return None;
                }
                l.entries
                    .iter_mut()
                    .find(|(c, _)| c == comp)
                    .map(|(_, n)| n)
            }
        }
    }

    /// The child node for `(hash, comp)`, created empty if absent.
    fn child_or_insert(&mut self, hash: u64, depth: u32, comp: &Component) -> &mut Node<T> {
        let bit = 1u64 << chunk(hash, depth);
        if self.bitmap & bit == 0 {
            let idx = self.slot_index(bit);
            self.bitmap |= bit;
            self.slots.insert(
                idx,
                AmtSlot::Leaf(Leaf {
                    hash,
                    entries: vec![(comp.clone(), Node::default())],
                }),
            );
            let AmtSlot::Leaf(l) = &mut self.slots[idx] else {
                unreachable!("slot just inserted as leaf")
            };
            return &mut l.entries[0].1;
        }
        let idx = self.slot_index(bit);
        // A leaf with a *different* hash must be pushed one stride deeper
        // before the new child can be placed.
        if matches!(&self.slots[idx], AmtSlot::Leaf(l) if l.hash != hash) {
            let old = std::mem::replace(
                &mut self.slots[idx],
                AmtSlot::Branch(Box::<AmtNode<T>>::default()),
            );
            let AmtSlot::Leaf(old_leaf) = old else {
                unreachable!("checked to be a leaf above")
            };
            let AmtSlot::Branch(b) = &mut self.slots[idx] else {
                unreachable!("slot just replaced with branch")
            };
            let old_bit = 1u64 << chunk(old_leaf.hash, depth + 1);
            b.bitmap = old_bit;
            b.slots.push(AmtSlot::Leaf(old_leaf));
        }
        match &mut self.slots[idx] {
            AmtSlot::Branch(b) => b.child_or_insert(hash, depth + 1, comp),
            AmtSlot::Leaf(l) => {
                debug_assert_eq!(l.hash, hash);
                if let Some(pos) = l.entries.iter().position(|(c, _)| c == comp) {
                    &mut l.entries[pos].1
                } else {
                    l.entries.push((comp.clone(), Node::default()));
                    let last = l.entries.len() - 1;
                    &mut l.entries[last].1
                }
            }
        }
    }

    /// Removes the child for `(hash, comp)`, pruning emptied leaves and
    /// branches. Returns the removed node.
    fn remove_child(&mut self, hash: u64, depth: u32, comp: &Component) -> Option<Node<T>> {
        let bit = 1u64 << chunk(hash, depth);
        if self.bitmap & bit == 0 {
            return None;
        }
        let idx = self.slot_index(bit);
        let (removed, slot_empty) = match &mut self.slots[idx] {
            AmtSlot::Branch(b) => {
                let removed = b.remove_child(hash, depth + 1, comp);
                (removed, b.bitmap == 0)
            }
            AmtSlot::Leaf(l) => {
                if l.hash != hash {
                    return None;
                }
                let pos = l.entries.iter().position(|(c, _)| c == comp)?;
                let (_, node) = l.entries.remove(pos);
                (Some(node), l.entries.is_empty())
            }
        };
        if removed.is_some() && slot_empty {
            self.slots.remove(idx);
            self.bitmap &= !bit;
        }
        removed
    }

    /// Visits every child `(component, node)` pair. Order follows hash
    /// chunks — deterministic for a given set of names, but not name order.
    fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Component, &'a Node<T>)) {
        for slot in &self.slots {
            match slot {
                AmtSlot::Branch(b) => b.for_each(f),
                AmtSlot::Leaf(l) => {
                    for (c, n) in &l.entries {
                        f(c, n);
                    }
                }
            }
        }
    }
}

/// One name node: the value stored at this exact prefix, the number of
/// values in this subtree, and the stride-bitmap dispatch to children.
#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    subtree: usize,
    children: AmtNode<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Self {
            value: None,
            subtree: 0,
            children: AmtNode::default(),
        }
    }
}

/// A prefix map over [`Name`]s on a stride-based tree-bitmap, keyed by the
/// per-level FNV-1a hash chain (see the module docs for the layout).
///
/// The `_hashed` lookup variants accept a precomputed hash chain (as carried
/// by [`Cd`](crate::Cd) packets) so the hot forwarding path never re-hashes.
///
/// # Example
///
/// ```
/// # use gcopss_names::{Name, NameTreeBitmap};
/// let mut fib: NameTreeBitmap<u32> = NameTreeBitmap::new();
/// fib.insert(Name::parse_lit("/1"), 10);
/// fib.insert(Name::parse_lit("/1/2"), 12);
/// let (prefix, face) = fib.longest_prefix(&Name::parse_lit("/1/2/9")).unwrap();
/// assert_eq!(prefix.to_string(), "/1/2");
/// assert_eq!(*face, 12);
/// ```
#[derive(Debug, Clone)]
pub struct NameTreeBitmap<T> {
    root: Node<T>,
}

impl<T> Default for NameTreeBitmap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> NameTreeBitmap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            root: Node::default(),
        }
    }

    /// Number of names with values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.root.subtree
    }

    /// Returns `true` if no name has a value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.subtree == 0
    }

    /// Walks to the node storing `name`, if it exists.
    fn node(&self, name: &Name) -> Option<&Node<T>> {
        let mut node = &self.root;
        let mut hash = fnv1a(b"");
        for c in name.components() {
            hash = fnv1a_extend(hash, c.as_bytes());
            node = node.children.child(hash, 0, c)?;
        }
        Some(node)
    }

    /// Inserts a value at `name`, returning the previous value if any.
    pub fn insert(&mut self, name: Name, value: T) -> Option<T> {
        fn rec<T>(node: &mut Node<T>, name: &Name, depth: usize, hash: u64, value: T) -> Option<T> {
            if depth == name.len() {
                let old = node.value.replace(value);
                if old.is_none() {
                    node.subtree += 1;
                }
                return old;
            }
            let comp = &name.components()[depth];
            let child_hash = fnv1a_extend(hash, comp.as_bytes());
            let child = node.children.child_or_insert(child_hash, 0, comp);
            let old = rec(child, name, depth + 1, child_hash, value);
            if old.is_none() {
                node.subtree += 1;
            }
            old
        }
        rec(&mut self.root, &name, 0, fnv1a(b""), value)
    }

    /// Returns the value stored exactly at `name`.
    #[must_use]
    pub fn get(&self, name: &Name) -> Option<&T> {
        self.node(name).and_then(|n| n.value.as_ref())
    }

    /// Returns the value stored exactly at `name`, mutably.
    pub fn get_mut(&mut self, name: &Name) -> Option<&mut T> {
        let mut node = &mut self.root;
        let mut hash = fnv1a(b"");
        for c in name.components() {
            hash = fnv1a_extend(hash, c.as_bytes());
            node = node.children.child_mut(hash, 0, c)?;
        }
        node.value.as_mut()
    }

    /// Returns the value at `name`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, name: &Name, default: impl FnOnce() -> T) -> &mut T {
        fn rec<'a, T>(
            node: &'a mut Node<T>,
            name: &Name,
            depth: usize,
            hash: u64,
            default: impl FnOnce() -> T,
        ) -> (&'a mut T, bool) {
            if depth == name.len() {
                let mut inserted = false;
                if node.value.is_none() {
                    node.value = Some(default());
                    node.subtree += 1;
                    inserted = true;
                }
                return (node.value.as_mut().expect("value just ensured"), inserted);
            }
            let comp = &name.components()[depth];
            let child_hash = fnv1a_extend(hash, comp.as_bytes());
            let child = node.children.child_or_insert(child_hash, 0, comp);
            let (value, inserted) = rec(child, name, depth + 1, child_hash, default);
            if inserted {
                node.subtree += 1;
            }
            (value, inserted)
        }
        rec(&mut self.root, name, 0, fnv1a(b""), default).0
    }

    /// Removes and returns the value at `name`, pruning branches that no
    /// longer hold any value.
    pub fn remove(&mut self, name: &Name) -> Option<T> {
        fn rec<T>(node: &mut Node<T>, name: &Name, depth: usize, hash: u64) -> Option<T> {
            if depth == name.len() {
                let old = node.value.take();
                if old.is_some() {
                    node.subtree -= 1;
                }
                return old;
            }
            let comp = &name.components()[depth];
            let child_hash = fnv1a_extend(hash, comp.as_bytes());
            let child = node.children.child_mut(child_hash, 0, comp)?;
            let old = rec(child, name, depth + 1, child_hash);
            if old.is_some() {
                let prune = child.subtree == 0;
                node.subtree -= 1;
                if prune {
                    node.children.remove_child(child_hash, 0, comp);
                }
            }
            old
        }
        rec(&mut self.root, name, 0, fnv1a(b""))
    }

    /// Longest-prefix match: the deepest `(prefix, value)` such that
    /// `prefix.is_prefix_of(name)` and a value is stored at `prefix`.
    ///
    /// Materializes the matched prefix; a caller that only wants the value
    /// takes `prefix_values(name).last()` and allocates nothing.
    #[must_use]
    pub fn longest_prefix(&self, name: &Name) -> Option<(Name, &T)> {
        self.prefix_values(name)
            .last()
            .map(|(level, v)| (name.prefix(level), v))
    }

    /// [`NameTreeBitmap::longest_prefix`] with the hash chain precomputed by
    /// the first-hop router (`chain[i]` is the hash of the prefix with `i`
    /// components — [`Name::hash_chain`], [`Cd::hashes`](crate::Cd::hashes)).
    ///
    /// # Panics
    ///
    /// Panics if `chain` is shorter than `name.len() + 1`.
    #[must_use]
    pub fn longest_prefix_hashed(&self, name: &Name, chain: &[u64]) -> Option<(Name, &T)> {
        self.prefix_values_hashed(name, chain)
            .last()
            .map(|(level, v)| (name.prefix(level), v))
    }

    /// Every stored `(level, value)` along the path from the root to `name`,
    /// shallowest first, walked lazily: nothing is collected, and the walk
    /// stops descending as soon as the iterator is dropped. `level` is the
    /// number of components of the stored prefix; materialize it with
    /// `name.prefix(level)` when needed.
    #[must_use]
    pub fn prefix_values<'t, 'n>(&'t self, name: &'n Name) -> PrefixValues<'t, 'n, T> {
        self.walk(name, LevelHash::Running(fnv1a(b"")))
    }

    /// [`NameTreeBitmap::prefix_values`] with a precomputed hash chain — the
    /// Subscription Table match path for [`Cd`](crate::Cd) packets.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is shorter than `name.len() + 1`.
    #[must_use]
    pub fn prefix_values_hashed<'t, 'n>(
        &'t self,
        name: &'n Name,
        chain: &'n [u64],
    ) -> PrefixValues<'t, 'n, T> {
        assert!(chain.len() > name.len(), "hash chain shorter than name");
        self.walk(name, LevelHash::Chain(chain))
    }

    fn walk<'t, 'n>(&'t self, name: &'n Name, hash: LevelHash<'n>) -> PrefixValues<'t, 'n, T> {
        PrefixValues {
            node: Some(&self.root),
            level: 0,
            components: name.components(),
            hash,
        }
    }

    /// Every stored `(prefix, value)` along the path from the root to
    /// `name`, shallowest first (allocating variant of
    /// [`NameTreeBitmap::prefix_values`]).
    #[must_use]
    pub fn all_prefixes(&self, name: &Name) -> Vec<(Name, &T)> {
        self.prefix_values(name)
            .map(|(level, v)| (name.prefix(level), v))
            .collect()
    }

    /// Collects every `(name, value)` stored at `prefix` or below it, in
    /// deterministic lexicographic order.
    #[must_use]
    pub fn descendants(&self, prefix: &Name) -> Vec<(Name, &T)> {
        fn collect<'a, T>(node: &'a Node<T>, name: &Name, out: &mut Vec<(Name, &'a T)>) {
            if let Some(v) = &node.value {
                out.push((name.clone(), v));
            }
            node.children.for_each(&mut |c, child| {
                collect(child, &name.child(c.clone()), out);
            });
        }
        let mut out = Vec::new();
        if let Some(node) = self.node(prefix) {
            collect(node, prefix, &mut out);
        }
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Iterates over all `(name, value)` pairs in deterministic
    /// lexicographic order.
    #[must_use]
    pub fn iter(&self) -> Vec<(Name, &T)> {
        self.descendants(&Name::root())
    }

}

/// Where a [`PrefixValues`] walk takes each level's cumulative prefix hash
/// from.
#[derive(Debug, Clone)]
enum LevelHash<'n> {
    /// Extended component by component as the walk descends; holds the
    /// hash of the prefix reached so far.
    Running(u64),
    /// Precomputed by the first-hop router: `chain[i]` is the hash of the
    /// prefix with `i` components.
    Chain(&'n [u64]),
}

/// The lazy walk over every stored prefix of a name, shallowest first.
///
/// Produced by [`NameTreeBitmap::prefix_values`] and
/// [`NameTreeBitmap::prefix_values_hashed`]; yields `(level, value)`.
#[derive(Debug, Clone)]
pub struct PrefixValues<'t, 'n, T> {
    /// The node at `level`, not yet inspected; `None` once the name ran out
    /// or left the tree.
    node: Option<&'t Node<T>>,
    level: usize,
    components: &'n [Component],
    hash: LevelHash<'n>,
}

impl<'t, T> Iterator for PrefixValues<'t, '_, T> {
    type Item = (usize, &'t T);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let node = self.node?;
            let level = self.level;
            self.node = self.components.get(level).and_then(|c| {
                let hash = match &mut self.hash {
                    LevelHash::Running(h) => {
                        *h = fnv1a_extend(*h, c.as_bytes());
                        *h
                    }
                    LevelHash::Chain(chain) => chain[level + 1],
                };
                node.children.child(hash, 0, c)
            });
            self.level += 1;
            if let Some(v) = &node.value {
                return Some((level, v));
            }
        }
    }
}

impl<T> FromIterator<(Name, T)> for NameTreeBitmap<T> {
    fn from_iter<I: IntoIterator<Item = (Name, T)>>(iter: I) -> Self {
        let mut t = Self::new();
        for (n, v) in iter {
            t.insert(n, v);
        }
        t
    }
}

impl<T> Extend<(Name, T)> for NameTreeBitmap<T> {
    fn extend<I: IntoIterator<Item = (Name, T)>>(&mut self, iter: I) {
        for (n, v) in iter {
            self.insert(n, v);
        }
    }
}

impl<T: PartialEq> PartialEq for NameTreeBitmap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .into_iter()
                .zip(other.iter())
                .all(|((an, av), (bn, bv))| an == bn && av == bv)
    }
}

impl<T: Eq> Eq for NameTreeBitmap<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    #[test]
    fn insert_get_remove() {
        let mut t = NameTreeBitmap::new();
        assert_eq!(t.insert(n("/1/2"), "a"), None);
        assert_eq!(t.insert(n("/1/2"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&n("/1/2")), Some(&"b"));
        assert_eq!(t.get(&n("/1")), None);
        assert_eq!(t.remove(&n("/1/2")), Some("b"));
        assert!(t.is_empty());
        assert_eq!(t.remove(&n("/1/2")), None);
    }

    #[test]
    fn value_at_root() {
        let mut t = NameTreeBitmap::new();
        t.insert(Name::root(), 0);
        assert_eq!(t.get(&Name::root()), Some(&0));
        assert_eq!(t.longest_prefix(&n("/x/y")).unwrap().0, Name::root());
    }

    #[test]
    fn longest_prefix_match() {
        let mut t = NameTreeBitmap::new();
        t.insert(n("/1"), 1);
        t.insert(n("/1/2/3"), 123);
        let (p, v) = t.longest_prefix(&n("/1/2/3/4")).unwrap();
        assert_eq!((p, *v), (n("/1/2/3"), 123));
        let (p, v) = t.longest_prefix(&n("/1/2")).unwrap();
        assert_eq!((p, *v), (n("/1"), 1));
        assert!(t.longest_prefix(&n("/2")).is_none());
    }

    #[test]
    fn hashed_lookups_agree_with_plain() {
        let mut t = NameTreeBitmap::new();
        t.insert(Name::root(), 0);
        t.insert(n("/1"), 1);
        t.insert(n("/1/2"), 12);
        for probe in ["/", "/1", "/1/2", "/1/2/3", "/2", "/1/9/9"] {
            let probe = n(probe);
            let chain = probe.hash_chain();
            assert_eq!(
                t.longest_prefix(&probe),
                t.longest_prefix_hashed(&probe, &chain)
            );
            assert!(t
                .prefix_values(&probe)
                .eq(t.prefix_values_hashed(&probe, &chain)));
        }
    }

    #[test]
    fn all_prefixes_returns_every_stored_ancestor() {
        let mut t = NameTreeBitmap::new();
        t.insert(Name::root(), 0);
        t.insert(n("/1"), 1);
        t.insert(n("/1/2"), 12);
        t.insert(n("/1/9"), 19);
        let got: Vec<i32> = t
            .all_prefixes(&n("/1/2/3"))
            .iter()
            .map(|(_, v)| **v)
            .collect();
        assert_eq!(got, [0, 1, 12]);
    }

    #[test]
    fn descendants_are_sorted_and_scoped() {
        let mut t = NameTreeBitmap::new();
        t.insert(n("/1/2"), 'a');
        t.insert(n("/1"), 'b');
        t.insert(n("/2"), 'c');
        let d: Vec<String> = t
            .descendants(&n("/1"))
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        assert_eq!(d, ["/1", "/1/2"]);
        assert_eq!(t.iter().len(), 3);
    }

    #[test]
    fn subtree_counts_track_churn() {
        let mut t = NameTreeBitmap::new();
        t.insert(n("/1/2/3"), ());
        t.insert(n("/1/2"), ());
        t.insert(n("/2"), ());
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(&n("/1")).map(|node| node.subtree), Some(2));
        assert!(t.node(&n("/1/2/3/4")).is_none());
        t.remove(&n("/1/2/3"));
        assert_eq!(t.node(&n("/1")).map(|node| node.subtree), Some(1));
        t.remove(&n("/1/2"));
        assert!(t.node(&n("/1")).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn any_under_checks_subtree() {
        let mut t = NameTreeBitmap::new();
        t.insert(n("/1/2/3"), ());
        assert_eq!(t.descendants(&n("/1")).len(), 1);
        assert_eq!(t.descendants(&n("/1/2/3")).len(), 1);
        assert!(t.descendants(&n("/2")).is_empty());
        assert!(t.descendants(&n("/1/2/3/4")).is_empty());
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = NameTreeBitmap::new();
        t.insert(n("/1/2/3"), ());
        t.remove(&n("/1/2/3"));
        assert!(t.node(&n("/1")).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn remove_keeps_shared_branches() {
        let mut t = NameTreeBitmap::new();
        t.insert(n("/1/2"), 'a');
        t.insert(n("/1/3"), 'b');
        t.remove(&n("/1/2"));
        assert_eq!(t.get(&n("/1/3")), Some(&'b'));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_or_insert_with() {
        let mut t: NameTreeBitmap<Vec<u32>> = NameTreeBitmap::new();
        t.get_or_insert_with(&n("/1"), Vec::new).push(7);
        t.get_or_insert_with(&n("/1"), Vec::new).push(8);
        assert_eq!(t.get(&n("/1")), Some(&vec![7, 8]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wide_fanout_forces_amt_branching() {
        // 4096 siblings under one node guarantees stride-chunk collisions,
        // exercising the leaf→branch split and popcount packing.
        let mut t = NameTreeBitmap::new();
        for i in 0..4096u32 {
            t.insert(Name::root().child_index(i), i);
        }
        assert_eq!(t.len(), 4096);
        for i in 0..4096u32 {
            let probe = Name::root().child_index(i).child_index(9);
            let (p, v) = t.longest_prefix(&probe).unwrap();
            assert_eq!((p, *v), (Name::root().child_index(i), i));
        }
        for i in (0..4096u32).step_by(2) {
            assert_eq!(t.remove(&Name::root().child_index(i)), Some(i));
        }
        assert_eq!(t.len(), 2048);
        for i in 0..4096u32 {
            let want = (i % 2 == 1).then_some(i);
            assert_eq!(t.get(&Name::root().child_index(i)).copied(), want);
        }
    }

    #[test]
    fn from_iterator() {
        let t: NameTreeBitmap<u32> = [(n("/1"), 1), (n("/2"), 2)].into_iter().collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: NameTreeBitmap<u32> = [(n("/1"), 1), (n("/2"), 2)].into_iter().collect();
        let b: NameTreeBitmap<u32> = [(n("/2"), 2), (n("/1"), 1)].into_iter().collect();
        assert_eq!(a, b);
    }
}
