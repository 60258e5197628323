//! A prefix trie keyed by [`Name`]s.

use std::collections::BTreeMap;

use crate::{Component, Name};

/// A prefix trie mapping [`Name`]s to values of type `T`.
///
/// `NameTree` is the workhorse behind the NDN FIB (longest-prefix match),
/// the PIT, RP tables and subscription bookkeeping. Iteration order is
/// deterministic (children are kept in a `BTreeMap`).
///
/// # Example
///
/// ```
/// # use gcopss_names::{Name, NameTree};
/// let mut fib: NameTree<u32> = NameTree::new();
/// fib.insert(Name::parse_lit("/1"), 10);
/// fib.insert(Name::parse_lit("/1/2"), 12);
/// let (prefix, face) = fib.longest_prefix(&Name::parse_lit("/1/2/9")).unwrap();
/// assert_eq!(prefix.to_string(), "/1/2");
/// assert_eq!(*face, 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTree<T> {
    root: TrieNode<T>,
    len: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TrieNode<T> {
    value: Option<T>,
    children: BTreeMap<Component, TrieNode<T>>,
}

impl<T> Default for TrieNode<T> {
    fn default() -> Self {
        Self {
            value: None,
            children: BTreeMap::new(),
        }
    }
}

impl<T> Default for NameTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> NameTree<T> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self {
            root: TrieNode::default(),
            len: 0,
        }
    }

    /// Number of names with values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no name has a value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value at `name`, returning the previous value if any.
    pub fn insert(&mut self, name: Name, value: T) -> Option<T> {
        let mut node = &mut self.root;
        for c in name.components() {
            node = node.children.entry(c.clone()).or_default();
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Returns the value stored exactly at `name`.
    #[must_use]
    pub fn get(&self, name: &Name) -> Option<&T> {
        self.node(name).and_then(|n| n.value.as_ref())
    }

    /// Returns the value stored exactly at `name`, mutably.
    pub fn get_mut(&mut self, name: &Name) -> Option<&mut T> {
        let mut node = &mut self.root;
        for c in name.components() {
            node = node.children.get_mut(c.as_str())?;
        }
        node.value.as_mut()
    }

    /// Returns the value at `name`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, name: &Name, default: impl FnOnce() -> T) -> &mut T {
        let mut node = &mut self.root;
        for c in name.components() {
            node = node.children.entry(c.clone()).or_default();
        }
        if node.value.is_none() {
            node.value = Some(default());
            self.len += 1;
        }
        node.value.as_mut().expect("value just ensured")
    }

    /// Removes and returns the value at `name`, pruning empty branches.
    pub fn remove(&mut self, name: &Name) -> Option<T> {
        fn rec<T>(node: &mut TrieNode<T>, comps: &[Component]) -> (Option<T>, bool) {
            match comps.split_first() {
                None => {
                    let v = node.value.take();
                    let prune = node.children.is_empty();
                    (v, prune)
                }
                Some((head, rest)) => {
                    let Some(child) = node.children.get_mut(head.as_str()) else {
                        return (None, false);
                    };
                    let (v, prune_child) = rec(child, rest);
                    if prune_child {
                        node.children.remove(head.as_str());
                    }
                    let prune = node.value.is_none() && node.children.is_empty();
                    (v, prune)
                }
            }
        }
        let (v, _) = rec(&mut self.root, name.components());
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Longest-prefix match: returns the deepest `(prefix, value)` such that
    /// `prefix.is_prefix_of(name)` and a value is stored at `prefix`.
    ///
    /// This is the FIB lookup operation of NDN.
    #[must_use]
    pub fn longest_prefix(&self, name: &Name) -> Option<(Name, &T)> {
        self.longest_prefix_level(name)
            .map(|(level, v)| (name.prefix(level), v))
    }

    /// [`NameTree::longest_prefix`] reporting the matched prefix by its
    /// number of components instead of materializing it — the form for
    /// per-packet lookups, which allocates nothing.
    #[must_use]
    pub fn longest_prefix_level(&self, name: &Name) -> Option<(usize, &T)> {
        let mut best: Option<(usize, &T)> = None;
        let mut node = &self.root;
        if let Some(v) = &node.value {
            best = Some((0, v));
        }
        for (depth, c) in name.components().iter().enumerate() {
            match node.children.get(c.as_str()) {
                Some(child) => {
                    node = child;
                    if let Some(v) = &node.value {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Returns every `(prefix, value)` along the path from the root to
    /// `name` (all stored prefixes of `name`), shallowest first.
    #[must_use]
    pub fn all_prefixes(&self, name: &Name) -> Vec<(Name, &T)> {
        let mut out = Vec::new();
        let mut node = &self.root;
        if let Some(v) = &node.value {
            out.push((Name::root(), v));
        }
        for (depth, c) in name.components().iter().enumerate() {
            match node.children.get(c.as_str()) {
                Some(child) => {
                    node = child;
                    if let Some(v) = &node.value {
                        out.push((name.prefix(depth + 1), v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Returns `true` if any value is stored at `prefix` or below it.
    #[must_use]
    pub fn any_under(&self, prefix: &Name) -> bool {
        fn has_any<T>(node: &TrieNode<T>) -> bool {
            node.value.is_some() || node.children.values().any(has_any)
        }
        self.node(prefix).is_some_and(has_any)
    }

    /// Collects every `(name, value)` stored at `prefix` or below it,
    /// in deterministic (lexicographic) order.
    #[must_use]
    pub fn descendants(&self, prefix: &Name) -> Vec<(Name, &T)> {
        let mut out = Vec::new();
        if let Some(node) = self.node(prefix) {
            collect(node, prefix.clone(), &mut out);
        }
        out
    }

    /// Iterates over all `(name, value)` pairs in deterministic order.
    #[must_use]
    pub fn iter(&self) -> Vec<(Name, &T)> {
        self.descendants(&Name::root())
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.root = TrieNode::default();
        self.len = 0;
    }

    fn node(&self, name: &Name) -> Option<&TrieNode<T>> {
        let mut node = &self.root;
        for c in name.components() {
            node = node.children.get(c.as_str())?;
        }
        Some(node)
    }
}

fn collect<'a, T>(node: &'a TrieNode<T>, name: Name, out: &mut Vec<(Name, &'a T)>) {
    if let Some(v) = &node.value {
        out.push((name.clone(), v));
    }
    for (c, child) in &node.children {
        collect(child, name.child(c.clone()), out);
    }
}

impl<T> FromIterator<(Name, T)> for NameTree<T> {
    fn from_iter<I: IntoIterator<Item = (Name, T)>>(iter: I) -> Self {
        let mut t = Self::new();
        for (n, v) in iter {
            t.insert(n, v);
        }
        t
    }
}

impl<T> Extend<(Name, T)> for NameTree<T> {
    fn extend<I: IntoIterator<Item = (Name, T)>>(&mut self, iter: I) {
        for (n, v) in iter {
            self.insert(n, v);
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
    fn insert_get_remove() {
        let mut t = NameTree::new();
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
        let mut t = NameTree::new();
        t.insert(Name::root(), 0);
        assert_eq!(t.get(&Name::root()), Some(&0));
        assert_eq!(t.longest_prefix(&n("/x/y")).unwrap().0, Name::root());
    }

    #[test]
    fn longest_prefix_match() {
        let mut t = NameTree::new();
        t.insert(n("/1"), 1);
        t.insert(n("/1/2/3"), 123);
        let (p, v) = t.longest_prefix(&n("/1/2/3/4")).unwrap();
        assert_eq!((p, *v), (n("/1/2/3"), 123));
        let (p, v) = t.longest_prefix(&n("/1/2")).unwrap();
        assert_eq!((p, *v), (n("/1"), 1));
        assert!(t.longest_prefix(&n("/2")).is_none());
    }

    #[test]
    fn all_prefixes_returns_every_stored_ancestor() {
        let mut t = NameTree::new();
        t.insert(Name::root(), 0);
        t.insert(n("/1"), 1);
        t.insert(n("/1/2"), 12);
        t.insert(n("/1/9"), 19);
        let got: Vec<i32> = t.all_prefixes(&n("/1/2/3")).iter().map(|(_, v)| **v).collect();
        assert_eq!(got, [0, 1, 12]);
    }

    #[test]
    fn descendants_are_sorted_and_scoped() {
        let mut t = NameTree::new();
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
    fn any_under_checks_subtree() {
        let mut t = NameTree::new();
        t.insert(n("/1/2/3"), ());
        assert!(t.any_under(&n("/1")));
        assert!(t.any_under(&n("/1/2/3")));
        assert!(!t.any_under(&n("/2")));
        assert!(!t.any_under(&n("/1/2/3/4")));
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = NameTree::new();
        t.insert(n("/1/2/3"), ());
        t.remove(&n("/1/2/3"));
        // The internal branch should be gone: nothing under /1.
        assert!(!t.any_under(&n("/1")));
    }

    #[test]
    fn remove_keeps_shared_branches() {
        let mut t = NameTree::new();
        t.insert(n("/1/2"), 'a');
        t.insert(n("/1/3"), 'b');
        t.remove(&n("/1/2"));
        assert_eq!(t.get(&n("/1/3")), Some(&'b'));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_or_insert_with() {
        let mut t: NameTree<Vec<u32>> = NameTree::new();
        t.get_or_insert_with(&n("/1"), Vec::new).push(7);
        t.get_or_insert_with(&n("/1"), Vec::new).push(8);
        assert_eq!(t.get(&n("/1")), Some(&vec![7, 8]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_iterator() {
        let t: NameTree<u32> = [(n("/1"), 1), (n("/2"), 2)].into_iter().collect();
        assert_eq!(t.len(), 2);
    }
}
