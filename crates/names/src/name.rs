//! NDN-style hierarchical names.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter;
use std::str::FromStr;
use std::sync::Arc;

use crate::{fnv1a, fnv1a_extend, Component, ParseNameError};

/// A hierarchical name: an ordered sequence of [`Component`]s.
///
/// Names are written with a leading `/` and `/`-separated components, as in
/// NDN: `/1/2`, `/snapshot/1/3`, `/rp/7`. The *root* name `/` has zero
/// components and is a prefix of every name.
///
/// `Name` is an immutable value: cheap to compare and hash, `Ord` by
/// component sequence (so a name sorts immediately before its descendants).
///
/// # Representation
///
/// A name is a 16-byte handle on one shared, immutable component slice (the
/// root holds none), so `clone` is a reference count: an Interest, its PIT
/// entry, the Data that answers it and the Content Store's copy all point
/// at the same components. A derived name (`child`, `prefix`, `join`) is
/// one allocation of exactly its length.
///
/// # Example
///
/// ```
/// # use gcopss_names::Name;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n: Name = "/1/2".parse()?;
/// assert_eq!(n.len(), 2);
/// assert_eq!(n.parent().unwrap().to_string(), "/1");
/// assert!(Name::root().is_prefix_of(&n));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Name {
    /// `None` is the root; a `Some` slice is never empty.
    components: Option<Arc<[Component]>>,
}

impl Name {
    /// Returns the root name `/` (zero components).
    #[must_use]
    pub fn root() -> Self {
        Self::default()
    }

    /// Builds a name from an iterator of components.
    ///
    /// A std iterator that knows its exact length (a slice, array, range or
    /// `once`, and any `map`/`cloned`/`chain` of those) is collected with
    /// one allocation; any other goes through a `Vec` first.
    pub fn from_components<I>(components: I) -> Self
    where
        I: IntoIterator<Item = Component>,
    {
        let components: Arc<[Component]> = components.into_iter().collect();
        Self {
            components: (!components.is_empty()).then_some(components),
        }
    }

    /// Parses a name, panicking on failure. Intended for literals in tests
    /// and examples.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid name.
    #[must_use]
    pub fn parse_lit(s: &str) -> Self {
        s.parse().expect("invalid name literal")
    }

    /// Returns the number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components().len()
    }

    /// Returns `true` for the root name `/`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_none()
    }

    /// Returns the components as a slice.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        self.components.as_deref().unwrap_or_default()
    }

    /// Returns the last component, if any.
    #[must_use]
    pub fn last(&self) -> Option<&Component> {
        self.components().last()
    }

    /// Returns `true` if `self` is a (non-strict) prefix of `other`.
    ///
    /// This is the COPSS delivery predicate: a subscription to `s` receives
    /// a publication to CD `c` iff `s.is_prefix_of(c)`.
    #[must_use]
    pub fn is_prefix_of(&self, other: &Name) -> bool {
        other.components().starts_with(self.components())
    }

    /// Returns `true` if `self` is a strict prefix of `other`.
    #[must_use]
    pub fn is_strict_prefix_of(&self, other: &Name) -> bool {
        other.len() > self.len() && self.is_prefix_of(other)
    }

    /// Returns the parent name (all but the last component), or `None` for
    /// the root.
    #[must_use]
    pub fn parent(&self) -> Option<Name> {
        self.len().checked_sub(1).map(|levels| self.prefix(levels))
    }

    /// Returns the prefix of this name with the given number of components.
    ///
    /// # Panics
    ///
    /// Panics if `levels > self.len()`.
    #[must_use]
    pub fn prefix(&self, levels: usize) -> Name {
        assert!(
            levels <= self.len(),
            "prefix length {levels} exceeds name length {}",
            self.len()
        );
        match levels {
            0 => Self::root(),
            l if l == self.len() => self.clone(),
            _ => Self::from_components(self.components()[..levels].iter().cloned()),
        }
    }

    /// Returns a new name with `component` appended.
    #[must_use]
    pub fn child(&self, component: Component) -> Name {
        Self::from_components(
            self.components()
                .iter()
                .cloned()
                .chain(iter::once(component)),
        )
    }

    /// Returns a new name with the numeric component `i` appended.
    #[must_use]
    pub fn child_index(&self, i: u32) -> Name {
        self.child(Component::index(i))
    }

    /// Returns a new name with the reserved own-area component (`0`)
    /// appended.
    #[must_use]
    pub fn own_area(&self) -> Name {
        self.child(Component::own_area())
    }

    /// Returns the concatenation `self + suffix`.
    #[must_use]
    pub fn join(&self, suffix: &Name) -> Name {
        if suffix.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return suffix.clone();
        }
        Self::from_components(self.components().iter().chain(suffix.components()).cloned())
    }

    /// Iterates over all prefixes of this name from the root (`/`) to the
    /// name itself, inclusive.
    ///
    /// ```
    /// # use gcopss_names::Name;
    /// let n = Name::parse_lit("/1/2");
    /// let p: Vec<String> = n.prefixes().map(|x| x.to_string()).collect();
    /// assert_eq!(p, ["/", "/1", "/1/2"]);
    /// ```
    #[must_use]
    pub fn prefixes(&self) -> Prefixes<'_> {
        Prefixes {
            name: self,
            next_len: 0,
        }
    }

    /// Computes the hash chain of this name: element `i` is the stable hash
    /// of the prefix with `i` components (element 0 is the root hash).
    ///
    /// The chain has `len() + 1` elements. This is the quantity the first-hop
    /// router precomputes in the paper's §III-C optimization.
    #[must_use]
    pub fn hash_chain(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len() + 1);
        let mut h = fnv1a(b"");
        out.push(h);
        for c in self.components() {
            h = fnv1a_extend(h, c.as_bytes());
            out.push(h);
        }
        out
    }

    /// Returns the stable hash of the full name (the last element of
    /// [`Name::hash_chain`]).
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        self.prefix_hash(self.len())
    }

    /// Returns the stable hash of the prefix with `levels` components
    /// (element `levels` of [`Name::hash_chain`]) without building it.
    ///
    /// # Panics
    ///
    /// Panics if `levels > self.len()`.
    #[must_use]
    pub fn prefix_hash(&self, levels: usize) -> u64 {
        self.components()[..levels]
            .iter()
            .fold(fnv1a(b""), |h, c| fnv1a_extend(h, c.as_bytes()))
    }

    /// Approximate encoded size of this name on the wire, in bytes (one byte
    /// of framing per component plus the component bytes). Used by the
    /// simulator for network-load accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        1 + self
            .components()
            .iter()
            .map(|c| 1 + c.as_bytes().len())
            .sum::<usize>()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("/");
        }
        for c in self.components() {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "/" {
            return Ok(Self::root());
        }
        let Some(rest) = s.strip_prefix('/') else {
            return Err(ParseNameError::MissingLeadingSlash);
        };
        // Sized up front, so a name of any depth parses in two allocations:
        // this buffer and the shared slice it is copied into.
        let mut components = Vec::with_capacity(rest.split('/').count());
        for label in rest.split('/') {
            components.push(Component::new(label)?);
        }
        Ok(Self {
            components: Some(components.into()),
        })
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.components().cmp(other.components())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

/// A name hashes, compares and orders exactly like its component slice (the
/// impls above all go through [`Name::components`]), so a map keyed by
/// `Name` can be probed with any `&name.components()[..k]` — every prefix of
/// a name, without building a `Name` per level.
impl Borrow<[Component]> for Name {
    fn borrow(&self) -> &[Component] {
        self.components()
    }
}

impl From<Component> for Name {
    fn from(c: Component) -> Self {
        Self::from_components([c])
    }
}

impl FromIterator<Component> for Name {
    fn from_iter<I: IntoIterator<Item = Component>>(iter: I) -> Self {
        Self::from_components(iter)
    }
}

/// Iterator over the prefixes of a [`Name`], from the root to the full name.
///
/// Produced by [`Name::prefixes`].
#[derive(Debug, Clone)]
pub struct Prefixes<'a> {
    name: &'a Name,
    next_len: usize,
}

impl Iterator for Prefixes<'_> {
    type Item = Name;

    fn next(&mut self) -> Option<Name> {
        if self.next_len > self.name.len() {
            return None;
        }
        let p = self.name.prefix(self.next_len);
        self.next_len += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.name.len() + 1 - self.next_len;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Prefixes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["/", "/1", "/1/2", "/snapshot/1/3", "/a/b/c/d/e"] {
            let n: Name = s.parse().unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_names() {
        assert_eq!(
            "1/2".parse::<Name>().unwrap_err(),
            ParseNameError::MissingLeadingSlash
        );
        assert_eq!(
            "".parse::<Name>().unwrap_err(),
            ParseNameError::MissingLeadingSlash
        );
        assert_eq!(
            "//".parse::<Name>().unwrap_err(),
            ParseNameError::EmptyComponent
        );
        assert_eq!(
            "/1//2".parse::<Name>().unwrap_err(),
            ParseNameError::EmptyComponent
        );
        assert_eq!(
            "/1/".parse::<Name>().unwrap_err(),
            ParseNameError::EmptyComponent
        );
    }

    #[test]
    fn root_properties() {
        let r = Name::root();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_string(), "/");
        assert_eq!(r.parent(), None);
        assert!(r.is_prefix_of(&Name::parse_lit("/9/9")));
    }

    #[test]
    fn prefix_predicate() {
        let a = Name::parse_lit("/1");
        let b = Name::parse_lit("/1/2");
        let c = Name::parse_lit("/12");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_strict_prefix_of(&a));
        assert!(a.is_strict_prefix_of(&b));
        // Component-wise, not string-wise: /1 is not a prefix of /12.
        assert!(!a.is_prefix_of(&c));
    }

    #[test]
    fn parent_and_child() {
        let n = Name::parse_lit("/1/2");
        assert_eq!(n.parent(), Some(Name::parse_lit("/1")));
        assert_eq!(Name::parse_lit("/1").child_index(2), n);
        assert_eq!(Name::parse_lit("/1").own_area().to_string(), "/1/0");
    }

    #[test]
    fn join_concatenates() {
        let a = Name::parse_lit("/snapshot");
        let b = Name::parse_lit("/1/3");
        assert_eq!(a.join(&b).to_string(), "/snapshot/1/3");
        assert_eq!(a.join(&Name::root()), a);
        assert_eq!(Name::root().join(&b), b);
    }

    #[test]
    fn prefixes_iterate_root_to_full() {
        let n = Name::parse_lit("/1/2/3");
        let p: Vec<String> = n.prefixes().map(|x| x.to_string()).collect();
        assert_eq!(p, ["/", "/1", "/1/2", "/1/2/3"]);
        assert_eq!(n.prefixes().len(), 4);
    }

    #[test]
    fn hash_chain_matches_prefix_hashes() {
        let n = Name::parse_lit("/1/2/3");
        let chain = n.hash_chain();
        assert_eq!(chain.len(), 4);
        for (i, p) in n.prefixes().enumerate() {
            assert_eq!(chain[i], p.stable_hash());
            assert_eq!(chain[i], n.prefix_hash(i));
        }
    }

    #[test]
    fn borrowed_component_slices_key_like_names() {
        use std::collections::hash_map::{DefaultHasher, HashMap};
        fn h<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        }
        let n = Name::parse_lit("/snapshot/1/3/obj");
        let map: HashMap<Name, usize, crate::FixedState> =
            n.prefixes().map(|p| (p.clone(), p.len())).collect();
        for k in 0..=n.len() {
            let slice = &n.components()[..k];
            assert_eq!(h(&n.prefix(k)), h(slice));
            assert_eq!(map.get(slice), Some(&k));
        }
        assert_eq!(map.get(Name::parse_lit("/snapshot/2").components()), None);
    }

    #[test]
    fn hash_chain_differs_between_siblings() {
        let a = Name::parse_lit("/1/2").stable_hash();
        let b = Name::parse_lit("/1/3").stable_hash();
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_groups_descendants() {
        let mut v = [
            Name::parse_lit("/2"),
            Name::parse_lit("/1/2"),
            Name::parse_lit("/1"),
            Name::root(),
        ];
        v.sort();
        let s: Vec<String> = v.iter().map(ToString::to_string).collect();
        assert_eq!(s, ["/", "/1", "/1/2", "/2"]);
    }

    #[test]
    fn encoded_len_counts_components() {
        assert_eq!(Name::root().encoded_len(), 1);
        assert_eq!(
            Name::parse_lit("/1/23").encoded_len(),
            1 + (1 + 1) + (1 + 2)
        );
    }

    #[test]
    fn from_iterator_collects() {
        let n: Name = (1..=3).map(Component::index).collect();
        assert_eq!(n.to_string(), "/1/2/3");
    }
}
