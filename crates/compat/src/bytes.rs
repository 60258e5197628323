//! A cheap-clone immutable byte buffer, mirroring the `bytes` crate's
//! `Bytes` for the operations this workspace uses.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
///
/// Cloning is O(1): static payloads share the `'static` slice directly,
/// heap payloads bump an [`Arc`]. Equality and hashing are by content.
///
/// # Example
///
/// ```
/// use gcopss_compat::bytes::Bytes;
///
/// let a = Bytes::from_static(b"update");
/// let b = a.clone(); // no copy
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 6);
/// assert_eq!(&a[..2], b"up");
/// ```
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    /// Borrowed from static memory — `from_static` is zero-copy.
    Static(&'static [u8]),
    /// Shared heap allocation.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[must_use]
    pub const fn new() -> Self {
        Self(Repr::Static(&[]))
    }

    /// Wraps a `'static` slice without copying.
    #[must_use]
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Self(Repr::Static(bytes))
    }

    /// Copies a slice into a new shared buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self(Repr::Shared(Arc::from(data)))
    }

    /// The underlying bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }

    /// Returns `true` if `other` shares storage with `self` (both point at
    /// the same allocation or the same static slice). Used by tests to pin
    /// the clone-is-shallow guarantee.
    #[must_use]
    pub fn shares_storage_with(&self, other: &Bytes) -> bool {
        match (&self.0, &other.0) {
            (Repr::Static(a), Repr::Static(b)) => std::ptr::eq(*a, *b),
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self(Repr::Shared(Arc::from(data)))
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    /// Renders as `b"…"` with escapes, like the real crate.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert!(Bytes::new().is_empty());
        let s = Bytes::from_static(b"abc");
        assert_eq!(s.len(), 3);
        let c = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(c.len(), 4);
        let v = Bytes::from(vec![9u8; 5]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn equality_is_by_content_across_reprs() {
        let a = Bytes::from_static(b"xyz");
        let b = Bytes::copy_from_slice(b"xyz");
        assert_eq!(a, b);
        assert!(!a.shares_storage_with(&b));
    }

    #[test]
    fn deref_and_as_ref() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(&b[1..3], b"el");
        assert_eq!(b.as_ref(), b"hello");
        assert!(b.iter().eq(b"hello".iter()));
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\"\n");
        assert_eq!(format!("{b:?}"), "b\"a\\\"\\n\"");
    }
}
