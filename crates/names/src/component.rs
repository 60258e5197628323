//! A single label of a hierarchical [`Name`](crate::Name).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ParseNameError;

/// One component (label) of a hierarchical name.
///
/// Components are non-empty UTF-8 strings that do not contain the `/`
/// separator. The component `"0"` is reserved by convention for the
/// "own-area" CD of a non-leaf map area (see the crate-level docs); it is an
/// ordinary component as far as this type is concerned.
///
/// # Example
///
/// ```
/// # use gcopss_names::Component;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = Component::new("lobby")?;
/// assert_eq!(c.as_str(), "lobby");
/// assert!(Component::new("a/b").is_err());
/// # Ok(())
/// # }
/// ```
///
/// # Representation
///
/// A component is 16 bytes. A label of at most [`Component::INLINE_LEN`]
/// bytes (every map index, namespace word and nonce) is stored in the value
/// itself, so creating and cloning it never calls the allocator; a longer
/// one (a 16-hex-digit chunk id) is spilled behind one shared pointer, so
/// cloning it is a reference count. Equality, order and hash are those of
/// the label's bytes either way.
#[derive(Clone)]
pub struct Component(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the label (valid UTF-8); the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; Component::INLINE_LEN],
    },
    /// Longer than `INLINE_LEN`. `Arc<str>` is two words wide; the extra
    /// `Box` keeps the pointer thin and the whole component at 16 bytes.
    Spilled(Arc<Box<str>>),
}

impl Component {
    /// The reserved "own-area" component used by hierarchical game maps.
    pub const OWN_AREA_LABEL: &'static str = "0";

    /// The longest label, in bytes, that is stored without a heap
    /// allocation.
    pub const INLINE_LEN: usize = 14;

    /// Creates a component from a string, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] if the string is empty or contains `/`.
    pub fn new(s: impl AsRef<str>) -> Result<Self, ParseNameError> {
        let s = s.as_ref();
        if s.is_empty() {
            return Err(ParseNameError::EmptyComponent);
        }
        if s.contains('/') {
            return Err(ParseNameError::SeparatorInComponent);
        }
        Ok(if s.len() <= Self::INLINE_LEN {
            Self::inline(s.as_bytes())
        } else {
            Self(Repr::Spilled(Arc::new(s.into())))
        })
    }

    /// `label` must be valid UTF-8 of at most `INLINE_LEN` bytes.
    fn inline(label: &[u8]) -> Self {
        let mut bytes = [0; Self::INLINE_LEN];
        bytes[..label.len()].copy_from_slice(label);
        Self(Repr::Inline {
            len: label.len() as u8,
            bytes,
        })
    }

    /// Creates the reserved own-area component (`"0"`).
    #[must_use]
    pub fn own_area() -> Self {
        Self::inline(Self::OWN_AREA_LABEL.as_bytes())
    }

    /// Creates a numeric component (`1`, `2`, …), the form used for map
    /// regions and zones.
    #[must_use]
    pub fn index(mut i: u32) -> Self {
        // `u32::MAX` has ten decimal digits; fill from the right.
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (i % 10) as u8;
            i /= 10;
            if i == 0 {
                break;
            }
        }
        Self::inline(&digits[at..])
    }

    /// Returns the component as a string slice.
    ///
    /// An inline label is re-checked as UTF-8 on each call (the crate
    /// forbids `unsafe`); comparison, ordering and hashing go through
    /// [`Component::as_bytes`], which does not.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("an inline label was copied from a str")
            }
            Repr::Spilled(s) => s,
        }
    }

    /// Returns the raw bytes of the component.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Spilled(s) => s.as_bytes(),
        }
    }

    /// Returns `true` if this is the reserved own-area component.
    #[must_use]
    pub fn is_own_area(&self) -> bool {
        self.as_bytes() == Self::OWN_AREA_LABEL.as_bytes()
    }
}

impl PartialEq for Component {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Component {}

impl PartialOrd for Component {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte-lexicographic, which is `str`'s order.
impl Ord for Component {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Writes what `str`'s `Hash` writes (the bytes, then `0xff`), as
/// `Borrow<str>` requires.
impl Hash for Component {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Component({self})")
    }
}

impl std::str::FromStr for Component {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::new(s)
    }
}

impl TryFrom<&str> for Component {
    type Error = ParseNameError;

    fn try_from(s: &str) -> Result<Self, Self::Error> {
        Self::new(s)
    }
}

impl TryFrom<String> for Component {
    type Error = ParseNameError;

    fn try_from(s: String) -> Result<Self, Self::Error> {
        Self::new(s)
    }
}

impl From<u32> for Component {
    fn from(i: u32) -> Self {
        Self::index(i)
    }
}

impl AsRef<str> for Component {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Component {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_plain_labels() {
        let c = Component::new("sports").unwrap();
        assert_eq!(c.as_str(), "sports");
        assert_eq!(c.to_string(), "sports");
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            Component::new("").unwrap_err(),
            ParseNameError::EmptyComponent
        );
    }

    #[test]
    fn new_rejects_separator() {
        assert_eq!(
            Component::new("a/b").unwrap_err(),
            ParseNameError::SeparatorInComponent
        );
    }

    #[test]
    fn own_area_is_zero_label() {
        let c = Component::own_area();
        assert!(c.is_own_area());
        assert_eq!(c.as_str(), "0");
        assert_eq!(c, Component::index(0));
    }

    #[test]
    fn index_components_are_numeric() {
        assert_eq!(Component::index(17).as_str(), "17");
        assert!(!Component::index(1).is_own_area());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Component::new("1").unwrap() < Component::new("2").unwrap());
        // Note: lexicographic, not numeric.
        assert!(Component::new("10").unwrap() < Component::new("2").unwrap());
    }

    #[test]
    fn borrow_allows_str_lookup() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(Component::new("a").unwrap(), 1);
        assert_eq!(m.get("a"), Some(&1));
    }
}
