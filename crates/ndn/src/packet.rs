//! NDN packet types: Interest and Data.

use std::fmt;

use gcopss_compat::bytes::Bytes;
use gcopss_names::Name;

/// A local face (interface) identifier of one NDN node.
///
/// Faces are how an NDN engine names its attachment points: links to
/// neighboring routers, local applications, or (in G-COPSS) the IPC port
/// connecting the NDN engine to the COPSS engine (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaceId(pub u32);

impl fmt::Display for FaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "face{}", self.0)
    }
}

/// An NDN Interest: a request for named content.
///
/// The `nonce` detects loops and duplicate forwarding; consumers pick a
/// fresh nonce per expressed Interest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interest {
    /// The requested name (matches Data whose name it prefixes).
    pub name: Name,
    /// Random per-Interest value for duplicate/loop suppression.
    pub nonce: u64,
    /// Lifetime in nanoseconds; the PIT entry expires this long after
    /// insertion.
    pub lifetime_ns: u64,
}

impl Interest {
    /// Default Interest lifetime: 4 seconds (the NDN default).
    pub const DEFAULT_LIFETIME_NS: u64 = 4_000_000_000;

    /// Creates an Interest with the default lifetime.
    #[must_use]
    pub fn new(name: Name, nonce: u64) -> Self {
        Self {
            name,
            nonce,
            lifetime_ns: Self::DEFAULT_LIFETIME_NS,
        }
    }

    /// Creates an Interest with an explicit lifetime.
    #[must_use]
    pub fn with_lifetime(name: Name, nonce: u64, lifetime_ns: u64) -> Self {
        Self {
            name,
            nonce,
            lifetime_ns,
        }
    }

    /// Approximate wire size in bytes (name + nonce + header), used for
    /// network-load accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.name.encoded_len() + 8 + 4
    }

    /// Deterministic lineage id of this Interest: the name hash mixed with
    /// the nonce (so a retransmission with a fresh nonce starts a new
    /// lineage), tagged in the top bits so it cannot collide with the
    /// dense publication ids used by the COPSS/IP data path.
    #[must_use]
    pub fn lineage_id(&self) -> u64 {
        let h = self.name.stable_hash() ^ self.nonce.rotate_left(17);
        (h >> 2) | (0b10 << 62)
    }
}

impl fmt::Display for Interest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interest({}, nonce={})", self.name, self.nonce)
    }
}

/// An NDN Data packet: named content, flowing back along the Interest's
/// reverse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    /// The content name.
    pub name: Name,
    /// The content payload.
    pub payload: Bytes,
    /// How long (ns) a Content Store may treat this Data as fresh;
    /// 0 disables caching (gaming updates age out instantly, §V-B).
    pub freshness_ns: u64,
}

impl Data {
    /// Default freshness: 1 second.
    pub const DEFAULT_FRESHNESS_NS: u64 = 1_000_000_000;

    /// Creates a Data packet with the default freshness.
    #[must_use]
    pub fn new(name: Name, payload: Bytes) -> Self {
        Self {
            name,
            payload,
            freshness_ns: Self::DEFAULT_FRESHNESS_NS,
        }
    }

    /// Creates a Data packet with explicit freshness.
    #[must_use]
    pub fn with_freshness(name: Name, payload: Bytes, freshness_ns: u64) -> Self {
        Self {
            name,
            payload,
            freshness_ns,
        }
    }

    /// Approximate wire size in bytes (name + payload + header).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.name.encoded_len() + self.payload.len() + 4
    }

    /// Deterministic lineage id of this Data: the content-name hash,
    /// tagged in the top bits (distinct from the Interest tag, so a
    /// Data and the Interest that pulled it trace as separate lineages
    /// linked by their cause spans).
    #[must_use]
    pub fn lineage_id(&self) -> u64 {
        (self.name.stable_hash() >> 2) | (0b11 << 62)
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Data({}, {} bytes)", self.name, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_constructors() {
        let i = Interest::new(Name::parse_lit("/a"), 1);
        assert_eq!(i.lifetime_ns, Interest::DEFAULT_LIFETIME_NS);
        let j = Interest::with_lifetime(Name::parse_lit("/a"), 1, 5);
        assert_eq!(j.lifetime_ns, 5);
        assert_eq!(i.name, j.name);
    }

    #[test]
    fn data_constructors() {
        let d = Data::new(Name::parse_lit("/a"), Bytes::from_static(b"hi"));
        assert_eq!(d.freshness_ns, Data::DEFAULT_FRESHNESS_NS);
        let e = Data::with_freshness(Name::parse_lit("/a"), Bytes::new(), 0);
        assert_eq!(e.freshness_ns, 0);
    }

    #[test]
    fn encoded_len_includes_payload() {
        let d = Data::new(Name::parse_lit("/ab"), Bytes::from_static(b"0123456789"));
        assert_eq!(d.encoded_len(), (1 + 3) + 10 + 4);
        let i = Interest::new(Name::parse_lit("/ab"), 1);
        assert_eq!(i.encoded_len(), (1 + 3) + 8 + 4);
    }

    #[test]
    fn lineage_ids_are_tagged_and_distinct() {
        let i = Interest::new(Name::parse_lit("/a/b"), 7);
        let d = Data::new(Name::parse_lit("/a/b"), Bytes::new());
        // Top two bits carry the packet-kind tag.
        assert_eq!(i.lineage_id() >> 62, 0b10);
        assert_eq!(d.lineage_id() >> 62, 0b11);
        // Same name, different kinds — different lineages.
        assert_ne!(i.lineage_id(), d.lineage_id());
        // Deterministic.
        assert_eq!(i.lineage_id(), Interest::new(Name::parse_lit("/a/b"), 7).lineage_id());
        assert_eq!(d.lineage_id(), Data::new(Name::parse_lit("/a/b"), Bytes::new()).lineage_id());
        // A retransmission with a fresh nonce starts a new lineage.
        assert_ne!(
            i.lineage_id(),
            Interest::new(Name::parse_lit("/a/b"), 8).lineage_id()
        );
    }

    #[test]
    fn display_forms() {
        let i = Interest::new(Name::parse_lit("/a/b"), 9);
        assert_eq!(i.to_string(), "Interest(/a/b, nonce=9)");
        let d = Data::new(Name::parse_lit("/a"), Bytes::from_static(b"xyz"));
        assert_eq!(d.to_string(), "Data(/a, 3 bytes)");
        assert_eq!(FaceId(3).to_string(), "face3");
    }
}
