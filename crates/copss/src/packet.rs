//! COPSS wire messages.

use std::fmt;

use gcopss_compat::bytes::Bytes;
use gcopss_names::{Cd, Component, Name};

/// Identifier of a Rendezvous Point.
///
/// On the wire an RP is addressed by the NDN name `/rp/<id>`; routers hold
/// FIB entries for those prefixes so encapsulated multicasts can reach the
/// RP (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RpId(pub u32);

impl RpId {
    /// The NDN name prefix addressing this RP (`/rp/<id>`).
    #[must_use]
    pub fn ndn_prefix(self) -> Name {
        Name::from_components([
            Component::new("rp").expect("a valid label"),
            Component::index(self.0),
        ])
    }
}

impl fmt::Display for RpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rp{}", self.0)
    }
}

/// A published update: the one-step COPSS data path (the paper uses the
/// one-step model because gaming packets are small, §III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastPacket {
    /// The Content Descriptor this publication targets (a leaf CD of the
    /// game map).
    pub cd: Cd,
    /// Application payload (the game update).
    pub payload: Bytes,
    /// Globally unique publication id, used by receivers to deduplicate and
    /// by the metrics layer to compute update latency.
    pub id: u64,
    /// The RP tree this packet is travelling (set by the serving RP when it
    /// starts the downstream multicast; `None` on the publisher→RP leg).
    /// Keeps each publication on its own core-based tree.
    pub tree: Option<RpId>,
}

impl MulticastPacket {
    /// Creates a multicast packet (not yet assigned to a tree).
    #[must_use]
    pub fn new(cd: Cd, payload: Bytes, id: u64) -> Self {
        Self {
            cd,
            payload,
            id,
            tree: None,
        }
    }

    /// Returns a copy of this packet travelling RP `rp`'s tree.
    #[must_use]
    pub fn on_tree(&self, rp: RpId) -> Self {
        Self {
            tree: Some(rp),
            ..self.clone()
        }
    }

    /// Approximate wire size: CD name + per-level hashes (the first-hop
    /// hash optimization ships one u64 per level) + payload + header.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.cd.name().encoded_len() + 8 * self.cd.hashes().len() + self.payload.len() + 12
    }
}

impl fmt::Display for MulticastPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Multicast({}, id={}, {} bytes)",
            self.cd,
            self.id,
            self.payload.len()
        )
    }
}

/// The COPSS packet types exchanged between G-COPSS routers and hosts.
///
/// `Subscribe`/`Unsubscribe`/`Multicast` are the three additions of §III-C;
/// `FibAdd`/`FibRemove` manipulate the co-located NDN engine's FIB (each may
/// carry multiple names "for efficiency", as the paper notes);
/// `RpHandoff`/`RpUpdate` implement the dynamic RP rebalancing control plane
/// of §IV-B.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CopssPacket {
    /// Join the multicast groups for these CDs.
    Subscribe {
        /// Subscribed CD names (may be inner nodes of the hierarchy).
        cds: Vec<Name>,
        /// The RP tree being joined: `None` from hosts (the first-hop
        /// router derives the anchors), `Some` between routers.
        rp: Option<RpId>,
    },
    /// Leave the multicast groups for these CDs.
    Unsubscribe {
        /// Unsubscribed CD names.
        cds: Vec<Name>,
        /// The RP tree being left (mirrors `Subscribe::rp`).
        rp: Option<RpId>,
    },
    /// A published update, pushed along the subscription tree.
    Multicast(MulticastPacket),
    /// Install FIB routes for the given prefixes pointing back toward the
    /// sender.
    FibAdd {
        /// Announced prefixes.
        prefixes: Vec<Name>,
    },
    /// Withdraw FIB routes for the given prefixes from the sender's
    /// direction.
    FibRemove {
        /// Withdrawn prefixes.
        prefixes: Vec<Name>,
    },
    /// Old RP → new RP: transfer responsibility for these CD prefixes
    /// (§IV-B stage "Reverse the FIB & ST entries").
    RpHandoff {
        /// CD prefixes the receiving router must now serve as RP.
        cds: Vec<Name>,
        /// The RP id the receiver assumes for these CDs.
        new_rp: RpId,
        /// The overloaded RP handing off — during the transition the new
        /// RP tunnels served publications back to it so the old tree keeps
        /// delivering (§IV-B: "R' forwards the multicast packets to R").
        old_rp: RpId,
    },
    /// Network-wide announcement that `cds` are now served by `new_rp`
    /// (§IV-B stage "Propagate new RP information"). Routers update their
    /// RP tables and re-anchor affected subscriptions.
    RpUpdate {
        /// Moved CD prefixes.
        cds: Vec<Name>,
        /// Their new RP.
        new_rp: RpId,
    },
}

impl CopssPacket {
    /// Approximate wire size in bytes, for network-load accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            Self::Subscribe { cds, .. } | Self::Unsubscribe { cds, .. } => {
                8 + cds.iter().map(Name::encoded_len).sum::<usize>()
            }
            Self::Multicast(m) => m.encoded_len(),
            Self::FibAdd { prefixes } | Self::FibRemove { prefixes } => {
                4 + prefixes.iter().map(Name::encoded_len).sum::<usize>()
            }
            Self::RpHandoff { cds, .. } | Self::RpUpdate { cds, .. } => {
                8 + cds.iter().map(Name::encoded_len).sum::<usize>()
            }
        }
    }

    /// Short human-readable tag for logs and traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Subscribe { .. } => "subscribe",
            Self::Unsubscribe { .. } => "unsubscribe",
            Self::Multicast(_) => "multicast",
            Self::FibAdd { .. } => "fib-add",
            Self::FibRemove { .. } => "fib-remove",
            Self::RpHandoff { .. } => "rp-handoff",
            Self::RpUpdate { .. } => "rp-update",
        }
    }

    /// The lineage id of the publication this packet carries, if it
    /// carries one. Control traffic (subscriptions, FIB and RP
    /// maintenance) is untraced.
    #[must_use]
    pub fn lineage_id(&self) -> Option<u64> {
        match self {
            Self::Multicast(m) => Some(m.id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rp_ndn_prefix() {
        assert_eq!(RpId(7).ndn_prefix(), Name::parse_lit("/rp/7"));
        assert_eq!(RpId(7).to_string(), "rp7");
    }

    #[test]
    fn multicast_encoded_len_counts_hashes_and_payload() {
        let m = MulticastPacket::new(Cd::parse_lit("/1/2"), Bytes::from_static(b"0123"), 1);
        // name 5 ("/1/2" = 1 + 2*2), hashes 3*8, payload 4, header 12
        assert_eq!(m.encoded_len(), 5 + 24 + 4 + 12);
    }

    #[test]
    fn packet_kinds() {
        let p = CopssPacket::Subscribe {
            cds: vec![Name::parse_lit("/1")],
            rp: None,
        };
        assert_eq!(p.kind(), "subscribe");
        assert!(p.encoded_len() > 4);
        let m = CopssPacket::Multicast(MulticastPacket::new(
            Cd::parse_lit("/1"),
            Bytes::new(),
            9,
        ));
        assert_eq!(m.kind(), "multicast");
    }
}
