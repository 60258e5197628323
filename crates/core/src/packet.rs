//! The unified packet type carried by the simulated network.

use std::sync::Arc;

use gcopss_compat::bytes::Bytes;
use gcopss_copss::{CopssPacket, MulticastPacket, RpId};
use gcopss_ndn::{Data, Interest};
use gcopss_sim::NodeId;

/// A shared 4 KiB buffer used to materialize payloads of arbitrary size
/// without per-packet allocation: `payload_of(n)` is a zero-copy slice.
static PAYLOAD_POOL: &[u8] = &[0u8; 4096];

/// Returns an `n`-byte payload backed by a shared static buffer (zero-copy,
/// cheap to clone).
///
/// # Panics
///
/// Panics if `n > 4096`.
#[must_use]
pub fn payload_of(n: usize) -> Bytes {
    assert!(n <= PAYLOAD_POOL.len(), "payload too large: {n}");
    Bytes::from_static(&PAYLOAD_POOL[..n])
}

/// An update delivered by the IP-server baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpUpdate {
    /// Publication id (same id space as G-COPSS multicasts).
    pub id: u64,
    /// The leaf CD (area) the update pertains to; the server uses it to
    /// find the interested players. A `Name` is shared, so the server's
    /// per-recipient copy and every router hop cost a refcount.
    pub cd: gcopss_names::Name,
    /// Update payload size in bytes.
    pub size: u32,
}

impl IpUpdate {
    /// Wire size: IP header + addresses + payload (the paper's server test
    /// uses packets with source address, destination address and payload).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        28 + self.size as usize
    }
}

/// Packets of the hybrid-G-COPSS and IP baselines that are routed by
/// destination node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpPacket {
    /// Client → server: a published update.
    ToServer {
        /// The destination server.
        server: NodeId,
        /// The update.
        update: IpUpdate,
    },
    /// Server → client: a unicast copy of an update.
    ToClient {
        /// The destination player host.
        client: NodeId,
        /// The update.
        update: IpUpdate,
    },
    /// Client → server: a session (re-)establishment message. The baseline's
    /// recovery mode uses it to model TCP reconnects — a crashed server
    /// loses its connection table and only delivers to players that have
    /// re-helloed.
    Hello {
        /// The destination server.
        server: NodeId,
        /// The player (re-)connecting.
        player: gcopss_game::PlayerId,
        /// The player's host node (where `ToClient` packets go).
        client: NodeId,
    },
    /// An IP-multicast packet of hybrid-G-COPSS: forwarded hop-by-hop along
    /// the union of shortest paths to `dsts`, duplicating only where paths
    /// diverge (standard multicast tree behavior).
    Mcast {
        /// The IP multicast group (hashed from high-level CDs).
        group: u32,
        /// Member edge routers still to be reached via this copy.
        dsts: Arc<Vec<NodeId>>,
        /// The encapsulated COPSS multicast.
        inner: MulticastPacket,
    },
}

impl IpPacket {
    /// Wire size for network-load accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            Self::ToServer { update, .. } | Self::ToClient { update, .. } => {
                update.encoded_len()
            }
            // A bare TCP SYN-sized handshake: header + addresses, no payload.
            Self::Hello { .. } => 28,
            // Group id + encapsulated multicast; the destination set is
            // multicast routing state, not wire bytes.
            Self::Mcast { inner, .. } => 8 + inner.encoded_len(),
        }
    }
}

/// Every packet kind that can traverse the simulated network, across all
/// evaluated systems (G-COPSS, hybrid, IP server, NDN baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GPacket {
    /// A native COPSS packet (hop-by-hop pub/sub plane).
    Copss(CopssPacket),
    /// A COPSS multicast encapsulated toward an RP — on the real wire this
    /// is an NDN Interest named `/rp/<id>` whose payload is the multicast
    /// (§III-C); routers forward it with the NDN engine's FIB.
    ToRp {
        /// The target RP.
        rp: RpId,
        /// The encapsulated publication.
        inner: MulticastPacket,
    },
    /// An NDN Interest (snapshot queries, NDN baseline).
    Interest(Interest),
    /// An NDN Data packet.
    Data(Data),
    /// An IP packet (baselines and hybrid core).
    Ip(IpPacket),
    /// A node-addressed control packet, routed hop-by-hop by destination —
    /// used for the RP handoff of §IV-B ("R sends a packet containing the
    /// list of CDs that R' needs to handle").
    Control {
        /// Destination node.
        dst: NodeId,
        /// The carried control message.
        inner: CopssPacket,
    },
}

impl GPacket {
    /// Wire size in bytes, for link-load accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            Self::Copss(p) => p.encoded_len(),
            // Encapsulation: Interest header + /rp/<id> name + multicast.
            Self::ToRp { inner, .. } => 12 + inner.encoded_len(),
            Self::Interest(i) => i.encoded_len(),
            Self::Data(d) => d.encoded_len(),
            Self::Ip(p) => p.encoded_len(),
            Self::Control { inner, .. } => 8 + inner.encoded_len(),
        }
    }

    /// Wire size as `u32` (what the simulator's send API takes).
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        u32::try_from(self.encoded_len()).unwrap_or(u32::MAX)
    }

    /// The lineage id of the traced message this packet carries, if any.
    ///
    /// Publications keep their id across encapsulations (native multicast,
    /// `ToRp`, IP unicast/multicast), so one published update is one
    /// lineage no matter which system carries it. NDN Interests and Data
    /// derive tagged name-hash ids. Control traffic is untraced.
    #[must_use]
    pub fn lineage_id(&self) -> Option<u64> {
        match self {
            Self::Copss(p) => p.lineage_id(),
            Self::ToRp { inner, .. } | Self::Ip(IpPacket::Mcast { inner, .. }) => {
                Some(inner.id)
            }
            Self::Interest(i) => Some(i.lineage_id()),
            Self::Data(d) => Some(d.lineage_id()),
            Self::Ip(IpPacket::ToServer { update, .. } | IpPacket::ToClient { update, .. }) => {
                Some(update.id)
            }
            Self::Ip(IpPacket::Hello { .. }) | Self::Control { .. } => None,
        }
    }

    /// Overload-control priority class: 0 = control plane, 1 = bulk data.
    ///
    /// Control traffic — Subscribe/Unsubscribe, FIB and RP-rebalancing
    /// messages, `Control` handoffs, IP session hellos, and snapshot
    /// *manifest* Interests/Data (`/snapmani/...`, the tiny packets that
    /// tell a rejoining client what to fetch) — must survive overload for
    /// the system to recover, so it outranks bulk data (position updates,
    /// chunk transfers) in bounded queues and is never AQM-shed.
    #[must_use]
    pub fn priority(&self) -> u8 {
        match self {
            Self::Copss(CopssPacket::Multicast(_)) => 1,
            Self::Copss(_) | Self::Control { .. } | Self::Ip(IpPacket::Hello { .. }) => 0,
            Self::ToRp { .. } | Self::Ip(_) => 1,
            Self::Interest(i) => u8::from(!Self::is_manifest(&i.name)),
            Self::Data(d) => u8::from(!Self::is_manifest(&d.name)),
        }
    }

    /// `true` for names under the `/snapmani` manifest namespace.
    fn is_manifest(name: &gcopss_names::Name) -> bool {
        name.get(0)
            .is_some_and(|c| c.as_bytes() == crate::broker::SNAPMANI.as_bytes())
    }

    /// Overload-control supersede key: packets with equal keys carry
    /// versions of the same in-queue-replaceable state, so on a full queue
    /// a newer arrival may evict a stale queued one.
    ///
    /// Position updates are keyed by their leaf CD (plus the leg-specific
    /// address — RP, server, client, group — so copies on different legs
    /// never cannibalize each other). This is an area-level approximation:
    /// a CD's newest update stands in for the area's current state, which
    /// is exactly the freshness-over-completeness trade a game makes under
    /// overload. Control traffic and chunk transfers never supersede.
    #[must_use]
    pub fn supersede_key(&self) -> Option<u64> {
        /// Mixes a leg discriminant into the CD hash (splitmix-style odd
        /// constant, so adjacent ids spread).
        fn mix(h: u64, leg: u64) -> u64 {
            h ^ (leg + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
        match self {
            Self::Copss(CopssPacket::Multicast(m)) => Some(m.cd.hashes().full()),
            Self::ToRp { rp, inner } => {
                Some(mix(inner.cd.hashes().full(), u64::from(rp.0)))
            }
            Self::Ip(IpPacket::Mcast { group, inner, .. }) => {
                Some(mix(inner.cd.hashes().full(), u64::from(*group)))
            }
            Self::Ip(IpPacket::ToServer { server, update }) => {
                Some(mix(update.cd.stable_hash(), u64::from(server.0) << 1))
            }
            Self::Ip(IpPacket::ToClient { client, update }) => {
                Some(mix(update.cd.stable_hash(), (u64::from(client.0) << 1) | 1))
            }
            Self::Copss(_)
            | Self::Interest(_)
            | Self::Data(_)
            | Self::Ip(IpPacket::Hello { .. })
            | Self::Control { .. } => None,
        }
    }

    /// Short tag for counters and logs.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Copss(p) => p.kind(),
            Self::ToRp { .. } => "to-rp",
            Self::Interest(_) => "interest",
            Self::Data(_) => "data",
            Self::Ip(IpPacket::ToServer { .. }) => "ip-to-server",
            Self::Ip(IpPacket::ToClient { .. }) => "ip-to-client",
            Self::Ip(IpPacket::Hello { .. }) => "ip-hello",
            Self::Ip(IpPacket::Mcast { .. }) => "ip-mcast",
            Self::Control { .. } => "control",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_names::{Cd, Name};

    #[test]
    fn payload_pool_slices() {
        let p = payload_of(350);
        assert_eq!(p.len(), 350);
        let q = payload_of(0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn payload_pool_bounds() {
        let _ = payload_of(5000);
    }

    #[test]
    fn encoded_lens_positive() {
        let m = MulticastPacket::new(Cd::parse_lit("/1/2"), payload_of(100), 7);
        let pkts = [
            GPacket::Copss(CopssPacket::Multicast(m.clone())),
            GPacket::ToRp {
                rp: RpId(0),
                inner: m.clone(),
            },
            GPacket::Interest(Interest::new(Name::parse_lit("/snapshot/1/2"), 1)),
            GPacket::Data(Data::new(Name::parse_lit("/snapshot/1/2"), payload_of(64))),
            GPacket::Ip(IpPacket::ToServer {
                server: NodeId(0),
                update: IpUpdate {
                    id: 1,
                    cd: Name::parse_lit("/1/2"),
                    size: 100,
                },
            }),
            GPacket::Ip(IpPacket::Mcast {
                group: 3,
                dsts: Arc::new(vec![NodeId(1)]),
                inner: m,
            }),
        ];
        for p in &pkts {
            assert!(p.encoded_len() > 0, "{}", p.kind());
            assert_eq!(p.wire_size() as usize, p.encoded_len());
        }
    }

    #[test]
    fn lineage_ids_follow_the_publication() {
        let m = MulticastPacket::new(Cd::parse_lit("/1/2"), payload_of(10), 77);
        assert_eq!(
            GPacket::Copss(CopssPacket::Multicast(m.clone())).lineage_id(),
            Some(77)
        );
        assert_eq!(
            GPacket::ToRp { rp: RpId(0), inner: m.clone() }.lineage_id(),
            Some(77)
        );
        assert_eq!(
            GPacket::Ip(IpPacket::Mcast {
                group: 1,
                dsts: Arc::new(vec![NodeId(1)]),
                inner: m,
            })
            .lineage_id(),
            Some(77)
        );
        let u = IpUpdate {
            id: 9,
            cd: Name::parse_lit("/1"),
            size: 4,
        };
        assert_eq!(
            GPacket::Ip(IpPacket::ToServer { server: NodeId(0), update: u.clone() })
                .lineage_id(),
            Some(9)
        );
        assert_eq!(
            GPacket::Ip(IpPacket::ToClient { client: NodeId(2), update: u }).lineage_id(),
            Some(9)
        );
        // NDN names trace under tagged hash ids; control traffic is untraced.
        assert!(GPacket::Interest(Interest::new(Name::parse_lit("/s"), 1))
            .lineage_id()
            .is_some());
        assert_eq!(
            GPacket::Copss(CopssPacket::Subscribe { cds: vec![], rp: None }).lineage_id(),
            None
        );
        assert_eq!(
            GPacket::Ip(IpPacket::Hello {
                server: NodeId(0),
                player: gcopss_game::PlayerId(1),
                client: NodeId(3),
            })
            .lineage_id(),
            None
        );
    }

    #[test]
    fn encapsulation_overhead() {
        let m = MulticastPacket::new(Cd::parse_lit("/1/2"), payload_of(100), 7);
        let native = GPacket::Copss(CopssPacket::Multicast(m.clone())).encoded_len();
        let encap = GPacket::ToRp { rp: RpId(0), inner: m }.encoded_len();
        assert!(encap > native, "encapsulation adds header bytes");
    }
}
