//! Registry of every drop-reason tag in the workspace.
//!
//! Each intentional drop is tagged with one of the constants below:
//! behaviors drop through [`gcopss_sim::Ctx::discard`] (or its
//! `discard_batch` / `shed` twins), and the engine's own five reasons are
//! [`EngineDrop`]'s tags, re-exported here so the string is spelled once.
//! Centralizing the strings does two things:
//!
//! * drop sites can't typo a tag into a new, untracked bucket;
//! * the drop-reason coverage test walks [`ALL`] and asserts every tag
//!   shows up in at least one telemetry export from the experiment suite,
//!   so a new drop site cannot ship silently untagged (add its constant
//!   here and the gate forces an exercising experiment).
//!
//! Every tag is counted in one place, the simulator's always-on drop
//! ledger ([`gcopss_sim::Simulator::dropped`]), never in the world's named
//! counters. The same strings name the per-reason telemetry counters
//! beside the aggregate `"drop"` and tag lineage drop records, so the
//! delivery auditor's explanations use this vocabulary too.

use gcopss_sim::EngineDrop;

/// A COPSS `ToRp` packet reached a router with no FIB route toward the RP.
pub const TORP_NO_ROUTE: &str = "torp-no-route";
/// A `ToRp` publication reached its RP but the RP does not serve the CD.
pub const TORP_UNSERVED_CD: &str = "torp-unserved-cd";
/// A host publication arrived at a first-hop router that maps its CD to no
/// known RP.
pub const PUBLICATION_UNSERVED_CD: &str = "publication-unserved-cd";
/// PIT entries aged out by the periodic expiry sweep.
pub const PIT_EXPIRED: &str = "pit-expired";
/// Subscription-table entries purged when their face died.
pub const ST_PURGED: &str = "st-purged";
/// PIT entries purged when their face died.
pub const PIT_PURGED: &str = "pit-purged";
/// An NDN interest batch expired before its Data arrived.
pub const NDN_BATCH_EXPIRED: &str = "ndn-batch-expired";
/// A client discarded a multicast copy it had already applied
/// (post-failover re-subscription overlap).
pub const CLIENT_DUPLICATE_DROPPED: &str = "client-duplicate-dropped";
/// An IP datagram reached a hop with no route to its destination.
pub const IP_NO_ROUTE: &str = "ip-no-route";
/// A hybrid endpoint filtered a delivery it has no subscription for.
pub const HYBRID_FILTERED_UNWANTED: &str = "hybrid-filtered-unwanted";
/// A hybrid endpoint received a packet kind it never expects.
pub const HYBRID_UNEXPECTED_PACKET: &str = "hybrid-unexpected-packet";
/// A snapshot broker received an interest for unknown content.
pub const BROKER_UNKNOWN_INTEREST: &str = "broker-unknown-interest";
/// The IP server received a packet kind it never expects.
pub const SERVER_UNEXPECTED_PACKET: &str = "server-unexpected-packet";
/// The IP server dropped an update destined to a disconnected player.
pub const SERVER_DISCONNECTED_PLAYER: &str = "server-disconnected-player";
/// An IP client had no connected server to send to.
pub const IP_CLIENT_NO_SERVER: &str = "ip-client-no-server";
/// A snapshot broker received a `/chunk` Interest for a chunk it does not
/// hold. Expected in fan-out: `/chunk` routes to every broker and the name
/// carries no CD, so all brokers but the holder miss.
pub const BROKER_CHUNK_MISS: &str = "broker-chunk-miss";
/// A client received catch-up Data (manifest, chunk or snapshot object) it
/// has no active catch-up waiting for — e.g. a retransmitted fetch raced
/// its original, or the fetch was superseded.
pub const CLIENT_LATE_CATCHUP: &str = "client-late-catchup";
/// A client rejected a `/chunk` Data whose payload does not hash to the id
/// in its name (content-addressed integrity check).
pub const CLIENT_CHUNK_CORRUPT: &str = "client-chunk-corrupt";
/// Engine fault injection: the packet died on a down/lossy link
/// (tagged by `gcopss_sim`'s transmit path, listed here for coverage).
pub const LINK_LOST: &str = EngineDrop::LinkLost.as_str();
/// Engine fault injection: the packet was queued at (or destined to) a
/// crashed node (tagged by `gcopss_sim`, listed here for coverage).
pub const NODE_LOST: &str = EngineDrop::NodeLost.as_str();
/// Engine overload control: an arrival was rejected by (or a queued packet
/// evicted from) a full bounded service queue (tagged by `gcopss_sim`).
pub const QUEUE_FULL: &str = EngineDrop::QueueFull.as_str();
/// Engine overload control: the CoDel-style AQM shed a packet whose
/// head-of-queue sojourn proved a standing queue (tagged by `gcopss_sim`).
pub const AQM_SHED: &str = EngineDrop::AqmShed.as_str();
/// Engine overload control: a queued position update was evicted in favor
/// of a newer arrival with the same supersede key (tagged by `gcopss_sim`).
pub const STALE_SUPERSEDED: &str = EngineDrop::StaleSuperseded.as_str();
/// A client shed a publish at the source because congestion feedback
/// stretched its allowed cadence (capped multiplicative rate reduction).
pub const RATE_LIMITED: &str = "rate-limited";

/// Every registered drop reason. The coverage test iterates this; keep it
/// in sync when adding a constant above.
pub const ALL: &[&str] = &[
    TORP_NO_ROUTE,
    TORP_UNSERVED_CD,
    PUBLICATION_UNSERVED_CD,
    PIT_EXPIRED,
    ST_PURGED,
    PIT_PURGED,
    NDN_BATCH_EXPIRED,
    CLIENT_DUPLICATE_DROPPED,
    IP_NO_ROUTE,
    HYBRID_FILTERED_UNWANTED,
    HYBRID_UNEXPECTED_PACKET,
    BROKER_UNKNOWN_INTEREST,
    SERVER_UNEXPECTED_PACKET,
    SERVER_DISCONNECTED_PLAYER,
    IP_CLIENT_NO_SERVER,
    BROKER_CHUNK_MISS,
    CLIENT_LATE_CATCHUP,
    CLIENT_CHUNK_CORRUPT,
    LINK_LOST,
    NODE_LOST,
    QUEUE_FULL,
    AQM_SHED,
    STALE_SUPERSEDED,
    RATE_LIMITED,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn tags_are_unique_nonempty_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for &tag in ALL {
            assert!(!tag.is_empty());
            assert!(
                tag.bytes().all(|b| b.is_ascii_lowercase() || b == b'-'),
                "tag {tag:?} is not kebab-case"
            );
            assert!(seen.insert(tag), "duplicate tag {tag:?}");
        }
        assert_eq!(ALL.len(), 24);
    }

    #[test]
    fn every_engine_drop_tag_is_registered() {
        for why in gcopss_sim::EngineDrop::ALL {
            assert!(ALL.contains(&why.as_str()), "{why:?} is not in drops::ALL");
        }
    }
}
