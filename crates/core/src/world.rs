//! Shared world state: the metrics every behavior reports into.

use std::collections::{BTreeMap, HashSet};

use gcopss_game::{MoveType, PlayerId};
use gcopss_names::{FixedState, Name};
use gcopss_sim::metrics::{LatencySamples, OnlineStats};
use gcopss_sim::{Ctx, LogHistogram, SimDuration, SimTime};

use crate::GPacket;

/// How much per-delivery detail to keep. Large traces (1.7M publications ×
/// tens of receivers) cannot afford full sample retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// Keep every delivery latency sample (CDFs — Fig. 4).
    Full,
    /// Keep per-publication min/mean/max (timelines — Fig. 5).
    PerPublication,
    /// Keep only aggregate statistics (Tables I/II, Fig. 6).
    #[default]
    StatsOnly,
}

/// Per-publication latency aggregate.
#[derive(Debug, Clone, Copy)]
struct PubAgg {
    min: SimDuration,
    max: SimDuration,
    sum: SimDuration,
    count: u32,
}

/// End-to-end update-latency accounting.
///
/// Publication ids are sequential (the global trace-event index), so send
/// times live in a dense `Vec`. Deliveries to the publisher itself are
/// ignored (a player is subscribed to its own area and receives its own
/// multicasts back).
#[derive(Debug, Default)]
pub struct UpdateMetrics {
    mode: MetricsMode,
    sent: Vec<Option<(SimTime, PlayerId)>>,
    published: u64,
    /// Log-scale latency histogram, kept in every mode: O(1) memory, so
    /// even [`MetricsMode::StatsOnly`] runs over millions of deliveries get
    /// approximate p50/p95/p99 — and the exact count, sum, min and max
    /// behind [`UpdateMetrics::stats`].
    hist: LogHistogram,
    samples: LatencySamples,
    per_pub: BTreeMap<u64, PubAgg>,
    delivered: u64,
}

impl UpdateMetrics {
    /// Creates metrics with the given retention mode.
    #[must_use]
    pub fn new(mode: MetricsMode) -> Self {
        Self {
            mode,
            ..Default::default()
        }
    }

    /// Registers publication `id` sent by `publisher` at `at`. Ids are
    /// dense (global trace-event indexes); gaps are tolerated.
    pub fn publish(&mut self, id: u64, publisher: PlayerId, at: SimTime) {
        let idx = id as usize;
        if idx >= self.sent.len() {
            self.sent.resize(idx + 1, None);
        }
        self.sent[idx] = Some((at, publisher));
        self.published += 1;
    }

    /// Records a delivery of `id` to `receiver` at `at`.
    pub fn deliver(&mut self, id: u64, receiver: PlayerId, at: SimTime) {
        let Some(&Some((t0, publisher))) = self.sent.get(id as usize) else {
            return;
        };
        if receiver == publisher {
            return;
        }
        let lat = at.saturating_duration_since(t0);
        self.delivered += 1;
        self.hist.record_duration(lat);
        match self.mode {
            MetricsMode::Full => self.samples.record(lat),
            MetricsMode::PerPublication => {
                let e = self.per_pub.entry(id).or_insert(PubAgg {
                    min: lat,
                    max: lat,
                    sum: SimDuration::ZERO,
                    count: 0,
                });
                e.min = e.min.min(lat);
                e.max = e.max.max(lat);
                e.sum += lat;
                e.count += 1;
            }
            MetricsMode::StatsOnly => {}
        }
    }

    /// Number of publications registered.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Number of non-self deliveries recorded.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Aggregate latency statistics: exact, read off the histogram.
    #[must_use]
    pub fn stats(&self) -> OnlineStats {
        OnlineStats::from(&self.hist)
    }

    /// The log-scale latency histogram (kept in every retention mode).
    /// Quantiles are bucket upper bounds, in nanoseconds — within 2× of the
    /// exact value by construction.
    #[must_use]
    pub fn latency_hist(&self) -> &LogHistogram {
        &self.hist
    }

    /// All delivery samples ([`MetricsMode::Full`] only; empty otherwise).
    pub fn samples_mut(&mut self) -> &mut LatencySamples {
        &mut self.samples
    }

    /// Per-publication `(id, min, mean, max)` rows in id order
    /// ([`MetricsMode::PerPublication`] only).
    #[must_use]
    pub fn per_publication_rows(&self) -> Vec<(u64, SimDuration, SimDuration, SimDuration)> {
        self.per_pub
            .iter()
            .map(|(&id, a)| (id, a.min, a.sum / u64::from(a.count.max(1)), a.max))
            .collect()
    }

    /// The publisher of a publication, if registered.
    #[must_use]
    pub fn publisher_of(&self, id: u64) -> Option<PlayerId> {
        self.sent
            .get(id as usize)
            .copied()
            .flatten()
            .map(|(_, p)| p)
    }
}

/// A recorded automatic RP split (§IV-B), for Fig. 5c.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitRecord {
    /// When the split fired.
    pub at: SimTime,
    /// The overloaded RP.
    pub from_rp: u32,
    /// The newly created RP.
    pub to_rp: u32,
    /// The CD prefixes that moved.
    pub moved: Vec<Name>,
}

/// One completed snapshot convergence after a player movement (Table III)
/// or an offline player coming online (§IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRecord {
    /// The moving/joining player.
    pub player: PlayerId,
    /// Movement classification (for an online join: the type whose
    /// snapshot requirement matches the join area's full view).
    pub move_type: MoveType,
    /// Leaf CDs downloaded.
    pub leaf_cds: usize,
    /// Time from arrival in the new area to the last snapshot byte.
    pub convergence: SimDuration,
    /// Snapshot bytes received.
    pub bytes: u64,
    /// `true` when this records an offline player coming online rather
    /// than an in-game move.
    pub online_join: bool,
}

/// How a catching-up client refreshes its world view after (re)joining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUpMode {
    /// Naive baseline: re-fetch every object snapshot via `/snapshot` QR.
    FullSnapshot,
    /// Content-addressed delta: fetch manifests, diff against the chunk
    /// store, fetch only missing `/chunk`s.
    ChunkedDelta,
}

/// One completed client catch-up (initial prewarm or post-fault recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpRecord {
    /// The catching-up player.
    pub player: PlayerId,
    /// Retrieval strategy used.
    pub mode: CatchUpMode,
    /// `false` for the initial (prewarm) catch-up at game start, `true`
    /// for a watchdog/fault-triggered recovery catch-up.
    pub recovery: bool,
    /// Time from trigger to the last byte.
    pub latency: SimDuration,
    /// Total catch-up payload bytes received (manifests + chunks/objects).
    pub bytes: u64,
    /// Chunks fetched over the network (`ChunkedDelta` only).
    pub chunks_fetched: u64,
    /// Manifest chunks already held locally — the dedup win
    /// (`ChunkedDelta` only).
    pub chunks_held: u64,
    /// Leaf CDs covered.
    pub cds: usize,
}

/// Exactly-once accounting of the catch-up path: every owed item — a
/// (manifest | chunk | snapshot-object, subscriber) pair — is registered
/// when its Interest is issued and marked off when its Data is consumed.
///
/// This is an *application-level* ledger (the network-level lineage auditor
/// cannot follow catch-up content: a Content-Store hit serves Data with no
/// causal link to the broker's original send). An item re-requested in a
/// later catch-up simply raises its owed count; the books are clean when
/// every entry has `delivered == owed` and nothing was over-delivered.
#[derive(Debug, Default)]
pub struct CatchUpLedger {
    /// (item key, player) → (owed, delivered). Item keys are chunk ids or
    /// FNV hashes of the fetched name.
    entries: BTreeMap<(u64, u32), (u64, u64)>,
    over_delivered: u64,
    written_off: u64,
}

/// Summary of a [`CatchUpLedger`] at audit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpAudit {
    /// Total items owed (Interests issued, less those written off).
    pub owed: u64,
    /// Total items delivered and consumed.
    pub delivered: u64,
    /// Items still owed at audit time.
    pub outstanding: u64,
    /// Deliveries beyond an item's owed count (accounting violations).
    pub over_delivered: u64,
    /// Distinct (item, player) pairs tracked.
    pub entries: u64,
    /// Owed items cancelled because the fetch that asked for them was
    /// superseded before they arrived.
    pub written_off: u64,
}

impl CatchUpAudit {
    /// `true` when every owed item was delivered exactly once per owe.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.outstanding == 0 && self.over_delivered == 0
    }
}

impl CatchUpLedger {
    /// Registers one owed delivery of `item` to `player`.
    pub fn owe(&mut self, item: u64, player: u32) {
        self.entries.entry((item, player)).or_insert((0, 0)).0 += 1;
    }

    /// Marks one delivery of `item` to `player` consumed. Deliveries beyond
    /// the owed count are flagged, never double-credited.
    pub fn deliver(&mut self, item: u64, player: u32) {
        let e = self.entries.entry((item, player)).or_insert((0, 0));
        if e.1 < e.0 {
            e.1 += 1;
        } else {
            self.over_delivered += 1;
        }
    }

    /// Cancels one still-owed delivery of `item` to `player`: the fetch that
    /// asked for it was superseded and nothing will consume its Data. The
    /// debt leaves the books counted, not silently.
    pub(crate) fn write_off(&mut self, item: u64, player: u32) {
        if let Some(e) = self.entries.get_mut(&(item, player)) {
            if e.1 < e.0 {
                e.0 -= 1;
                self.written_off += 1;
            }
        }
    }

    /// Audits the books.
    #[must_use]
    pub fn audit(&self) -> CatchUpAudit {
        let (mut owed, mut delivered) = (0u64, 0u64);
        for &(o, d) in self.entries.values() {
            owed += o;
            delivered += d;
        }
        CatchUpAudit {
            owed,
            delivered,
            outstanding: owed - delivered,
            over_delivered: self.over_delivered,
            entries: self.entries.len() as u64,
            written_off: self.written_off,
        }
    }

    /// Deterministic FNV-1a fingerprint over the full entry table, for
    /// same-seed reproducibility checks.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.entries.len() * 28);
        for (&(item, player), &(o, d)) in &self.entries {
            bytes.extend_from_slice(&item.to_le_bytes());
            bytes.extend_from_slice(&player.to_le_bytes());
            bytes.extend_from_slice(&o.to_le_bytes());
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        gcopss_names::fnv1a(&bytes)
    }
}

/// The shared world state of every simulation: metrics sinks and global
/// experiment bookkeeping.
#[derive(Debug, Default)]
pub struct GameWorld {
    /// Update latency accounting.
    pub metrics: UpdateMetrics,
    /// Exact-delivery bookkeeping for correctness tests (publication id,
    /// receiver) pairs — enabled only in small runs.
    pub delivery_log: Option<HashSet<(u64, u32), FixedState>>,
    /// Duplicate deliveries observed when the delivery log is enabled.
    pub duplicate_deliveries: u64,
    /// Automatic RP splits that occurred.
    pub splits: Vec<SplitRecord>,
    /// Snapshot convergence records (movement experiments).
    pub convergence: Vec<ConvergenceRecord>,
    /// Completed client catch-ups (rejoin experiments).
    pub catchups: Vec<CatchUpRecord>,
    /// Exactly-once catch-up delivery accounting.
    pub catchup_ledger: CatchUpLedger,
    /// Free-form named counts (cache hits, failovers, catch-up retries, …).
    /// Drops are not among them: every drop reason is counted by the
    /// simulator's drop ledger (`Simulator::dropped`).
    pub counters: BTreeMap<&'static str, u64>,
    /// IP multicast group membership (hybrid-G-COPSS; stands in for IGMP).
    pub mcast_groups: crate::hybrid::McastGroups,
    /// Next RP id to allocate when an automatic split creates a new RP.
    pub next_rp_id: u32,
    /// Where each RP lives (for reporting), RP id → node id.
    pub rp_locations: BTreeMap<u32, u32>,
    /// Append-only journal of RP prefix moves `(prefix, new RP id)` in
    /// announcement order, written by the flood originator of every split
    /// handoff and failover. Stands in for a versioned RP-announcement
    /// protocol: a router that was down or partitioned while a flood went
    /// round replays the journal (last write per prefix wins) when its
    /// connectivity is repaired.
    pub rp_moves: Vec<(gcopss_names::Name, u32)>,
}

impl GameWorld {
    /// Creates a world with the given metrics retention mode.
    #[must_use]
    pub fn new(mode: MetricsMode) -> Self {
        Self {
            metrics: UpdateMetrics::new(mode),
            ..Default::default()
        }
    }

    /// Enables exact per-delivery logging (duplicate detection) — only for
    /// small correctness runs.
    #[must_use]
    pub fn with_delivery_log(mut self) -> Self {
        self.delivery_log = Some(HashSet::default());
        self
    }

    /// Records a delivery, including duplicate detection when the delivery
    /// log is enabled.
    pub fn record_delivery(&mut self, id: u64, receiver: PlayerId, at: SimTime) {
        if let Some(log) = &mut self.delivery_log {
            if !log.insert((id, receiver.0)) {
                self.duplicate_deliveries += 1;
                return; // count each (id, receiver) delivery once
            }
        }
        self.metrics.deliver(id, receiver, at);
    }

    /// The one way a client records that the packet it is servicing
    /// delivered publication `id` to `receiver`: the world's metrics
    /// ([`GameWorld::record_delivery`]), the packet's lineage, and the
    /// node's `"delivered"` telemetry counter.
    pub(crate) fn deliver(ctx: &mut Ctx<'_, GPacket, GameWorld>, id: u64, receiver: PlayerId) {
        let now = ctx.now();
        ctx.world().record_delivery(id, receiver, now);
        ctx.lineage_deliver(receiver.0);
        ctx.counter("delivered", 1);
    }

    /// Bumps a named counter.
    pub fn bump(&mut self, key: &'static str) {
        *self.counters.entry(key).or_insert(0) += 1;
    }

    /// Reads a named counter.
    #[must_use]
    pub fn counter(&self, key: &'static str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Allocates a fresh RP id (used by automatic RP splitting) and records
    /// its location.
    pub fn allocate_rp_id(&mut self, node: u32) -> u32 {
        let id = self.next_rp_id;
        self.next_rp_id += 1;
        self.rp_locations.insert(id, node);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_deliver_roundtrip() {
        let mut m = UpdateMetrics::new(MetricsMode::Full);
        m.publish(0, PlayerId(1), SimTime::from_millis(10));
        m.deliver(0, PlayerId(2), SimTime::from_millis(14));
        m.deliver(0, PlayerId(1), SimTime::from_millis(14)); // self, ignored
        m.deliver(99, PlayerId(3), SimTime::from_millis(20)); // unknown
        assert_eq!(m.delivered(), 1);
        assert_eq!(m.stats().mean(), SimDuration::from_millis(4));
        assert_eq!(m.samples_mut().len(), 1);
        assert_eq!(m.publisher_of(0), Some(PlayerId(1)));
    }

    /// Latencies are recorded once, into the histogram; the statistics read
    /// off it equal ones recorded directly over the same samples.
    #[test]
    fn stats_read_off_the_histogram_are_exact() {
        let mut m = UpdateMetrics::new(MetricsMode::StatsOnly);
        assert_eq!(m.stats(), OnlineStats::new(), "empty");
        m.publish(0, PlayerId(0), SimTime::ZERO);
        let mut direct = OnlineStats::new();
        for (p, us) in [(1, 1_500), (2, 3), (3, 250_000), (4, 999_999_937)] {
            m.deliver(0, PlayerId(p), SimTime::from_micros(us));
            direct.record(SimDuration::from_micros(us));
        }
        assert_eq!(m.stats(), direct);
    }

    #[test]
    fn id_gaps_tolerated() {
        let mut m = UpdateMetrics::new(MetricsMode::StatsOnly);
        m.publish(5, PlayerId(0), SimTime::ZERO);
        m.deliver(5, PlayerId(1), SimTime::from_millis(1));
        m.deliver(3, PlayerId(1), SimTime::from_millis(1)); // unknown gap id
        assert_eq!(m.published(), 1);
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn per_publication_mode_aggregates() {
        let mut m = UpdateMetrics::new(MetricsMode::PerPublication);
        m.publish(0, PlayerId(0), SimTime::ZERO);
        m.deliver(0, PlayerId(1), SimTime::from_millis(2));
        m.deliver(0, PlayerId(2), SimTime::from_millis(6));
        let rows = m.per_publication_rows();
        assert_eq!(rows.len(), 1);
        let (id, min, mean, max) = rows[0];
        assert_eq!(id, 0);
        assert_eq!(min, SimDuration::from_millis(2));
        assert_eq!(mean, SimDuration::from_millis(4));
        assert_eq!(max, SimDuration::from_millis(6));
        // Full samples not retained in this mode.
        assert_eq!(m.samples_mut().len(), 0);
    }

    #[test]
    fn stats_only_mode_keeps_aggregates() {
        let mut m = UpdateMetrics::new(MetricsMode::StatsOnly);
        m.publish(0, PlayerId(0), SimTime::ZERO);
        for i in 1..=10 {
            m.deliver(0, PlayerId(i), SimTime::from_millis(u64::from(i)));
        }
        assert_eq!(m.delivered(), 10);
        assert_eq!(m.stats().count(), 10);
        assert!(m.per_publication_rows().is_empty());
        // The log-scale histogram is on even in StatsOnly mode.
        assert_eq!(m.latency_hist().count(), 10);
        assert!(m.latency_hist().quantile(0.5) >= 1_000_000);
    }

    #[test]
    fn world_duplicate_detection() {
        let mut w = GameWorld::new(MetricsMode::Full).with_delivery_log();
        w.metrics.publish(0, PlayerId(0), SimTime::ZERO);
        w.record_delivery(0, PlayerId(1), SimTime::from_millis(1));
        w.record_delivery(0, PlayerId(1), SimTime::from_millis(2));
        assert_eq!(w.duplicate_deliveries, 1);
        assert_eq!(w.metrics.delivered(), 1, "duplicate not double counted");
    }

    #[test]
    fn catchup_ledger_accounting() {
        let mut l = CatchUpLedger::default();
        l.owe(10, 1);
        l.owe(11, 1);
        let mid = l.audit();
        assert_eq!(mid.owed, 2);
        assert_eq!(mid.outstanding, 2);
        assert!(!mid.clean());
        l.deliver(10, 1);
        l.deliver(11, 1);
        assert!(l.audit().clean());
        // Re-owing the same item later is fine; the delivery squares it.
        l.owe(10, 1);
        assert!(!l.audit().clean());
        l.deliver(10, 1);
        assert!(l.audit().clean());
        // A written-off debt leaves the books; it cannot go below zero.
        l.owe(12, 1);
        l.write_off(12, 1);
        l.write_off(12, 1);
        assert!(l.audit().clean());
        assert_eq!(l.audit().written_off, 1);
        // A delivery past the owed count is flagged, not credited.
        l.deliver(10, 1);
        let a = l.audit();
        assert_eq!(a.over_delivered, 1);
        assert!(!a.clean());
        assert_ne!(l.fingerprint(), CatchUpLedger::default().fingerprint());
    }

    #[test]
    fn counters() {
        let mut w = GameWorld::default();
        w.bump("x");
        w.bump("x");
        assert_eq!(w.counter("x"), 2);
        assert_eq!(w.counter("y"), 0);
    }
}
