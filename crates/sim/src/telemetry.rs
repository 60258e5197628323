//! Simulator-wide telemetry: a typed metrics registry and a bounded,
//! deterministic packet-trace journal.
//!
//! The paper's evaluation (§V) is an observability exercise — per-hop
//! processing and queueing latency at RPs vs. game servers, aggregate
//! network load per solution. This module is the layer that records those
//! quantities as the engine runs, in the style of the per-node statistics
//! modules that CCN simulators (ndnSIM, inbaverSim) ship as first-class
//! subsystems:
//!
//! * [`LogHistogram`] — power-of-two-bucket histograms giving
//!   [`OnlineStats`](crate::metrics::OnlineStats)-style summaries plus
//!   p50/p95/p99 in O(1) memory, so huge runs need not keep every sample.
//! * [`Telemetry`] — the registry: per-node packet/byte counters, service
//!   and queueing-delay histograms, per-directed-link packet/byte counters,
//!   and custom `(node, metric)`-keyed counters, gauges and histograms that
//!   protocol behaviors feed through [`Ctx`](crate::Ctx).
//! * A bounded, optionally-sampled journal of [`TraceRecord`]s
//!   (enqueue/dequeue/send/deliver/drop), exportable as Chrome trace-event
//!   JSON that Perfetto (<https://ui.perfetto.dev>) renders directly.
//!
//! Everything here is deterministic: metrics only depend on the event
//! sequence, custom metrics use ordered maps, and the journal is an
//! append-only log with a deterministic sampling counter — two runs with
//! the same seed produce byte-identical exports (fingerprints included).
//!
//! Telemetry is off by default and the disabled path is a single branch on
//! [`Telemetry::is_enabled`]; the benchmark's `sim.telemetry.added_s` layer
//! probe (`benchmark/README.md`) measures what switching it on costs.

use crate::json::Json;
use crate::{fnv1a, SimDuration, SimTime, Topology, FNV1A_OFFSET};
use std::collections::BTreeMap;

/// Number of buckets in a [`LogHistogram`]: one for zero plus one per
/// power of two up to `u64::MAX`.
const BUCKETS: usize = 65;

/// A fixed-size histogram over `u64` values with power-of-two buckets.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`. Alongside the buckets it keeps the exact count,
/// sum (as `u128`, immune to overflow), min and max, so means are exact
/// and only quantiles are bucket-resolution estimates (reported as the
/// upper bound of the bucket holding the ceil-rank sample, clamped to the
/// observed max — at most a 2× overestimate, exact min/max at the ends).
///
/// # Example
///
/// ```
/// # use gcopss_sim::telemetry::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.mean(), 500);
/// let p50 = h.quantile(0.5);
/// assert!((500..=1000).contains(&p50), "p50={p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `i`.
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The inclusive lower bound of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        if i <= 1 {
            i as u64
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration, in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values (cannot overflow in practice).
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean (zero when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// Smallest recorded value, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile estimate (ceil-rank, the convention shared with
    /// [`LatencySamples`](crate::metrics::LatencySamples)): the upper bound
    /// of the bucket containing the `⌈q·n⌉`-th smallest sample, clamped to
    /// the observed min/max. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Renders a compact JSON summary: exact count/sum/mean/min/max,
    /// bucket-resolution p50/p95/p99, and the non-empty buckets as
    /// `[lo, hi, n]` triples.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum.min(u128::from(u64::MAX)) as u64)),
            ("mean", Json::from(self.mean())),
            ("min", opt(self.min())),
            ("max", opt(self.max())),
            ("p50", Json::from(self.quantile(0.50))),
            ("p95", Json::from(self.quantile(0.95))),
            ("p99", Json::from(self.quantile(0.99))),
            (
                "buckets",
                Json::arr(self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(
                    |(i, &n)| {
                        Json::arr([
                            Json::from(Self::bucket_lo(i)),
                            Json::from(Self::bucket_hi(i)),
                            Json::from(n),
                        ])
                    },
                )),
            ),
        ])
    }
}

/// The kind of a journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet entered a node's service queue.
    Enqueue,
    /// A packet reached the head of the queue and began service.
    Dequeue,
    /// A packet was handed to a link toward a neighbor.
    Send,
    /// A packet finished service and was delivered to the behavior.
    Deliver,
    /// A behavior discarded a packet (no route, no subscribers, …).
    Drop,
    /// A behavior-defined marker (splits, handoffs, …).
    Mark,
}

impl TraceEvent {
    /// Stable lowercase name, used in exports and fingerprints.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEvent::Enqueue => "enq",
            TraceEvent::Dequeue => "deq",
            TraceEvent::Send => "send",
            TraceEvent::Deliver => "deliver",
            TraceEvent::Drop => "drop",
            TraceEvent::Mark => "mark",
        }
    }
}

/// One journal entry: what happened, where, when, to which class of packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub ts: SimTime,
    /// The node the event happened at.
    pub node: u32,
    /// What happened.
    pub event: TraceEvent,
    /// The packet class (from the registered classifier, or a behavior tag).
    pub class: &'static str,
    /// Wire size in bytes (0 when not applicable).
    pub size: u32,
    /// The peer node for [`TraceEvent::Send`] (receiver), else `u32::MAX`.
    pub peer: u32,
    /// Span length in nanoseconds — the service time for
    /// [`TraceEvent::Dequeue`] records, 0 otherwise.
    pub dur_ns: u64,
}

/// Configuration of the telemetry subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Maximum journal entries kept; once full, further records are counted
    /// as dropped (the registry keeps counting regardless). `0` disables
    /// the journal while keeping the metrics registry.
    pub journal_capacity: usize,
    /// Record every `n`-th journal candidate (1 = record all). Sampling is
    /// a deterministic modulo counter, so equal-seed runs sample equally.
    pub journal_sample: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            journal_capacity: 65_536,
            journal_sample: 1,
        }
    }
}

impl TelemetryConfig {
    /// The metrics registry without the journal: counters, gauges and
    /// histograms count, no packet-trace record is kept — for runs that
    /// only read counters or feed the time-series sampler.
    #[must_use]
    pub fn counters_only() -> Self {
        Self {
            journal_capacity: 0,
            journal_sample: 1,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct NodeStats {
    pkts_in: u64,
    bytes_in: u64,
    pkts_out: u64,
    bytes_out: u64,
    service_ns: LogHistogram,
    queueing_ns: LogHistogram,
}

/// The telemetry registry + journal owned by a
/// [`Simulator`](crate::Simulator).
///
/// Created disabled (all record paths reduce to one branch); enabled via
/// [`Simulator::enable_telemetry`](crate::Simulator::enable_telemetry).
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    cfg: TelemetryConfig,
    nodes: Vec<NodeStats>,
    /// Per directed link: index `link*2 + dir`.
    link_pkts: Vec<u64>,
    link_bytes: Vec<u64>,
    counters: BTreeMap<(&'static str, u32), u64>,
    gauges: BTreeMap<(&'static str, u32), u64>,
    histograms: BTreeMap<(&'static str, u32), LogHistogram>,
    journal: Vec<TraceRecord>,
    journal_seen: u64,
    journal_dropped: u64,
}

impl Telemetry {
    /// Creates a disabled registry sized for `nodes` nodes and `links`
    /// (bidirectional) links.
    #[must_use]
    pub fn disabled(nodes: usize, links: usize) -> Self {
        Self {
            enabled: false,
            cfg: TelemetryConfig::default(),
            nodes: vec![NodeStats::default(); nodes],
            link_pkts: vec![0; links * 2],
            link_bytes: vec![0; links * 2],
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            journal: Vec::new(),
            journal_seen: 0,
            journal_dropped: 0,
        }
    }

    /// Switches recording on with the given configuration.
    pub fn enable(&mut self, cfg: TelemetryConfig) {
        self.enabled = true;
        self.cfg = cfg;
    }

    /// Whether recording is active.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Bumps the custom counter `metric` on `node` by `delta`.
    #[inline]
    pub fn counter(&mut self, node: u32, metric: &'static str, delta: u64) {
        if self.enabled {
            *self.counters.entry((metric, node)).or_insert(0) += delta;
        }
    }

    /// Sets the gauge `metric` on `node` to `value` (last write wins).
    #[inline]
    pub fn gauge(&mut self, node: u32, metric: &'static str, value: u64) {
        if self.enabled {
            self.gauges.insert((metric, node), value);
        }
    }

    /// Records `value` into the custom histogram `metric` on `node`.
    #[inline]
    pub fn observe(&mut self, node: u32, metric: &'static str, value: u64) {
        if self.enabled {
            self.histograms
                .entry((metric, node))
                .or_default()
                .record(value);
        }
    }

    /// Reads back a custom counter (0 when never bumped).
    #[must_use]
    pub fn counter_value(&self, node: u32, metric: &'static str) -> u64 {
        self.counters.get(&(metric, node)).copied().unwrap_or(0)
    }

    /// Sum of a custom counter across all nodes.
    #[must_use]
    pub fn counter_total(&self, metric: &'static str) -> u64 {
        self.counters
            .iter()
            .filter(|((m, _), _)| *m == metric)
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-node values of a custom counter, in node-id order (nodes that
    /// never bumped it are omitted).
    #[must_use]
    pub fn counter_by_node(&self, metric: &'static str) -> Vec<(u32, u64)> {
        self.counters
            .range((metric, 0u32)..=(metric, u32::MAX))
            .map(|(&(_, node), &v)| (node, v))
            .collect()
    }

    /// Sum of a gauge's last-written values across all nodes.
    #[must_use]
    pub fn gauge_total(&self, metric: &'static str) -> u64 {
        self.gauges
            .range((metric, 0u32)..=(metric, u32::MAX))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Appends a journal record, honoring sampling and the capacity bound.
    #[inline]
    pub fn journal(&mut self, rec: TraceRecord) {
        if !self.enabled || self.cfg.journal_capacity == 0 {
            return;
        }
        self.journal_seen += 1;
        if self.cfg.journal_sample > 1 && self.journal_seen % self.cfg.journal_sample != 1 {
            return;
        }
        if self.journal.len() >= self.cfg.journal_capacity {
            self.journal_dropped += 1;
        } else {
            self.journal.push(rec);
        }
    }

    #[inline]
    pub(crate) fn packet_in(&mut self, node: u32, size: u32) {
        let st = &mut self.nodes[node as usize];
        st.pkts_in += 1;
        st.bytes_in += u64::from(size);
    }

    #[inline]
    pub(crate) fn packet_out(&mut self, node: u32, link_dir: usize, size: u32) {
        let st = &mut self.nodes[node as usize];
        st.pkts_out += 1;
        st.bytes_out += u64::from(size);
        self.link_pkts[link_dir] += 1;
        self.link_bytes[link_dir] += u64::from(size);
    }

    #[inline]
    pub(crate) fn service_started(&mut self, node: u32, wait: SimDuration, service: SimDuration) {
        let st = &mut self.nodes[node as usize];
        st.queueing_ns.record_duration(wait);
        st.service_ns.record_duration(service);
    }

    /// Bytes recorded on directed link index `link*2 + dir` (telemetry's own
    /// accounting — reconciles with the engine's aggregate load).
    #[must_use]
    pub fn link_bytes_total(&self) -> u64 {
        self.link_bytes.iter().sum()
    }

    /// The journal entries recorded so far.
    #[must_use]
    pub fn journal_records(&self) -> &[TraceRecord] {
        &self.journal
    }

    /// `(candidates seen, records dropped at capacity)`.
    #[must_use]
    pub fn journal_pressure(&self) -> (u64, u64) {
        (self.journal_seen, self.journal_dropped)
    }

    /// FNV-1a 64-bit fingerprint over every journal record. Two runs of the
    /// same seed must produce equal fingerprints — the determinism check
    /// used by tests and experiment binaries.
    #[must_use]
    pub fn journal_fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut eat = |bytes: &[u8]| fnv1a(&mut h, bytes);
        for r in &self.journal {
            eat(&r.ts.as_nanos().to_le_bytes());
            eat(&r.node.to_le_bytes());
            eat(r.event.as_str().as_bytes());
            eat(r.class.as_bytes());
            eat(&r.size.to_le_bytes());
            eat(&r.peer.to_le_bytes());
            eat(&r.dur_ns.to_le_bytes());
        }
        h
    }

    /// Per-node/per-link/custom-metric summary as ordered JSON.
    ///
    /// `engine_node` supplies `(processed, peak_queue, busy_ns)` per node
    /// from the engine's own accounting; `now` converts busy time into a
    /// busy fraction. Nodes with no traffic at all are omitted to keep
    /// exports compact.
    #[must_use]
    pub fn summary_json(
        &self,
        topo: &Topology,
        engine_node: &dyn Fn(u32) -> (u64, usize, u64),
        now: SimTime,
    ) -> Json {
        let now_ns = now.as_nanos();
        let mut nodes = Vec::new();
        for (i, st) in self.nodes.iter().enumerate() {
            let id = i as u32;
            let (processed, peak_queue, busy_ns) = engine_node(id);
            if st.pkts_in == 0 && st.pkts_out == 0 && processed == 0 {
                continue;
            }
            let busy_frac = if now_ns == 0 {
                0.0
            } else {
                busy_ns as f64 / now_ns as f64
            };
            nodes.push(Json::obj([
                ("id", Json::from(id)),
                ("name", Json::str(topo.node_name(crate::NodeId(id)))),
                (
                    "kind",
                    Json::str(format!("{:?}", topo.node_kind(crate::NodeId(id))).to_lowercase()),
                ),
                ("pkts_in", Json::from(st.pkts_in)),
                ("bytes_in", Json::from(st.bytes_in)),
                ("pkts_out", Json::from(st.pkts_out)),
                ("bytes_out", Json::from(st.bytes_out)),
                ("processed", Json::from(processed)),
                ("peak_queue", Json::from(peak_queue)),
                ("busy_frac", Json::from(busy_frac)),
                ("service_ns", st.service_ns.to_json()),
                ("queueing_ns", st.queueing_ns.to_json()),
            ]));
        }
        let mut links = Vec::new();
        for l in 0..topo.link_count() {
            let (pf, pb) = (self.link_pkts[l * 2], self.link_pkts[l * 2 + 1]);
            let (bf, bb) = (self.link_bytes[l * 2], self.link_bytes[l * 2 + 1]);
            if pf == 0 && pb == 0 {
                continue;
            }
            let (a, b) = topo.link_endpoints(crate::LinkId(l as u32));
            links.push(Json::obj([
                ("id", Json::from(l)),
                ("a", Json::from(a.index())),
                ("b", Json::from(b.index())),
                ("pkts_ab", Json::from(pf)),
                ("bytes_ab", Json::from(bf)),
                ("pkts_ba", Json::from(pb)),
                ("bytes_ba", Json::from(bb)),
            ]));
        }
        let kv = |((metric, node), v): ((&'static str, u32), u64)| {
            Json::obj([
                ("node", Json::from(node)),
                ("metric", Json::str(metric)),
                ("value", Json::from(v)),
            ])
        };
        let (seen, dropped) = self.journal_pressure();
        Json::obj([
            ("now_ms", Json::from(now.as_nanos() as f64 / 1e6)),
            ("link_bytes_total", Json::from(self.link_bytes_total())),
            ("nodes", Json::Array(nodes)),
            ("links", Json::Array(links)),
            (
                "counters",
                Json::arr(self.counters.iter().map(|(&k, &v)| kv((k, v)))),
            ),
            (
                "gauges",
                Json::arr(self.gauges.iter().map(|(&k, &v)| kv((k, v)))),
            ),
            (
                "histograms",
                Json::arr(self.histograms.iter().map(|(&(metric, node), h)| {
                    Json::obj([
                        ("node", Json::from(node)),
                        ("metric", Json::str(metric)),
                        ("hist", h.to_json()),
                    ])
                })),
            ),
            (
                "journal",
                Json::obj([
                    ("recorded", Json::from(self.journal.len())),
                    ("seen", Json::from(seen)),
                    ("dropped", Json::from(dropped)),
                    ("sample", Json::from(self.cfg.journal_sample)),
                    (
                        "fingerprint",
                        Json::str(format!("{:016x}", self.journal_fingerprint())),
                    ),
                ]),
            ),
        ])
    }

    /// Converts the journal into Chrome trace-event JSON objects
    /// (<https://ui.perfetto.dev> opens a `{"traceEvents": [...]}` file
    /// directly). `pid` distinguishes runs when several journals are merged
    /// into one file; node ids become thread ids. Dequeue records become
    /// complete (`ph:"X"`) spans covering the service time; everything else
    /// is an instant event.
    #[must_use]
    pub fn trace_events_json(&self, topo: &Topology, pid: u64) -> Vec<Json> {
        let mut out = Vec::with_capacity(self.journal.len() + self.nodes.len());
        // Thread-name metadata so Perfetto shows node names, not bare tids.
        let mut named = vec![false; self.nodes.len()];
        for r in &self.journal {
            if !named[r.node as usize] {
                named[r.node as usize] = true;
                out.push(Json::obj([
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::from(pid)),
                    ("tid", Json::from(r.node)),
                    (
                        "args",
                        Json::obj([(
                            "name",
                            Json::str(topo.node_name(crate::NodeId(r.node))),
                        )]),
                    ),
                ]));
            }
            let ts_us = r.ts.as_nanos() as f64 / 1e3;
            let mut ev = vec![
                ("name".to_string(), Json::str(r.class)),
                ("cat".to_string(), Json::str(r.event.as_str())),
                ("pid".to_string(), Json::from(pid)),
                ("tid".to_string(), Json::from(r.node)),
                ("ts".to_string(), Json::from(ts_us)),
            ];
            if r.event == TraceEvent::Dequeue {
                ev.push(("ph".to_string(), Json::str("X")));
                ev.push(("dur".to_string(), Json::from(r.dur_ns as f64 / 1e3)));
            } else {
                ev.push(("ph".to_string(), Json::str("i")));
                ev.push(("s".to_string(), Json::str("t")));
            }
            let mut args = vec![("size".to_string(), Json::from(r.size))];
            if r.peer != u32::MAX {
                args.push(("peer".to_string(), Json::from(r.peer)));
            }
            ev.push(("args".to_string(), Json::Object(args)));
            out.push(Json::Object(ev));
        }
        out
    }
}

/// A packaged per-run telemetry export: the summary, the Chrome trace
/// events, and the journal fingerprint. Experiment binaries collect one per
/// simulated run and write them into a unified `results/telemetry_*.json`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Run label (e.g. `"gcopss-3rp"`).
    pub label: String,
    /// Output of [`Telemetry::summary_json`].
    pub summary: Json,
    /// Output of [`Telemetry::trace_events_json`].
    pub trace_events: Vec<Json>,
    /// Output of [`Telemetry::journal_fingerprint`].
    pub fingerprint: u64,
}

/// Configuration of the periodic time-series sampler
/// ([`Simulator::enable_timeseries`](crate::Simulator::enable_timeseries)).
#[derive(Debug, Clone)]
pub struct TimeSeriesConfig {
    /// Snapshot period in simulated time (first frame at `tick`).
    pub tick: SimDuration,
    /// Counters exported as cross-node totals per frame.
    pub counters: Vec<&'static str>,
    /// Gauges exported as cross-node totals per frame.
    pub gauges: Vec<&'static str>,
    /// Counters exported with a per-node breakdown per frame (e.g.
    /// `"rp-served"` for per-RP load over time).
    pub per_node: Vec<&'static str>,
    /// Maximum frames captured; sampling stops past this bound.
    pub max_frames: usize,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        Self {
            tick: SimDuration::from_secs(1),
            counters: vec!["delivered", "drop"],
            gauges: Vec::new(),
            per_node: Vec::new(),
            max_frames: 4096,
        }
    }
}

/// Periodic snapshots of counters, gauges and queue depths, captured by
/// the engine at a fixed simulated-time tick. Frames are plain ordered
/// JSON, so same-seed runs export byte-identical series.
#[derive(Debug)]
pub struct TimeSeries {
    cfg: TimeSeriesConfig,
    next: SimTime,
    frames: Vec<Json>,
}

impl TimeSeries {
    /// Creates an empty series; the first frame is due at `cfg.tick`.
    #[must_use]
    pub fn new(cfg: TimeSeriesConfig) -> Self {
        let next = SimTime::ZERO + cfg.tick;
        Self { cfg, next, frames: Vec::new() }
    }

    /// When the next frame is due, or `None` once the frame bound is hit.
    #[must_use]
    pub fn next_frame_at(&self) -> Option<SimTime> {
        (self.frames.len() < self.cfg.max_frames).then_some(self.next)
    }

    /// Captures one frame at `at` from the registry plus the engine's
    /// per-node service-queue depths, embedding a `"streams"` section (a
    /// [`crate::MetricStreams`] snapshot) when given one — the engine's
    /// unified sampler pass routes live stream windows into the same frames
    /// instead of a second export path. Frames without a snapshot keep the
    /// exact pre-stream key set, so stream-less runs stay byte-identical.
    pub fn capture_with(
        &mut self,
        at: SimTime,
        telemetry: &Telemetry,
        queue_depths: impl Iterator<Item = usize>,
        streams: Option<Json>,
    ) {
        let (mut queue_sum, mut queue_max) = (0u64, 0u64);
        for q in queue_depths {
            queue_sum += q as u64;
            queue_max = queue_max.max(q as u64);
        }
        let counters = self
            .cfg
            .counters
            .iter()
            .map(|&m| (m, Json::from(telemetry.counter_total(m))))
            .collect::<Vec<_>>();
        let gauges = self
            .cfg
            .gauges
            .iter()
            .map(|&m| (m, Json::from(telemetry.gauge_total(m))))
            .collect::<Vec<_>>();
        let per_node = self
            .cfg
            .per_node
            .iter()
            .map(|&m| {
                let rows = telemetry
                    .counter_by_node(m)
                    .into_iter()
                    .map(|(node, v)| Json::Array(vec![Json::from(node), Json::from(v)]))
                    .collect();
                (m, Json::Array(rows))
            })
            .collect::<Vec<_>>();
        let mut frame = vec![
            ("t_ns".to_string(), Json::from(at.as_nanos())),
            ("counters".to_string(), Json::obj(counters)),
            ("gauges".to_string(), Json::obj(gauges)),
            ("per_node".to_string(), Json::obj(per_node)),
            ("queue_sum".to_string(), Json::from(queue_sum)),
            ("queue_max".to_string(), Json::from(queue_max)),
        ];
        if let Some(s) = streams {
            frame.push(("streams".to_string(), s));
        }
        self.frames.push(Json::Object(frame));
        self.next = at + self.cfg.tick;
    }

    /// The whole series as ordered JSON: tick, frame bound, frames.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tick_ns", Json::from(self.cfg.tick.as_nanos())),
            ("max_frames", Json::from(self.cfg.max_frames)),
            ("frames", Json::Array(self.frames.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_lo(2), 2);
        assert_eq!(LogHistogram::bucket_hi(2), 3);
        assert_eq!(LogHistogram::bucket_lo(10), 512);
        assert_eq!(LogHistogram::bucket_hi(10), 1023);
    }

    #[test]
    fn histogram_summary_is_exact_where_it_can_be() {
        let mut h = LogHistogram::new();
        for v in [0u64, 5, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1115);
        assert_eq!(h.mean(), 223);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        // Quantiles are bucket estimates but clamped to observed extremes.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_quantile_within_bucket_resolution() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 = 500; estimate must be in [500, 2*500).
        let p50 = h.quantile(0.5);
        assert!((500..1000).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 7);
            }
            both.record(if v % 2 == 0 { v * 3 } else { v * 7 });
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn histogram_empty_json() {
        let j = LogHistogram::new().to_json().to_string();
        assert!(j.contains("\"count\":0"));
        assert!(j.contains("\"min\":null"));
        assert!(j.contains("\"buckets\":[]"));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut t = Telemetry::disabled(2, 1);
        t.counter(0, "x", 5);
        t.observe(0, "y", 10);
        t.journal(TraceRecord {
            ts: SimTime::ZERO,
            node: 0,
            event: TraceEvent::Drop,
            class: "p",
            size: 1,
            peer: u32::MAX,
            dur_ns: 0,
        });
        assert_eq!(t.counter_value(0, "x"), 0);
        assert!(t.journal_records().is_empty());
    }

    #[test]
    fn journal_capacity_and_sampling() {
        let mut t = Telemetry::disabled(1, 0);
        t.enable(TelemetryConfig {
            journal_capacity: 3,
            journal_sample: 2,
        });
        for i in 0..10u64 {
            t.journal(TraceRecord {
                ts: SimTime::from_nanos(i),
                node: 0,
                event: TraceEvent::Enqueue,
                class: "p",
                size: 1,
                peer: u32::MAX,
                dur_ns: 0,
            });
        }
        // Every 2nd candidate → 5 sampled; capacity 3 → 2 dropped.
        assert_eq!(t.journal_records().len(), 3);
        assert_eq!(t.journal_pressure(), (10, 2));
        // Sampling keeps candidates 1, 3, 5 (1-indexed), deterministically.
        let kept: Vec<u64> = t.journal_records().iter().map(|r| r.ts.as_nanos()).collect();
        assert_eq!(kept, vec![0, 2, 4]);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let rec = |ts: u64, class: &'static str| TraceRecord {
            ts: SimTime::from_nanos(ts),
            node: 0,
            event: TraceEvent::Send,
            class,
            size: 10,
            peer: 1,
            dur_ns: 0,
        };
        let mut a = Telemetry::disabled(2, 1);
        a.enable(TelemetryConfig::default());
        a.journal(rec(1, "x"));
        a.journal(rec(2, "y"));
        let mut b = Telemetry::disabled(2, 1);
        b.enable(TelemetryConfig::default());
        b.journal(rec(1, "x"));
        b.journal(rec(2, "y"));
        assert_eq!(a.journal_fingerprint(), b.journal_fingerprint());
        let mut c = Telemetry::disabled(2, 1);
        c.enable(TelemetryConfig::default());
        c.journal(rec(2, "y"));
        c.journal(rec(1, "x"));
        assert_ne!(a.journal_fingerprint(), c.journal_fingerprint());
    }

    #[test]
    fn counters_are_keyed_by_node_and_metric() {
        let mut t = Telemetry::disabled(3, 0);
        t.enable(TelemetryConfig::default());
        t.counter(0, "drops", 1);
        t.counter(2, "drops", 4);
        t.counter(0, "drops", 2);
        assert_eq!(t.counter_value(0, "drops"), 3);
        assert_eq!(t.counter_value(1, "drops"), 0);
        assert_eq!(t.counter_total("drops"), 7);
    }
}
