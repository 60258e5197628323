//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::fault::FaultState;
use crate::json::Json;
use crate::lineage::{LineageConfig, LineageLog, NO_SPAN};
use crate::overload::{Admission, OverloadConfig, OverloadState};
use crate::prof;
use crate::stream::{MetricStreams, StreamConfig};
use crate::telemetry::{
    Telemetry, TelemetryConfig, TelemetryReport, TimeSeries, TimeSeriesConfig, TraceEvent,
    TraceRecord,
};
use crate::{
    FaultEvent, FaultNotice, FaultPlan, LinkId, NodeId, RoutingTable, SimDuration, SimTime,
    Topology,
};

/// What the engine can ask about a packet of the protocol layer's type `P`:
/// the one description telemetry, lineage and overload control all read,
/// registered with [`Simulator::set_packet_meta`] (e.g. from the four
/// `GPacket` classifiers).
///
/// The default is inert: every packet is class `"pkt"`, untraced, control
/// priority and supersedes nothing, so an unregistered simulator records no
/// span and reorders nothing even with lineage or priorities switched on.
pub struct PacketMeta<P> {
    /// Stable class name tagging the packet's telemetry records.
    pub kind: fn(&P) -> &'static str,
    /// The packet's lineage id; `None` for traffic that is not traced.
    pub lineage_id: fn(&P) -> Option<u64>,
    /// Priority class for overload control: 0 = control plane, larger =
    /// bulk.
    pub priority: fn(&P) -> u8,
    /// Supersede key: an arrival makes queued packets with an equal key
    /// stale (a newer position update of the same object).
    pub supersede_key: fn(&P) -> Option<u64>,
}

impl<P> Default for PacketMeta<P> {
    fn default() -> Self {
        Self {
            kind: |_| "pkt",
            lineage_id: |_| None,
            priority: |_| 0,
            supersede_key: |_| None,
        }
    }
}

/// Why the engine itself (not a behavior) dropped a packet. The tag
/// ([`EngineDrop::as_str`]) keys the drop ledger ([`Simulator::dropped`])
/// and names the per-reason telemetry counter, the journal record's class
/// and the lineage drop reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineDrop {
    /// Fault injection: the packet died on a down or lossy link.
    LinkLost,
    /// Fault injection: the packet was queued at, or arrived at, a crashed
    /// node.
    NodeLost,
    /// Overload control: rejected by, or evicted from, a full bounded
    /// service queue.
    QueueFull,
    /// Overload control: shed by the CoDel AQM at dequeue.
    AqmShed,
    /// Overload control: a queued update evicted by a newer arrival with
    /// the same supersede key.
    StaleSuperseded,
}

impl EngineDrop {
    /// Every reason.
    pub const ALL: [Self; 5] = [
        Self::LinkLost,
        Self::NodeLost,
        Self::QueueFull,
        Self::AqmShed,
        Self::StaleSuperseded,
    ];

    /// The drop-reason tag.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Self::LinkLost => "link-lost",
            Self::NodeLost => "node-lost",
            Self::QueueFull => "queue-full",
            Self::AqmShed => "aqm-shed",
            Self::StaleSuperseded => "stale-superseded",
        }
    }
}

/// The simulator's one drop ledger: items dropped so far per reason tag,
/// by the engine ([`EngineDrop`]) and by behaviors ([`Ctx::discard`] and
/// its two twins) alike. Always on — it counts with every observer off —
/// and empty until the first drop, so a run that drops nothing allocates
/// nothing for it. A handful of reasons ever fire in one run, so a scan
/// beats a map.
#[derive(Default)]
struct DropLedger(Vec<(&'static str, u64)>);

impl DropLedger {
    fn add(&mut self, reason: &'static str, n: u64) {
        match self.0.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, count)) => *count += n,
            None => self.0.push((reason, n)),
        }
    }

    fn get(&self, reason: &str) -> u64 {
        let found = self.0.iter().find(|(r, _)| *r == reason);
        found.map_or(0, |&(_, n)| n)
    }
}

/// The behavior of one node in the simulated network.
///
/// A behavior is a state machine driven by the [`Simulator`]: it receives
/// packets (after they waited in the node's FIFO service queue) and timer
/// callbacks, and reacts by sending packets to neighbors, scheduling timers,
/// or mutating the shared world state `W`.
///
/// `P` is the packet type (defined by the protocol layer on top, e.g. the
/// G-COPSS packet enum); `W` is experiment-defined shared state (metrics
/// sinks, global tables).
pub trait NodeBehavior<P, W> {
    /// Called once at simulation start (time zero), in node-id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, P, W>) {
        let _ = ctx;
    }

    /// Called when a packet reaches the head of this node's service queue.
    ///
    /// `from` is the neighbor that sent the packet, or `None` for packets
    /// injected from outside the network (trace sources, local apps).
    fn on_packet(&mut self, ctx: &mut Ctx<'_, P, W>, from: Option<NodeId>, pkt: P);

    /// Called when a timer scheduled with [`Ctx::schedule`] fires.
    ///
    /// Timers scheduled before a node crash are discarded: a restarted node
    /// only sees timers it armed after its [`FaultNotice::Restarted`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, P, W>, key: u64) {
        let _ = (ctx, key);
    }

    /// Called when fault injection touches this node: an adjacent link (or
    /// neighbor) failed or recovered, or this node itself just restarted
    /// after a crash. Only invoked on live nodes, after routing has been
    /// recomputed over the surviving subgraph. The default does nothing —
    /// behaviors without a recovery story are unaffected.
    fn on_fault(&mut self, ctx: &mut Ctx<'_, P, W>, notice: FaultNotice) {
        let _ = (ctx, notice);
    }

    /// Per-packet service time of this node's single-server queue.
    ///
    /// This is where the paper's calibration constants live: ~3.3 ms at an
    /// RP, ~6 ms at a game server, tens of microseconds at an IP router.
    /// The default is zero (infinitely fast node).
    fn service_time(&self, pkt: &P) -> SimDuration {
        let _ = pkt;
        SimDuration::ZERO
    }
}

/// The context handed to a [`NodeBehavior`] callback: the node's window onto
/// the simulation.
///
/// All effects requested through the context (sends, timers) are applied by
/// the engine after the callback returns.
pub struct Ctx<'a, P, W> {
    now: SimTime,
    node: NodeId,
    world: &'a mut W,
    topology: &'a Topology,
    routing: &'a RoutingTable,
    queue_len: usize,
    telemetry: &'a mut Telemetry,
    streams: &'a mut MetricStreams,
    lineage: &'a mut LineageLog,
    drops: &'a mut DropLedger,
    /// Lineage span of the packet currently being serviced ([`NO_SPAN`]
    /// in timer/start/fault callbacks): the causal parent of every effect
    /// the behavior requests.
    cur_span: u32,
    /// Whether the packet currently being serviced carries a congestion
    /// mark (sojourn overran the overload config's threshold at this or an
    /// upstream node). Always `false` outside packet service.
    marked: bool,
    sends: Vec<(NodeId, P, u32)>,
    timers: Vec<(SimDuration, u64)>,
    extra_busy: SimDuration,
}

impl<P, W> Ctx<'_, P, W> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose behavior is running.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mutable access to the shared world state.
    pub fn world(&mut self) -> &mut W {
        self.world
    }

    /// The network topology (read-only).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The precomputed shortest-path routing table.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        self.routing
    }

    /// The number of packets currently waiting in this node's service queue
    /// (not counting the one being processed). This is the quantity the
    /// G-COPSS RP monitors to trigger automatic rebalancing (§IV-B).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue_len
    }

    /// Whether the packet currently being serviced carries a congestion
    /// mark: its sojourn through this or an upstream node exceeded the
    /// installed overload config's `mark_sojourn` threshold. Always `false`
    /// in timer/start/fault callbacks and without overload control.
    ///
    /// Clients use this as the feedback signal for multiplicative rate
    /// reduction of their publish cadence.
    #[must_use]
    #[inline]
    pub fn congestion_marked(&self) -> bool {
        self.marked
    }

    /// Sends `pkt` of `size_bytes` to a *neighboring* node.
    ///
    /// The packet experiences the link's serialization delay (if the link
    /// has finite bandwidth) plus its propagation delay, then enters the
    /// neighbor's service queue.
    ///
    /// # Panics
    ///
    /// The engine panics when applying the effect if `to` is not adjacent to
    /// this node.
    pub fn send(&mut self, to: NodeId, pkt: P, size_bytes: u32) {
        self.sends.push((to, pkt, size_bytes));
    }

    /// Sends `pkt` one hop along the shortest path toward `dst`.
    ///
    /// Convenience for behaviors that forward by destination (the IP
    /// baseline). Does nothing if `dst` is this node or unreachable;
    /// returns the chosen next hop.
    pub fn send_toward(&mut self, dst: NodeId, pkt: P, size_bytes: u32) -> Option<NodeId> {
        let hop = self.routing.next_hop(self.node, dst)?;
        self.send(hop, pkt, size_bytes);
        Some(hop)
    }

    /// Schedules [`NodeBehavior::on_timer`] on this node after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, key: u64) {
        self.timers.push((delay, key));
    }

    /// Keeps this node's server busy for an additional `d` after the current
    /// packet completes, before the next queued packet starts service.
    ///
    /// Used to model per-recipient transmission work (e.g. a game server
    /// unicasting one update to N subscribers pays N send costs).
    pub fn consume(&mut self, d: SimDuration) {
        self.extra_busy += d;
    }

    /// Whether telemetry is recording — lets behaviors skip building
    /// anything expensive that only feeds [`Ctx::counter`] and friends.
    #[must_use]
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Bumps the per-node custom counter `metric` by `delta`. No-op while
    /// telemetry is disabled.
    #[inline]
    pub fn counter(&mut self, metric: &'static str, delta: u64) {
        self.telemetry.counter(self.node.0, metric, delta);
    }

    /// Sets the per-node gauge `metric` to `value` (last write wins).
    #[inline]
    pub fn gauge(&mut self, metric: &'static str, value: u64) {
        self.telemetry.gauge(self.node.0, metric, value);
    }

    /// Records `value` into the per-node custom histogram `metric`.
    #[inline]
    pub fn observe(&mut self, metric: &'static str, value: u64) {
        self.telemetry.observe(self.node.0, metric, value);
    }

    /// Read access to the streaming-metrics hub. It is global, so a
    /// behavior can compare its own load against its peers' (the skew
    /// signal of adaptive RP balancing); adaptive consumers gate their
    /// policy on [`MetricStreams::is_enabled`] (no streams, no adaptation)
    /// and evaluate it at most once per [`MetricStreams::rolls`].
    #[must_use]
    #[inline]
    pub fn streams(&self) -> &MetricStreams {
        self.streams
    }

    /// Bumps this node's windowed stream counter `metric` by `delta`.
    /// No-op while streams are disabled (one branch, like [`Ctx::counter`]).
    #[inline]
    pub fn stream_bump(&mut self, metric: &'static str, delta: u64) {
        self.streams.bump(metric, self.node.0, delta);
    }

    /// Offers `weight` of `key` to the named heavy-hitter sketch. No-op
    /// while streams are disabled.
    #[inline]
    pub fn stream_offer(&mut self, stream: &'static str, key: u64, weight: u64) {
        self.streams.offer(stream, key, weight);
    }

    /// Records a terminal delivery of the packet currently being serviced
    /// to application entity `entity` (e.g. a player id) on its lineage.
    /// No-op while lineage tracing is disabled or the packet is untraced.
    #[inline]
    pub fn lineage_deliver(&mut self, entity: u32) {
        self.lineage
            .deliver_from(self.cur_span, self.node.0, entity, self.now);
    }

    /// The one way a behavior drops something: `size` bytes discarded for
    /// `reason`. One on the simulator's drop ledger
    /// ([`Simulator::dropped`]) and a drop on the lineage of the packet
    /// being serviced (when traced) — both with every observer off — and,
    /// while telemetry records, the `"drop"` and per-reason counters plus a
    /// journal record whose class is the reason, exactly as the engine
    /// accounts its own drops.
    pub fn discard(&mut self, reason: &'static str, size: u32) {
        self.drops.add(reason, 1);
        self.lineage
            .drop_from(self.cur_span, self.node.0, reason, self.now);
        self.telemetry.counter(self.node.0, "drop", 1);
        self.telemetry.counter(self.node.0, reason, 1);
        self.journal(TraceEvent::Drop, reason, size);
    }

    /// Drops a batch of `n` soft-state entries for `reason` outside any
    /// packet's service (a PIT sweep, a dead face's purge): `n` on the
    /// ledger and on the per-reason counter, but one `"drop"` and one
    /// journal record, of size `n`. Nothing at all for `n == 0`.
    pub fn discard_batch(&mut self, reason: &'static str, n: usize) {
        let Some(rest) = (n as u64).checked_sub(1) else {
            return;
        };
        self.drops.add(reason, rest);
        self.telemetry.counter(self.node.0, reason, rest);
        self.discard(reason, n as u32);
    }

    /// Sheds message `lid` of `size` bytes at its source: it was never
    /// handed to the network (e.g. a client's congestion pacer suppressed
    /// the publish), so no span exists to mark. Accounted like
    /// [`Ctx::discard`], plus a root-level drop record on `lid`'s lineage
    /// so the delivery auditor can still explain every pair the message
    /// owed.
    pub fn shed(&mut self, lid: u64, reason: &'static str, size: u32) {
        self.discard(reason, size);
        self.lineage
            .drop_at(lid, NO_SPAN, self.node.0, reason, self.now);
    }

    /// Marks a behavior-level event named `tag` (an RP split, a failover):
    /// the `"mark"` counter and a journal record of class `tag`. No-op while
    /// telemetry is disabled.
    pub fn mark(&mut self, tag: &'static str) {
        self.telemetry.counter(self.node.0, "mark", 1);
        self.journal(TraceEvent::Mark, tag, 0);
    }

    /// Appends one record of this node to the packet-trace journal (no-op
    /// while telemetry is disabled).
    fn journal(&mut self, event: TraceEvent, class: &'static str, size: u32) {
        self.telemetry.journal(TraceRecord {
            ts: self.now,
            node: self.node.0,
            event,
            class,
            size,
            peer: u32::MAX,
            dur_ns: 0,
        });
    }
}

#[derive(Debug)]
enum Event<P> {
    Arrival {
        node: NodeId,
        from: Option<NodeId>,
        pkt: P,
        size: u32,
        /// Open lineage hop span for this copy, or [`NO_SPAN`] when the
        /// packet is untraced (lineage off, unsampled, or injected —
        /// injected packets open their origin span on arrival).
        span: u32,
        /// Congestion mark inherited from upstream hops (always `false`
        /// without overload control).
        marked: bool,
    },
    /// `epoch` invalidates service/timer events that straddle a node crash:
    /// the node's epoch is bumped when it goes down, so stale events are
    /// recognized and discarded. Always 0 when fault injection is off.
    EndService {
        node: NodeId,
        epoch: u32,
    },
    Resume {
        node: NodeId,
        epoch: u32,
    },
    Timer {
        node: NodeId,
        key: u64,
        epoch: u32,
    },
    /// A scheduled fault-injection event (only present when a non-vacuous
    /// [`FaultPlan`] is installed).
    Fault(FaultEvent),
}

/// One packet waiting in (or at the head of) a node's service queue. The
/// arrival stamp feeds the telemetry queueing-delay histogram and the
/// overload layer's sojourn decisions; the span ties the queued copy to its
/// lineage.
pub(crate) struct Queued<P> {
    from: Option<NodeId>,
    pub(crate) pkt: P,
    size: u32,
    /// When the packet entered this queue.
    pub(crate) at: SimTime,
    span: u32,
    /// Congestion mark inherited from upstream hops.
    marked: bool,
}

struct NodeState<P> {
    /// FIFO service queue; while `serving`, the front element is the packet
    /// in service (the overload layer must never reorder or shed it).
    queue: VecDeque<Queued<P>>,
    busy: bool,
    /// True only between service start and the [`Event::EndService`] pop:
    /// the window in which `queue[0]` is the in-service packet. During an
    /// extra-busy tail ([`Ctx::consume`] / [`Event::Resume`]) the node is
    /// still `busy` but the packet is gone, so every queued element is a
    /// waiting one.
    serving: bool,
    max_queue: usize,
    processed: u64,
    busy_time: SimDuration,
    /// Incremented on every crash; see [`Event::EndService`].
    epoch: u32,
}

impl<P> NodeState<P> {
    /// Index of the first *waiting* packet: 1 while the front is in service.
    fn waiting_start(&self) -> usize {
        debug_assert!(
            !self.serving || (self.busy && !self.queue.is_empty()),
            "serving implies busy with the in-service packet at the queue front"
        );
        usize::from(self.serving)
    }
}

impl<P> Default for NodeState<P> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            busy: false,
            serving: false,
            max_queue: 0,
            processed: 0,
            busy_time: SimDuration::ZERO,
            epoch: 0,
        }
    }
}

/// The discrete-event simulator: topology + routing + one [`NodeBehavior`]
/// per node + shared world state `W`.
///
/// See the crate-level documentation for a complete example.
pub struct Simulator<P, W> {
    topology: Topology,
    routing: RoutingTable,
    behaviors: Vec<Option<Box<dyn NodeBehavior<P, W>>>>,
    nodes: Vec<NodeState<P>>,
    world: W,
    events: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    payloads: Vec<Option<Event<P>>>,
    free_slots: Vec<usize>,
    seq: u64,
    now: SimTime,
    /// bytes sent per directed link: index link*2 + dir
    link_bytes: Vec<u64>,
    /// busy-until per directed link (serialization)
    link_busy: Vec<SimTime>,
    events_processed: u64,
    on_start_done: bool,
    telemetry: Telemetry,
    /// How telemetry, lineage and overload control read a packet.
    meta: PacketMeta<P>,
    /// Per-message causal span log; disabled (one branch per hook) by
    /// default.
    lineage: LineageLog,
    /// Span of the packet currently being serviced; the causal parent of
    /// transmissions requested by the running behavior.
    cur_span: u32,
    /// Periodic counter/gauge/queue-depth snapshots; `None` unless enabled.
    timeseries: Option<TimeSeries>,
    /// The streaming-metrics hub; disabled (one branch per hook) unless a
    /// non-vacuous [`StreamConfig`] was installed. Held by value like
    /// `telemetry` so [`Ctx`] can borrow it mutably.
    streams: MetricStreams,
    /// Live fault-injection state; `None` unless a non-vacuous plan was
    /// installed, in which case every hot-path check below is one branch.
    faults: Option<FaultState>,
    /// Live overload-control state; `None` unless a non-vacuous
    /// [`OverloadConfig`] was installed (same rule as `faults`).
    overload: Option<OverloadState>,
    /// Items dropped so far per reason, by the engine and by behaviors.
    drops: DropLedger,
    /// Congestion mark of the packet currently being serviced.
    cur_marked: bool,
    /// The effect buffers lent to each [`Ctx`] for the duration of one
    /// behavior callback and drained straight after it. Empty between
    /// callbacks; their capacity is the largest fan-out seen so far, so
    /// [`Ctx::send`]/[`Ctx::schedule`] allocate only when a callback
    /// exceeds it.
    send_buf: Vec<(NodeId, P, u32)>,
    timer_buf: Vec<(SimDuration, u64)>,
}

impl<P, W> Simulator<P, W> {
    /// Creates a simulator over `topology`, computing shortest-path routing,
    /// with all nodes initially running a drop-everything behavior.
    #[must_use]
    pub fn new(topology: Topology, world: W) -> Self {
        let routing = RoutingTable::shortest_paths(&topology);
        let n = topology.node_count();
        let l = topology.link_count();
        Self {
            behaviors: (0..n).map(|_| None).collect(),
            nodes: (0..n).map(|_| NodeState::default()).collect(),
            world,
            events: BinaryHeap::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            link_bytes: vec![0; l * 2],
            link_busy: vec![SimTime::ZERO; l * 2],
            events_processed: 0,
            on_start_done: false,
            telemetry: Telemetry::default(),
            meta: PacketMeta::default(),
            lineage: LineageLog::disabled(),
            cur_span: NO_SPAN,
            timeseries: None,
            streams: MetricStreams::disabled(),
            faults: None,
            overload: None,
            drops: DropLedger::default(),
            cur_marked: false,
            send_buf: Vec::new(),
            timer_buf: Vec::new(),
            topology,
            routing,
        }
    }

    /// Installs a fault-injection plan: its scheduled events become ordinary
    /// simulation events and its loss probability applies to every
    /// transmission. A vacuous plan (empty schedule, zero loss) is ignored
    /// entirely — it adds zero events and zero PRNG draws, so the run stays
    /// byte-identical to one without fault injection.
    ///
    /// # Panics
    ///
    /// Panics if the plan references an unknown link or node.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if plan.is_vacuous() {
            return;
        }
        let (schedule, loss, seed) = plan.into_parts();
        for &(_, ev) in &schedule {
            match ev {
                FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) => {
                    assert!(
                        l.index() < self.topology.link_count(),
                        "fault plan references unknown link {l}"
                    );
                }
                FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => {
                    assert!(
                        n.index() < self.topology.node_count(),
                        "fault plan references unknown node {n}"
                    );
                }
            }
        }
        self.faults = Some(FaultState::new(
            self.topology.node_count(),
            self.topology.link_count(),
            loss,
            seed,
        ));
        for (t, ev) in schedule {
            self.push_event(t, Event::Fault(ev));
        }
    }

    /// Installs overload control: bounded per-node service queues with the
    /// configured admission policy, optional priority shedding, and
    /// optional congestion marking. A vacuous config (see
    /// [`OverloadConfig::is_vacuous`]) is ignored entirely — it adds zero
    /// branches of behavioral change, so the run stays byte-identical to
    /// one without overload control (the vacuous-`FaultPlan` rule).
    ///
    /// All policies are deterministic by construction (no PRNG draws), so
    /// same-seed overloaded runs export byte-identical telemetry.
    pub fn install_overload(&mut self, cfg: OverloadConfig) {
        if cfg.is_vacuous() {
            return;
        }
        self.overload = Some(OverloadState::new(cfg, self.topology.node_count()));
    }

    /// `true` once a non-vacuous overload config has been installed.
    #[must_use]
    pub fn overload_active(&self) -> bool {
        self.overload.is_some()
    }

    /// Installs the streaming-metrics hub: windowed counters, queue-depth
    /// EWMAs and heavy-hitter sketches rolled every `cfg.tick` of simulated
    /// time, fed and read by behaviors through [`Ctx`]. A vacuous config
    /// (zero tick, see [`StreamConfig::is_vacuous`]) is ignored entirely —
    /// every hook stays a single branch, so the run is byte-identical to
    /// one without streams (the vacuous-`FaultPlan` rule). The hub itself
    /// only observes: installing it without an adaptive consumer changes
    /// no packet schedule either.
    pub fn install_streams(&mut self, cfg: StreamConfig) {
        if cfg.is_vacuous() {
            return;
        }
        self.streams = MetricStreams::new(cfg, self.topology.node_count());
    }

    /// `true` once a non-vacuous stream config has been installed.
    #[must_use]
    pub fn streams_active(&self) -> bool {
        self.streams.is_enabled()
    }

    /// Read access to the streaming-metrics hub (e.g. for experiment
    /// drivers harvesting end-of-run sketch contents).
    #[must_use]
    pub fn streams(&self) -> &MetricStreams {
        &self.streams
    }

    /// Items dropped so far for `reason`, by the engine ([`EngineDrop`]'s
    /// tags) or by a behavior ([`Ctx::discard`], [`Ctx::discard_batch`],
    /// [`Ctx::shed`]); zero for a reason that never fired. Counts with
    /// every observer off: the engine's fault reasons stay zero only
    /// without an installed fault plan, its overload reasons without
    /// installed overload control.
    #[must_use]
    pub fn dropped(&self, reason: &str) -> u64 {
        self.drops.get(reason)
    }

    /// Packets congestion-marked so far (zero without overload control).
    #[must_use]
    pub fn congestion_marks(&self) -> u64 {
        self.overload.as_ref().map_or(0, OverloadState::marks)
    }

    /// Registers how the engine reads a packet: its telemetry class, its
    /// lineage id, and its priority class and supersede key for overload
    /// control (see [`PacketMeta`]). Each part is inert until the
    /// subsystem reading it is switched on.
    pub fn set_packet_meta(&mut self, meta: PacketMeta<P>) {
        self.meta = meta;
    }

    /// The time the last repair event (`LinkUp`/`NodeUp`) was applied.
    #[must_use]
    pub fn last_repair_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(FaultState::last_repair)
    }

    /// Whether a node is currently up (always `true` without faults).
    #[must_use]
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_none_or(|f| f.node_is_up(node))
    }

    /// Whether a link is currently up (always `true` without faults).
    #[must_use]
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.faults.as_ref().is_none_or(|f| f.link_is_up(link))
    }

    /// Switches the telemetry registry + journal on. Until called, every
    /// telemetry hook reduces to a single branch (see the `telemetry/`
    /// group in the bench crate for the measured overhead).
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let (nodes, links) = (self.topology.node_count(), self.topology.link_count());
        self.telemetry.enable(cfg, nodes, links);
    }

    /// Switches per-message lineage tracing on. Only packets the
    /// registered [`PacketMeta::lineage_id`] gives an id are traced; until
    /// enabled every lineage hook reduces to a single branch.
    pub fn enable_lineage(&mut self, cfg: LineageConfig) {
        self.lineage.enable(cfg);
    }

    /// Read access to the lineage span log.
    #[must_use]
    pub fn lineage(&self) -> &LineageLog {
        &self.lineage
    }

    /// Mutable access to the lineage span log (for registering delivery
    /// expectations at publish time).
    pub fn lineage_mut(&mut self) -> &mut LineageLog {
        &mut self.lineage
    }

    /// Switches the periodic time-series sampler on: counters, gauges and
    /// queue depths are snapshotted every `cfg.tick` of simulated time.
    pub fn enable_timeseries(&mut self, cfg: TimeSeriesConfig) {
        self.timeseries = Some(TimeSeries::new(cfg));
    }

    /// The captured time-series frames as JSON, if the sampler is enabled.
    #[must_use]
    pub fn timeseries_json(&self) -> Option<Json> {
        self.timeseries.as_ref().map(TimeSeries::to_json)
    }

    /// Runs every due periodic sampler pass with timestamp before `upto`
    /// (up to and including it when `inclusive` — the end of a bounded
    /// run): stream-hub rolls and time-series frame captures, interleaved
    /// in timestamp order. A roll due at the same instant as a frame lands
    /// first, so the frame's `"streams"` section sees the just-closed
    /// window — the two samplers share this one pass instead of exporting
    /// on separate clocks.
    fn flush_samplers(&mut self, upto: SimTime, inclusive: bool) {
        let due = |t: SimTime| t < upto || (inclusive && t == upto);
        loop {
            let frame = self
                .timeseries
                .as_ref()
                .and_then(TimeSeries::next_frame_at)
                .filter(|&t| due(t));
            let roll = self.streams.next_roll_at().filter(|&t| due(t));
            match (frame, roll) {
                (None, None) => break,
                (Some(f), Some(r)) if r <= f => self.roll_streams(r),
                (None, Some(r)) => self.roll_streams(r),
                (Some(f), _) => self.capture_frame(f),
            }
        }
    }

    /// One stream-hub roll at `at`, fed the live per-node queue depths.
    fn roll_streams(&mut self, at: SimTime) {
        self.streams
            .roll(at, self.nodes.iter().map(|n| n.queue.len()));
    }

    /// Captures one time-series frame at `at`; the frame carries a
    /// `"streams"` section only when the stream hub is enabled, so
    /// stream-less runs export byte-identical frames.
    fn capture_frame(&mut self, at: SimTime) {
        let Some(mut ts) = self.timeseries.take() else {
            return;
        };
        let snap = self
            .streams
            .is_enabled()
            .then(|| self.streams.snapshot_json());
        ts.capture_with(
            at,
            &self.telemetry,
            self.nodes.iter().map(|n| n.queue.len()),
            snap,
        );
        self.timeseries = Some(ts);
    }

    /// Read access to the telemetry registry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Packages the telemetry state into a [`TelemetryReport`] (summary
    /// JSON + Chrome trace events + journal fingerprint). `pid` becomes the
    /// trace-event process id, letting several runs share one trace file.
    #[must_use]
    pub fn telemetry_report(&self, label: &str, pid: u64) -> TelemetryReport {
        let engine_node = |id: u32| {
            let st = &self.nodes[id as usize];
            (st.processed, st.max_queue, st.busy_time.as_nanos())
        };
        let Json::Object(rest) =
            self.telemetry
                .summary_json(&self.topology, &engine_node, self.now)
        else {
            unreachable!("summary_json returns an object");
        };
        let head = std::iter::once(("label".into(), Json::str(label)));
        TelemetryReport {
            label: label.to_string(),
            summary: Json::obj(head.chain(rest)),
            trace_events: self.telemetry.trace_events_json(&self.topology, pid),
            fingerprint: self.telemetry.journal_fingerprint(),
        }
    }

    /// Installs the behavior of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_behavior(&mut self, node: NodeId, behavior: Box<dyn NodeBehavior<P, W>>) {
        self.behaviors[node.index()] = Some(behavior);
    }

    /// The simulated clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The routing table in use.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Shared world state.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Shared world state, mutably.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulator, returning the world state.
    #[must_use]
    pub fn into_world(self) -> W {
        self.world
    }

    /// Injects a packet from outside the network into `node`'s service queue
    /// at absolute time `at` (e.g. a trace event or an application request).
    pub fn inject(&mut self, at: SimTime, node: NodeId, pkt: P, size_bytes: u32) {
        self.push_event(
            at,
            Event::Arrival {
                node,
                from: None,
                pkt,
                size: size_bytes,
                span: NO_SPAN,
                marked: false,
            },
        );
    }

    /// Total bytes carried by all links (the paper's "aggregate network
    /// load").
    #[must_use]
    pub fn total_link_bytes(&self) -> u64 {
        self.link_bytes.iter().sum()
    }

    /// Bytes carried by one link (both directions).
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown.
    #[must_use]
    pub fn link_bytes(&self, link: LinkId) -> u64 {
        self.link_bytes[link.index() * 2] + self.link_bytes[link.index() * 2 + 1]
    }

    /// Number of packets processed by a node so far.
    #[must_use]
    pub fn node_processed(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].processed
    }

    /// The largest service-queue length a node has seen.
    #[must_use]
    pub fn node_max_queue(&self, node: NodeId) -> usize {
        self.nodes[node.index()].max_queue
    }

    /// Cumulative time a node's server has been busy (utilization =
    /// `busy_time / now`).
    #[must_use]
    pub fn node_busy_time(&self, node: NodeId) -> SimDuration {
        self.nodes[node.index()].busy_time
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Returns `true` if there are no pending events.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
    }

    /// Runs every node's [`NodeBehavior::on_start`] hook, then processes
    /// events until the queue drains.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Like [`Simulator::run`] but stops once the clock would pass `limit`
    /// (events at exactly `limit` are processed).
    pub fn run_until(&mut self, limit: SimTime) {
        let _run = prof::scope("engine/run");
        let events_before = self.events_processed;
        self.start_all();
        while let Some(ev) = self.next_event(limit) {
            self.dispatch(ev);
        }
        if limit < SimTime::MAX {
            let _ts = prof::scope("engine/timeseries");
            self.flush_samplers(limit, true);
        }
        self.prof_throughput(events_before);
    }

    /// Processes at most `n` further events (after running `on_start` hooks
    /// if not yet run). Returns the number actually processed.
    pub fn step(&mut self, n: u64) -> u64 {
        let _run = prof::scope("engine/run");
        let events_before = self.events_processed;
        self.start_all();
        let mut done = 0;
        while done < n {
            let Some(ev) = self.next_event(SimTime::MAX) else {
                break;
            };
            self.dispatch(ev);
            done += 1;
        }
        self.prof_throughput(events_before);
        done
    }

    /// Takes the earliest pending event off the heap and advances the clock
    /// to it, after running every sampler pass due before it. `None` when
    /// the queue is empty or the event lies beyond `limit`.
    fn next_event(&mut self, limit: SimTime) -> Option<Event<P>> {
        let &Reverse((t, _, _)) = self.events.peek()?;
        if t > limit {
            return None;
        }
        if self.timeseries.is_some() || self.streams.is_enabled() {
            let _ts = prof::scope("engine/timeseries");
            self.flush_samplers(t, false);
        }
        let _pop = prof::scope("engine/pop");
        let Reverse((t, _, slot)) = self.events.pop().expect("peeked");
        self.now = t;
        let ev = self.payloads[slot as usize]
            .take()
            .expect("event payload present");
        self.free_slots.push(slot as usize);
        self.events_processed += 1;
        Some(ev)
    }

    /// Records the run's deterministic throughput inputs: events executed
    /// and the peak per-node queue depth. Call-count-only, so same-seed
    /// runs fingerprint identically. No-op while profiling is disabled.
    fn prof_throughput(&self, events_before: u64) {
        if !prof::is_enabled() {
            return;
        }
        prof::count("engine/events", self.events_processed - events_before);
        let high = self
            .nodes
            .iter()
            .map(|n| n.max_queue as u64)
            .max()
            .unwrap_or(0);
        prof::gauge_max("engine/queue_high_watermark", high);
    }

    fn start_all(&mut self) {
        // Run on_start exactly once per simulator, before the first event.
        if self.on_start_done {
            return;
        }
        self.on_start_done = true;
        let _start = prof::scope("engine/start");
        for i in 0..self.behaviors.len() {
            let node = NodeId(i as u32);
            self.with_behavior(node, |b, ctx| b.on_start(ctx));
        }
    }

    fn dispatch(&mut self, ev: Event<P>) {
        match ev {
            Event::Arrival {
                node,
                from,
                pkt,
                size,
                mut span,
                marked,
            } => {
                let _arr = prof::scope("engine/arrival");
                if span == NO_SPAN && self.lineage.is_enabled() {
                    // An injected packet enters the network here: open its
                    // root span (hops carry their span from `transmit`).
                    let _lin = prof::scope("engine/lineage");
                    if let Some(lid) = (self.meta.lineage_id)(&pkt) {
                        span = self.lineage.origin(lid, node.0, self.now);
                    }
                }
                if self.faults.as_ref().is_some_and(|f| !f.node_is_up(node)) {
                    // The destination is down: the packet is blackholed.
                    let _flt = prof::scope("engine/fault");
                    self.drop_packet(node, from, size, span, EngineDrop::NodeLost, None);
                    return;
                }
                if self.overload.is_some() && !self.admit(node, from, &pkt, size, span) {
                    return; // arrival rejected (accounted inside)
                }
                if self.telemetry.is_enabled() {
                    let _tel = prof::scope("engine/telemetry");
                    self.telemetry.packet_in(node.0, size);
                    if self.overload.is_some() {
                        let ctl = (self.meta.priority)(&pkt) == 0;
                        self.telemetry
                            .counter(node.0, if ctl { "ctl-in" } else { "bulk-in" }, 1);
                    }
                    let class = (self.meta.kind)(&pkt);
                    self.journal(node, TraceEvent::Enqueue, class, size, u32::MAX, 0);
                }
                let st = &mut self.nodes[node.index()];
                let q = Queued {
                    from,
                    pkt,
                    size,
                    at: self.now,
                    span,
                    marked,
                };
                match &self.overload {
                    Some(o) => {
                        let pos = o.insert_pos(&st.queue, st.waiting_start(), &q.pkt, &self.meta);
                        st.queue.insert(pos, q);
                    }
                    None => st.queue.push_back(q),
                }
                st.max_queue = st.max_queue.max(st.queue.len());
                self.try_start_service(node);
            }
            Event::EndService { node, epoch } => {
                let _svc = prof::scope("engine/service");
                if epoch != self.nodes[node.index()].epoch {
                    return; // the node crashed since this service started
                }
                debug_assert!(
                    self.nodes[node.index()].serving,
                    "live EndService at a node that is not serving"
                );
                let Queued {
                    from,
                    pkt,
                    size,
                    at: enq,
                    span,
                    mut marked,
                } = self.nodes[node.index()]
                    .queue
                    .pop_front()
                    .expect("end of service with empty queue");
                self.nodes[node.index()].serving = false;
                self.nodes[node.index()].processed += 1;
                // Congestion marking: a packet whose total sojourn through
                // this node (queueing + service) overran the threshold is
                // marked, and the mark travels with every downstream copy.
                let sojourn = self.now.saturating_duration_since(enq);
                if !marked && self.overload.as_mut().is_some_and(|o| o.mark(sojourn)) {
                    marked = true;
                    if self.telemetry.is_enabled() {
                        let _tel = prof::scope("engine/telemetry");
                        self.telemetry.counter(node.0, "mark", 1);
                        self.telemetry.counter(node.0, "congestion-marked", 1);
                        let class = (self.meta.kind)(&pkt);
                        self.journal(node, TraceEvent::Mark, class, size, u32::MAX, 0);
                    }
                }
                if self.telemetry.is_enabled() {
                    let _tel = prof::scope("engine/telemetry");
                    let class = (self.meta.kind)(&pkt);
                    self.journal(node, TraceEvent::Deliver, class, size, u32::MAX, 0);
                }
                self.cur_span = span;
                self.cur_marked = marked;
                let extra = self.with_behavior(node, |b, ctx| {
                    b.on_packet(ctx, from, pkt);
                });
                self.cur_span = NO_SPAN;
                self.cur_marked = false;
                if self.lineage.is_enabled() {
                    let _lin = prof::scope("engine/lineage");
                    self.lineage.close(span, self.now);
                }
                if extra.is_zero() {
                    self.nodes[node.index()].busy = false;
                    self.try_start_service(node);
                } else {
                    self.nodes[node.index()].busy_time += extra;
                    let at = self.now + extra;
                    self.push_event(at, Event::Resume { node, epoch });
                }
            }
            Event::Resume { node, epoch } => {
                let _res = prof::scope("engine/resume");
                if epoch != self.nodes[node.index()].epoch {
                    return;
                }
                self.nodes[node.index()].busy = false;
                self.try_start_service(node);
            }
            Event::Timer { node, key, epoch } => {
                let _tmr = prof::scope("engine/timer");
                if epoch != self.nodes[node.index()].epoch {
                    return; // armed before a crash; the process that set it died
                }
                self.with_behavior(node, |b, ctx| b.on_timer(ctx, key));
            }
            Event::Fault(ev) => {
                let _flt = prof::scope("engine/fault");
                self.apply_fault(ev);
            }
        }
    }

    /// Applies one scheduled fault event: update link/node up-state, flush
    /// any state that died with it, recompute routing over the surviving
    /// subgraph, then notify affected live behaviors (which see the new
    /// routing table and can immediately start recovery).
    fn apply_fault(&mut self, ev: FaultEvent) {
        let now = self.now;
        if !self.faults.as_mut().is_some_and(|f| f.set_up(ev, now)) {
            return; // no fault plan, or already in that state
        }
        let up = ev.is_repair();
        let adjacency = |peer| {
            if up {
                FaultNotice::LinkUp { peer }
            } else {
                FaultNotice::LinkDown { peer }
            }
        };
        match ev {
            FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) => {
                self.recompute_routing();
                let (a, b) = self.topology.link_endpoints(l);
                self.notify_fault(a, adjacency(b));
                self.notify_fault(b, adjacency(a));
            }
            FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => {
                if !up {
                    // The crash kills whatever the node held: in-flight
                    // service and timers (by epoch) and every queued packet.
                    let st = &mut self.nodes[n.index()];
                    st.epoch += 1;
                    st.busy = false;
                    st.serving = false;
                    while let Some(q) = self.nodes[n.index()].queue.pop_front() {
                        self.drop_packet(n, q.from, q.size, q.span, EngineDrop::NodeLost, None);
                    }
                }
                self.recompute_routing();
                if up {
                    self.notify_fault(n, FaultNotice::Restarted);
                }
                let peers: Vec<NodeId> = self
                    .topology
                    .neighbors(n)
                    .filter(|&(_, l)| self.link_is_up(l))
                    .map(|(m, _)| m)
                    .collect();
                for m in peers {
                    self.notify_fault(m, adjacency(n));
                }
            }
        }
    }

    /// Recomputes the routing table over the surviving subgraph.
    fn recompute_routing(&mut self) {
        let Some(f) = &self.faults else {
            return;
        };
        self.routing = RoutingTable::shortest_paths_filtered(
            &self.topology,
            |l| f.link_is_up(l),
            |n| f.node_is_up(n),
        );
    }

    /// Delivers a fault notice to a node's behavior if that node is alive.
    fn notify_fault(&mut self, node: NodeId, notice: FaultNotice) {
        if !self.node_is_up(node) {
            return;
        }
        self.with_behavior(node, |b, ctx| b.on_fault(ctx, notice));
    }

    /// Appends one engine-side record to the packet-trace journal.
    #[inline]
    fn journal(
        &mut self,
        node: NodeId,
        event: TraceEvent,
        class: &'static str,
        size: u32,
        peer: u32,
        dur_ns: u64,
    ) {
        self.telemetry.journal(TraceRecord {
            ts: self.now,
            node: node.0,
            event,
            class,
            size,
            peer,
            dur_ns,
        });
    }

    /// The one place an engine-side drop is accounted. The packet of `size`
    /// bytes, sent by `from`, dies at `node` for reason `why`: its open
    /// lineage `span` (if any) closes as a drop, the drop ledger and the
    /// `"drop"` + per-reason counters are bumped, and the journal gets a
    /// drop record whose class field carries the reason (like
    /// [`Ctx::discard`]). Overload sheds pass `ctl` — whether the victim was
    /// control-class — and are also counted as `"ctl-drop"`/`"bulk-drop"`.
    fn drop_packet(
        &mut self,
        node: NodeId,
        from: Option<NodeId>,
        size: u32,
        span: u32,
        why: EngineDrop,
        ctl: Option<bool>,
    ) {
        let reason = why.as_str();
        self.lineage.mark_dropped(span, reason, self.now);
        self.drops.add(reason, 1);
        self.telemetry.counter(node.0, "drop", 1);
        self.telemetry.counter(node.0, reason, 1);
        if let Some(ctl) = ctl {
            self.telemetry
                .counter(node.0, if ctl { "ctl-drop" } else { "bulk-drop" }, 1);
        }
        let peer = from.map_or(u32::MAX, |n| n.0);
        self.journal(node, TraceEvent::Drop, reason, size, peer, 0);
    }

    /// Asks overload control whether the arrival may join `node`'s queue
    /// and applies the answer. Returns `false` when the arrival itself was
    /// dropped; an evicted victim or the rejected arrival is accounted here.
    fn admit(&mut self, node: NodeId, from: Option<NodeId>, pkt: &P, size: u32, span: u32) -> bool {
        let Some(ov) = &self.overload else {
            return true;
        };
        let st = &mut self.nodes[node.index()];
        match ov.admit(&st.queue, st.waiting_start(), pkt, &self.meta) {
            Admission::Admit => true,
            Admission::Evict(i, why) => {
                let q = st.queue.remove(i).expect("victim index in range");
                let ctl = (self.meta.priority)(&q.pkt) == 0;
                self.drop_packet(node, q.from, q.size, q.span, why, Some(ctl));
                true
            }
            Admission::Reject => {
                let ctl = (self.meta.priority)(pkt) == 0;
                self.drop_packet(node, from, size, span, EngineDrop::QueueFull, Some(ctl));
                false
            }
        }
    }

    fn try_start_service(&mut self, node: NodeId) {
        if self
            .overload
            .as_ref()
            .is_some_and(OverloadState::sheds_at_dequeue)
        {
            self.aqm_dequeue(node);
        }
        let st = &self.nodes[node.index()];
        if st.busy || st.queue.is_empty() {
            return;
        }
        let front = st.queue.front().expect("non-empty");
        let service = self.behaviors[node.index()]
            .as_ref()
            .map_or(SimDuration::ZERO, |b| b.service_time(&front.pkt));
        let span = front.span;
        if self.telemetry.is_enabled() {
            let _tel = prof::scope("engine/telemetry");
            let class = (self.meta.kind)(&front.pkt);
            let size = front.size;
            let wait = self.now.saturating_duration_since(front.at);
            self.telemetry.service_started(node.0, wait, service);
            self.journal(
                node,
                TraceEvent::Dequeue,
                class,
                size,
                u32::MAX,
                service.as_nanos(),
            );
        }
        self.lineage.service_start(span, self.now);
        self.nodes[node.index()].busy = true;
        self.nodes[node.index()].serving = true;
        self.nodes[node.index()].busy_time += service;
        let at = self.now + service;
        let epoch = self.nodes[node.index()].epoch;
        self.push_event(at, Event::EndService { node, epoch });
    }

    /// Dequeue-time shedding: before the next packet starts service at an
    /// idle node, drop every head overload control says to shed.
    fn aqm_dequeue(&mut self, node: NodeId) {
        let _ovp = prof::scope("engine/overload");
        loop {
            let st = &mut self.nodes[node.index()];
            let Some(ov) = self.overload.as_mut() else {
                return;
            };
            if st.busy || !ov.shed_head(node.index(), &st.queue, self.now, &self.meta) {
                return;
            }
            let q = st.queue.pop_front().expect("shed_head saw a head");
            let ctl = (self.meta.priority)(&q.pkt) == 0;
            self.drop_packet(node, q.from, q.size, q.span, EngineDrop::AqmShed, Some(ctl));
        }
    }

    /// Runs `f` with the node's behavior temporarily removed (so the
    /// behavior can borrow the simulator context), then applies effects.
    /// Returns the extra busy time requested via [`Ctx::consume`].
    fn with_behavior(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn NodeBehavior<P, W>, &mut Ctx<'_, P, W>),
    ) -> SimDuration {
        let Some(mut behavior) = self.behaviors[node.index()].take() else {
            return SimDuration::ZERO;
        };
        // Not re-entrant: applying effects below never runs a behavior, so
        // the previous callback gave both buffers back drained.
        debug_assert!(self.send_buf.is_empty() && self.timer_buf.is_empty());
        let st = &self.nodes[node.index()];
        let queue_len = st.queue.len() - st.waiting_start();
        let mut ctx = Ctx {
            now: self.now,
            node,
            world: &mut self.world,
            topology: &self.topology,
            routing: &self.routing,
            queue_len,
            telemetry: &mut self.telemetry,
            streams: &mut self.streams,
            lineage: &mut self.lineage,
            drops: &mut self.drops,
            cur_span: self.cur_span,
            marked: self.cur_marked,
            sends: std::mem::take(&mut self.send_buf),
            timers: std::mem::take(&mut self.timer_buf),
            extra_busy: SimDuration::ZERO,
        };
        f(behavior.as_mut(), &mut ctx);
        let Ctx {
            mut sends,
            mut timers,
            extra_busy,
            ..
        } = ctx;
        self.behaviors[node.index()] = Some(behavior);
        for (to, pkt, size) in sends.drain(..) {
            self.transmit(node, to, pkt, size);
        }
        let epoch = self.nodes[node.index()].epoch;
        for (delay, key) in timers.drain(..) {
            let at = self.now + delay;
            self.push_event(at, Event::Timer { node, key, epoch });
        }
        self.send_buf = sends;
        self.timer_buf = timers;
        extra_busy
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, pkt: P, size: u32) {
        let _tx = prof::scope("engine/transmit");
        let link = self
            .topology
            .link_between(from, to)
            .unwrap_or_else(|| panic!("{from} is not adjacent to {to}"));
        let mut cause = self.cur_span;
        let lid = if self.lineage.is_enabled() {
            (self.meta.lineage_id)(&pkt)
        } else {
            None
        };
        if let Some(l) = lid {
            if cause == NO_SPAN {
                // Locally originated outside packet service (a timer-driven
                // publish, a recovery retransmit): give it a closed root.
                let origin = self.lineage.origin(l, from.0, self.now);
                self.lineage.close(origin, self.now);
                cause = origin;
            }
        }
        if self.faults.as_mut().is_some_and(|f| f.loses(link)) {
            // The copy never reaches a queue, so it has no span of its own
            // to mark: its lineage gets an already-closed drop record.
            let why = EngineDrop::LinkLost;
            if let Some(l) = lid {
                self.lineage
                    .drop_at(l, cause, from.0, why.as_str(), self.now);
            }
            self.drop_packet(from, Some(to), size, NO_SPAN, why, None);
            return;
        }
        let (a, _) = self.topology.link_endpoints(link);
        let dir = usize::from(from != a);
        let idx = link.index() * 2 + dir;
        self.link_bytes[idx] += u64::from(size);
        if self.telemetry.is_enabled() {
            let _tel = prof::scope("engine/telemetry");
            let class = (self.meta.kind)(&pkt);
            self.telemetry.packet_out(from.0, idx, size);
            self.journal(from, TraceEvent::Send, class, size, to.0, 0);
        }
        let prop = self.topology.link_delay(link);
        let arrival = match self.topology.link_bandwidth(link) {
            None => self.now + prop,
            Some(bw) => {
                let tx = SimDuration::from_secs_f64(f64::from(size) / bw as f64);
                let start = self.link_busy[idx].max(self.now);
                self.link_busy[idx] = start + tx;
                start + tx + prop
            }
        };
        let span = match lid {
            Some(l) => {
                let _lin = prof::scope("engine/lineage");
                self.lineage.hop(l, cause, to.0, arrival)
            }
            None => NO_SPAN,
        };
        self.push_event(
            arrival,
            Event::Arrival {
                node: to,
                from: Some(from),
                pkt,
                size,
                span,
                // ECN-style inheritance: copies sent while servicing a
                // marked packet carry the mark downstream.
                marked: self.cur_marked,
            },
        );
    }

    fn push_event(&mut self, at: SimTime, ev: Event<P>) {
        let _ins = prof::scope("engine/insert");
        debug_assert!(at >= self.now, "event scheduled in the past");
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.payloads[s] = Some(ev);
                s
            }
            None => {
                self.payloads.push(Some(ev));
                self.payloads.len() - 1
            }
        };
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, slot as u64)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmissionPolicy;

    #[derive(Default)]
    struct World {
        arrivals: Vec<(u64, u32)>, // (time ns, pkt)
    }

    struct Relay {
        to: Option<NodeId>,
        service: SimDuration,
    }

    impl NodeBehavior<u32, World> for Relay {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _from: Option<NodeId>, pkt: u32) {
            let now = ctx.now().as_nanos();
            ctx.world().arrivals.push((now, pkt));
            if let Some(to) = self.to {
                ctx.send(to, pkt, 100);
            }
        }

        fn service_time(&self, _pkt: &u32) -> SimDuration {
            self.service
        }
    }

    fn two_node_sim(
        service_b: SimDuration,
        bw: Option<u64>,
    ) -> (Simulator<u32, World>, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.try_add_link(a, b, SimDuration::from_millis(1), bw)
            .unwrap();
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(
            a,
            Box::new(Relay {
                to: Some(b),
                service: SimDuration::ZERO,
            }),
        );
        sim.set_behavior(
            b,
            Box::new(Relay {
                to: None,
                service: service_b,
            }),
        );
        (sim, a, b)
    }

    #[test]
    fn propagation_delay_applied() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.inject(SimTime::ZERO, a, 7, 100);
        sim.run();
        // Arrival at a at t=0, forwarded, arrives at b at 1ms.
        assert_eq!(sim.world().arrivals, vec![(0, 7), (1_000_000, 7)]);
    }

    #[test]
    fn fifo_queueing_at_busy_server() {
        let (mut sim, a, b) = two_node_sim(SimDuration::from_millis(10), None);
        // Two packets injected back to back; b serves them serially.
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.inject(SimTime::ZERO, a, 2, 100);
        sim.run();
        let b_arrivals: Vec<_> = sim
            .world()
            .arrivals
            .iter()
            .filter(|(t, _)| *t > 0)
            .collect();
        // First completes service at 1ms + 10ms = 11ms; second at 21ms.
        assert_eq!(b_arrivals, vec![&(11_000_000, 1), &(21_000_000, 2)]);
        assert_eq!(sim.node_processed(b), 2);
        assert!(sim.node_max_queue(b) >= 2);
        assert_eq!(sim.node_busy_time(b), SimDuration::from_millis(20));
    }

    #[test]
    fn bandwidth_serialization_delay() {
        // 100 bytes at 100_000 B/s = 1ms tx. Two packets: second waits for
        // the first's serialization.
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, Some(100_000));
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.inject(SimTime::ZERO, a, 2, 100);
        sim.run();
        let b_arrivals: Vec<_> = sim
            .world()
            .arrivals
            .iter()
            .filter(|(t, _)| *t > 0)
            .collect();
        // pkt1: tx 0..1ms, +1ms prop => 2ms. pkt2: tx 1..2ms, +1ms => 3ms.
        assert_eq!(b_arrivals, vec![&(2_000_000, 1), &(3_000_000, 2)]);
    }

    #[test]
    fn link_byte_accounting() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.inject(SimTime::ZERO, a, 2, 50);
        sim.run();
        // Injections do not traverse links; a's relay forwards each packet
        // as 100 bytes, so the a-b link carries 200 bytes total.
        assert_eq!(sim.total_link_bytes(), 200);
        assert_eq!(sim.link_bytes(LinkId(0)), 200);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.inject(SimTime::from_millis(100), a, 2, 100);
        sim.run_until(SimTime::from_millis(50));
        // Second injection still pending.
        assert!(!sim.is_idle());
        assert_eq!(sim.world().arrivals.len(), 2); // a@0 and b@1ms
        sim.run();
        assert_eq!(sim.world().arrivals.len(), 4);
    }

    struct TimerNode {
        fired: Vec<u64>,
    }

    impl NodeBehavior<u32, World> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, World>) {
            ctx.schedule(SimDuration::from_millis(5), 42);
            ctx.schedule(SimDuration::from_millis(1), 41);
        }

        fn on_packet(&mut self, _ctx: &mut Ctx<'_, u32, World>, _from: Option<NodeId>, _pkt: u32) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, World>, key: u64) {
            let now = ctx.now().as_nanos();
            ctx.world().arrivals.push((now, key as u32));
            self.fired.push(key);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(TimerNode { fired: vec![] }));
        sim.run();
        assert_eq!(sim.world().arrivals, vec![(1_000_000, 41), (5_000_000, 42)]);
    }

    struct Consumer;
    impl NodeBehavior<u32, World> for Consumer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _from: Option<NodeId>, pkt: u32) {
            let now = ctx.now().as_nanos();
            ctx.world().arrivals.push((now, pkt));
            // Each packet costs an extra 10ms of post-processing.
            ctx.consume(SimDuration::from_millis(10));
        }
    }

    #[test]
    fn consume_extends_busy_period() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Consumer));
        sim.inject(SimTime::ZERO, a, 1, 10);
        sim.inject(SimTime::ZERO, a, 2, 10);
        sim.run();
        // pkt1 processed at 0, then 10ms of extra work before pkt2.
        assert_eq!(sim.world().arrivals, vec![(0, 1), (10_000_000, 2)]);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two packets at the same instant keep injection order.
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.inject(SimTime::from_millis(1), a, 10, 1);
        sim.inject(SimTime::from_millis(1), a, 20, 1);
        sim.run();
        let pkts: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(pkts, vec![10, 20, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn sending_to_non_neighbor_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.try_add_link(a, b, SimDuration::from_millis(1), None)
            .unwrap();
        t.try_add_link(b, c, SimDuration::from_millis(1), None)
            .unwrap();
        struct Bad(NodeId);
        impl NodeBehavior<u32, World> for Bad {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, p: u32) {
                ctx.send(self.0, p, 1);
            }
        }
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Bad(c)));
        sim.inject(SimTime::ZERO, a, 1, 1);
        sim.run();
    }

    fn telemetry_sim() -> (Simulator<u32, World>, NodeId, NodeId) {
        let (mut sim, a, b) = two_node_sim(SimDuration::from_millis(10), None);
        sim.set_packet_meta(PacketMeta {
            kind: |p| if *p % 2 == 0 { "even" } else { "odd" },
            ..PacketMeta::default()
        });
        sim.enable_telemetry(TelemetryConfig::default());
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.inject(SimTime::ZERO, a, 2, 100);
        sim.run();
        (sim, a, b)
    }

    #[test]
    fn telemetry_counts_per_node_and_link_traffic() {
        let (sim, a, b) = telemetry_sim();
        let report = sim.telemetry_report("t", 0);
        let s = report.summary.to_string();
        // a relays both packets: 2 in (injected), 2 out; b: 2 in, 0 out.
        assert!(s.contains(r#""name":"a","kind":"core","pkts_in":2,"bytes_in":200,"pkts_out":2,"bytes_out":200"#), "{s}");
        assert!(
            s.contains(
                r#""name":"b","kind":"core","pkts_in":2,"bytes_in":200,"pkts_out":0,"bytes_out":0"#
            ),
            "{s}"
        );
        // Telemetry's own link accounting reconciles with the engine's.
        assert_eq!(sim.telemetry().link_bytes_total(), sim.total_link_bytes());
        assert!(s.contains(r#""link_bytes_total":200"#), "{s}");
        // b's second packet waited ~10ms behind the first: its queueing
        // histogram has one zero-wait and one ~10ms sample.
        let _ = (a, b);
        assert!(
            s.contains(r#""metric""#) || s.contains(r#""counters":[]"#),
            "{s}"
        );
    }

    #[test]
    fn telemetry_journal_is_deterministic() {
        let (sim1, _, _) = telemetry_sim();
        let (sim2, _, _) = telemetry_sim();
        let r1 = sim1.telemetry_report("t", 0);
        let r2 = sim2.telemetry_report("t", 0);
        assert_eq!(r1.fingerprint, r2.fingerprint);
        assert_eq!(r1.summary.to_string(), r2.summary.to_string());
        assert_eq!(
            Json::arr(r1.trace_events).to_string(),
            Json::arr(r2.trace_events).to_string()
        );
        // enq + deq + deliver at a and b, plus sends at a: 2 pkts * 7 = 14.
        assert_eq!(sim1.telemetry().journal_records().len(), 14);
    }

    #[test]
    fn telemetry_records_queueing_and_service() {
        let (sim, _, b) = telemetry_sim();
        let s = sim.telemetry_report("t", 0).summary.to_string();
        // b's service histogram: two 10ms samples, exact sum/mean.
        assert!(
            s.contains(r#""service_ns":{"count":2,"sum":20000000,"mean":10000000"#),
            "{s}"
        );
        assert_eq!(sim.node_busy_time(b), SimDuration::from_millis(20));
    }

    #[test]
    fn telemetry_disabled_keeps_zeroes() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.run();
        assert!(!sim.telemetry().is_enabled());
        assert!(sim.telemetry().journal_records().is_empty());
        assert_eq!(sim.telemetry().link_bytes_total(), 0);
    }

    #[test]
    fn ctx_discard_and_counter_flow_into_report() {
        struct Dropper;
        impl NodeBehavior<u32, World> for Dropper {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, _p: u32) {
                ctx.counter("seen", 1);
                ctx.observe("size", 64);
                ctx.gauge("depth", 3);
                ctx.discard("no-route", 64);
            }
        }
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Dropper));
        sim.enable_telemetry(TelemetryConfig::default());
        sim.inject(SimTime::ZERO, a, 1, 64);
        sim.run();
        assert_eq!(sim.telemetry().counter_value(0, "seen"), 1);
        assert_eq!(sim.telemetry().counter_value(0, "drop"), 1);
        let s = sim.telemetry_report("t", 0).summary.to_string();
        assert!(s.contains(r#""metric":"depth","value":3"#), "{s}");
        assert!(s.contains(r#""metric":"size""#), "{s}");
        let drops: Vec<_> = sim
            .telemetry()
            .journal_records()
            .iter()
            .filter(|r| r.event == TraceEvent::Drop)
            .collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].class, "no-route");
        assert_eq!(sim.dropped("no-route"), 1);
        assert_eq!(sim.dropped("link-lost"), 0);
    }

    /// A batch of `n` items is `n` on the ledger and on the reason's
    /// counter, but one `"drop"` and one journal record of size `n`; an
    /// empty batch writes nothing at all.
    #[test]
    fn discard_batch_counts_items_once_and_records_once() {
        struct Sweeper;
        impl NodeBehavior<u32, World> for Sweeper {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, n: u32) {
                ctx.discard_batch("swept", n as usize);
            }
        }
        let run = |n: u32| {
            let mut t = Topology::new();
            let a = t.add_node("a");
            let mut sim = Simulator::new(t, World::default());
            sim.set_behavior(a, Box::new(Sweeper));
            sim.enable_telemetry(TelemetryConfig::default());
            sim.inject(SimTime::ZERO, a, n, 1);
            sim.run();
            sim
        };
        for n in [1, 7] {
            let sim = run(n);
            let tele = sim.telemetry();
            assert_eq!(sim.dropped("swept"), u64::from(n));
            assert_eq!(tele.counter_value(0, "swept"), u64::from(n));
            assert_eq!(tele.counter_value(0, "drop"), 1);
            let records: Vec<_> = tele
                .journal_records()
                .iter()
                .filter(|r| r.event == TraceEvent::Drop)
                .map(|r| (r.class, r.size))
                .collect();
            assert_eq!(records, vec![("swept", n)]);
        }
        let empty = run(0);
        assert_eq!(empty.dropped("swept"), 0);
        assert_eq!(empty.telemetry().counter_value(0, "drop"), 0);
        assert_eq!(empty.telemetry().counter_value(0, "swept"), 0);
        let journal = empty.telemetry().journal_records();
        assert!(journal.iter().all(|r| r.event != TraceEvent::Drop));
    }

    #[test]
    fn link_down_drops_and_link_up_restores() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.install_faults(
            FaultPlan::new(1)
                .link_down(SimTime::from_millis(10), LinkId(0))
                .link_up(SimTime::from_millis(30), LinkId(0)),
        );
        sim.inject(SimTime::from_millis(0), a, 1, 100); // delivered
        sim.inject(SimTime::from_millis(20), a, 2, 100); // link down: lost
        sim.inject(SimTime::from_millis(40), a, 3, 100); // repaired: delivered
        sim.run();
        let b_pkts: Vec<u32> = sim
            .world()
            .arrivals
            .iter()
            .filter(|(t, _)| *t > 0 && *t != 20_000_000 && *t != 40_000_000)
            .map(|&(_, p)| p)
            .collect();
        assert_eq!(b_pkts, vec![1, 3]);
        assert_eq!(sim.dropped("link-lost"), 1);
        assert_eq!(sim.dropped("node-lost"), 0);
        assert_eq!(sim.last_repair_time(), Some(SimTime::from_millis(30)));
    }

    #[test]
    fn bernoulli_loss_is_seeded_and_deterministic() {
        let run = |seed: u64| {
            let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
            sim.install_faults(FaultPlan::new(seed).with_loss(0.5));
            for i in 0..100u32 {
                sim.inject(SimTime::from_millis(u64::from(i)), a, i, 100);
            }
            sim.run();
            // Both relays record: a packet seen twice survived the a->b hop.
            let mut seen = std::collections::BTreeMap::new();
            for &(_, p) in &sim.world().arrivals {
                *seen.entry(p).or_insert(0u32) += 1;
            }
            let mut delivered: Vec<u32> = seen
                .iter()
                .filter(|&(_, &c)| c == 2)
                .map(|(&p, _)| p)
                .collect();
            delivered.sort_unstable();
            (delivered, sim.dropped("link-lost"))
        };
        let (d1, drops1) = run(42);
        let (d2, drops2) = run(42);
        assert_eq!(d1, d2);
        assert_eq!(drops1, drops2);
        // p=0.5 over 100 packets: some lost, some delivered.
        assert!(drops1 > 10, "{drops1}");
        assert!(d1.len() > 10, "{d1:?}");
        assert_eq!(d1.len() + drops1 as usize, 100);
        // A different seed picks a different loss pattern.
        let (d3, _) = run(43);
        assert_ne!(d1, d3);
    }

    #[test]
    fn node_crash_flushes_queue_and_restart_notifies() {
        /// Forwards to `0` without recording; records fault notices.
        struct Source(NodeId);
        impl NodeBehavior<u32, World> for Source {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, p: u32) {
                ctx.send(self.0, p, 100);
            }
            fn on_fault(&mut self, ctx: &mut Ctx<'_, u32, World>, notice: FaultNotice) {
                let now = ctx.now().as_nanos();
                let tag = match notice {
                    FaultNotice::LinkDown { .. } => 9_001,
                    FaultNotice::LinkUp { .. } => 9_002,
                    FaultNotice::Restarted => 9_003,
                };
                ctx.world().arrivals.push((now, tag));
            }
        }
        /// Slow sink that records completed packets and its own restart.
        struct Sink;
        impl NodeBehavior<u32, World> for Sink {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, p: u32) {
                let now = ctx.now().as_nanos();
                ctx.world().arrivals.push((now, p));
            }
            fn on_fault(&mut self, ctx: &mut Ctx<'_, u32, World>, notice: FaultNotice) {
                if notice == FaultNotice::Restarted {
                    let now = ctx.now().as_nanos();
                    ctx.world().arrivals.push((now, 9_003));
                }
            }
            fn service_time(&self, _pkt: &u32) -> SimDuration {
                SimDuration::from_millis(10)
            }
        }
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.try_add_link(a, b, SimDuration::from_millis(1), None)
            .unwrap();
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Source(b)));
        sim.set_behavior(b, Box::new(Sink));
        sim.install_faults(
            FaultPlan::new(5)
                .node_down(SimTime::from_millis(15), b)
                .node_up(SimTime::from_millis(50), b),
        );
        // Three packets at b: first served at 11ms (arrive 1ms + 10ms
        // service), the other two still queued/being served when b crashes
        // at 15ms.
        for i in 1..=3u32 {
            sim.inject(SimTime::ZERO, a, i, 100);
        }
        // After restart, a fresh packet must flow again.
        sim.inject(SimTime::from_millis(60), a, 7, 100);
        sim.run();
        let tags: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        // a sees LinkDown (peer crash) and LinkUp (peer restart); b sees
        // Restarted; packet 1 completed service, 2 and 3 died with b,
        // packet 7 flows after recovery.
        assert!(tags.contains(&9_001), "{tags:?}");
        assert!(tags.contains(&9_002), "{tags:?}");
        assert!(tags.contains(&9_003), "{tags:?}");
        assert!(tags.contains(&1) && tags.contains(&7), "{tags:?}");
        assert!(!tags.contains(&2) && !tags.contains(&3), "{tags:?}");
        assert_eq!(sim.dropped("node-lost"), 2);
        assert!(sim.node_is_up(b));
    }

    #[test]
    fn timers_do_not_survive_a_crash() {
        struct Arm;
        impl NodeBehavior<u32, World> for Arm {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32, World>) {
                ctx.schedule(SimDuration::from_millis(20), 1);
            }
            fn on_packet(&mut self, _c: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, _p: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, World>, key: u64) {
                let now = ctx.now().as_nanos();
                ctx.world().arrivals.push((now, key as u32));
            }
            fn on_fault(&mut self, ctx: &mut Ctx<'_, u32, World>, notice: FaultNotice) {
                if notice == FaultNotice::Restarted {
                    ctx.schedule(SimDuration::from_millis(5), 2);
                }
            }
        }
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Arm));
        sim.install_faults(
            FaultPlan::new(0)
                .node_down(SimTime::from_millis(10), a)
                .node_up(SimTime::from_millis(15), a),
        );
        sim.run();
        // The pre-crash timer (key 1, due at 20ms) is discarded; the timer
        // armed on restart (key 2, due at 20ms too) fires.
        assert_eq!(sim.world().arrivals, vec![(20_000_000, 2)]);
    }

    #[test]
    fn fault_routing_recomputes_around_failures() {
        // a - b - c triangle with a slow direct a-c link; kill a-b and the
        // send_toward path a->c switches to the direct link.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let ab = t
            .try_add_link(a, b, SimDuration::from_millis(1), None)
            .unwrap();
        t.try_add_link(b, c, SimDuration::from_millis(1), None)
            .unwrap();
        t.try_add_link(a, c, SimDuration::from_millis(5), None)
            .unwrap();
        struct Fwd(NodeId);
        impl NodeBehavior<u32, World> for Fwd {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, p: u32) {
                let now = ctx.now().as_nanos();
                ctx.world().arrivals.push((now, p));
                if ctx.node() != self.0 {
                    ctx.send_toward(self.0, p, 10);
                }
            }
        }
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Fwd(c)));
        sim.set_behavior(b, Box::new(Fwd(c)));
        sim.set_behavior(c, Box::new(Fwd(c)));
        sim.install_faults(FaultPlan::new(2).link_down(SimTime::from_millis(10), ab));
        sim.inject(SimTime::ZERO, a, 1, 10); // via b: arrives at 2ms
        sim.inject(SimTime::from_millis(20), a, 2, 10); // direct: 25ms
        sim.run();
        assert!(sim.world().arrivals.contains(&(2_000_000, 1)));
        assert!(sim.world().arrivals.contains(&(25_000_000, 2)));
        assert!(!sim.link_is_up(ab));
        assert_eq!(EngineDrop::ALL.map(|why| sim.dropped(why.as_str())), [0; 5]);
    }

    #[test]
    fn vacuous_plan_changes_nothing() {
        let run = |plan: Option<FaultPlan>| {
            let (mut sim, a, _b) = two_node_sim(SimDuration::from_millis(10), None);
            sim.enable_telemetry(TelemetryConfig::default());
            if let Some(p) = plan {
                sim.install_faults(p);
            }
            sim.inject(SimTime::ZERO, a, 1, 100);
            sim.inject(SimTime::ZERO, a, 2, 100);
            sim.run();
            let r = sim.telemetry_report("t", 0);
            (r.fingerprint, r.summary.to_string(), sim.events_processed())
        };
        let base = run(None);
        let vacuous = run(Some(FaultPlan::new(99).with_loss(0.0)));
        assert_eq!(base, vacuous);
        let (mut sim, _, _) = two_node_sim(SimDuration::ZERO, None);
        sim.install_faults(FaultPlan::new(99));
        assert!(sim.faults.is_none());
    }

    struct Deliverer {
        entity: u32,
    }
    impl NodeBehavior<u32, World> for Deliverer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, pkt: u32) {
            let now = ctx.now().as_nanos();
            ctx.world().arrivals.push((now, pkt));
            ctx.lineage_deliver(self.entity);
        }
        fn service_time(&self, _pkt: &u32) -> SimDuration {
            SimDuration::from_millis(2)
        }
    }

    fn lineage_sim() -> (Simulator<u32, World>, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.try_add_link(a, b, SimDuration::from_millis(1), None)
            .unwrap();
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(
            a,
            Box::new(Relay {
                to: Some(b),
                service: SimDuration::ZERO,
            }),
        );
        sim.set_behavior(b, Box::new(Deliverer { entity: 77 }));
        sim.set_packet_meta(PacketMeta {
            lineage_id: |p| (*p < 1000).then(|| u64::from(*p)),
            ..PacketMeta::default()
        });
        sim.enable_lineage(crate::lineage::LineageConfig::default());
        (sim, a, b)
    }

    #[test]
    fn lineage_traces_origin_hop_and_delivery() {
        use crate::lineage::SpanEvent;
        let (mut sim, a, _b) = lineage_sim();
        sim.inject(SimTime::ZERO, a, 5, 100);
        sim.run();
        let events: Vec<_> = sim.lineage().spans().iter().map(|s| s.event).collect();
        assert_eq!(
            events,
            vec![SpanEvent::Origin, SpanEvent::Hop, SpanEvent::Deliver]
        );
        let hop = &sim.lineage().spans()[1];
        assert_eq!(hop.lineage, 5);
        assert_eq!(hop.cause, 0);
        // Hop enqueued at 1ms (propagation), served immediately, done after
        // the 2ms service.
        assert_eq!(hop.t_enqueue, SimTime::from_millis(1));
        assert_eq!(hop.t_service_start, SimTime::from_millis(1));
        assert_eq!(hop.t_done, SimTime::from_millis(3));
        let deliver = &sim.lineage().spans()[2];
        assert_eq!(deliver.entity, 77);
        assert_eq!(deliver.cause, 1);
        // Untraced packets (classifier returns None) record nothing.
        sim.inject(sim.now(), a, 2000, 100);
        sim.run();
        assert_eq!(sim.lineage().spans().len(), 3);
    }

    #[test]
    fn lineage_audit_balances_clean_run() {
        let (mut sim, a, _b) = lineage_sim();
        sim.inject(SimTime::ZERO, a, 5, 100);
        sim.lineage_mut().expect(5, SimTime::ZERO, 1, &[77]);
        sim.run();
        let report = sim.lineage().audit(SimTime::from_millis(100), None);
        assert_eq!(report.total_pairs, 1);
        assert_eq!(report.delivered, 1);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn lineage_explains_link_and_node_losses() {
        let (mut sim, a, b) = lineage_sim();
        sim.install_faults(
            FaultPlan::new(3)
                .link_down(SimTime::from_millis(10), LinkId(0))
                .link_up(SimTime::from_millis(20), LinkId(0))
                .node_down(SimTime::from_millis(30), b),
        );
        // pkt 1 dies on the downed link; pkt 2 is blackholed at the dead
        // node (sent at 25ms, arrives 26ms... node dies at 30ms, so give it
        // a queue-flush instead: b's 2ms service makes a 29.5ms arrival
        // still queued at 30ms).
        sim.inject(SimTime::from_millis(15), a, 1, 100);
        sim.lineage_mut()
            .expect(1, SimTime::from_millis(15), 0, &[77]);
        sim.inject(SimTime::from_millis(29), a, 2, 100);
        sim.lineage_mut()
            .expect(2, SimTime::from_millis(29), 0, &[77]);
        // pkt 3 arrives at the dead node: blackholed.
        sim.inject(SimTime::from_millis(40), a, 3, 100);
        sim.lineage_mut()
            .expect(3, SimTime::from_millis(40), 0, &[77]);
        sim.run();
        let report = sim.lineage().audit(SimTime::from_millis(100), None);
        assert_eq!(report.total_pairs, 3);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.dropped.get("link-lost"), Some(&1), "{report:?}");
        assert_eq!(report.dropped.get("node-lost"), Some(&2), "{report:?}");
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn lineage_sampling_and_export_are_deterministic() {
        let run = || {
            let (mut sim, a, _b) = lineage_sim();
            for i in 0..10u32 {
                sim.inject(SimTime::from_millis(u64::from(i)), a, i, 100);
            }
            sim.run();
            sim.lineage().fingerprint()
        };
        assert_eq!(run(), run());

        // 1-in-2 sampling keeps whole lineages of even ids only.
        let (mut sim, a, _b) = lineage_sim();
        sim.enable_lineage(crate::lineage::LineageConfig {
            sample: 2,
            capacity: 1024,
        });
        for i in 0..10u32 {
            sim.inject(SimTime::from_millis(u64::from(i)), a, i, 100);
        }
        sim.run();
        assert!(sim.lineage().spans().iter().all(|s| s.lineage % 2 == 0));
        assert_eq!(sim.lineage().spans().len(), 15); // 5 lineages x 3 spans
    }

    #[test]
    fn lineage_disabled_records_nothing() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.set_packet_meta(PacketMeta {
            lineage_id: |p| Some(u64::from(*p)),
            ..PacketMeta::default()
        });
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.run();
        assert!(!sim.lineage().is_enabled());
        assert!(sim.lineage().spans().is_empty());
    }

    #[test]
    fn timeseries_snapshots_counters_and_queues() {
        let (mut sim, a, _b) = two_node_sim(SimDuration::from_millis(10), None);
        sim.enable_telemetry(TelemetryConfig::default());
        sim.enable_timeseries(TimeSeriesConfig {
            tick: SimDuration::from_millis(5),
            counters: vec!["drop"],
            gauges: vec![],
            per_node: vec![],
        });
        sim.inject(SimTime::ZERO, a, 1, 100);
        sim.inject(SimTime::ZERO, a, 2, 100);
        sim.run_until(SimTime::from_millis(25));
        let json = sim.timeseries_json().expect("enabled").to_string();
        // Frames at 5,10,15,20,25 ms — captured even after the event queue
        // drains (final flush at the horizon).
        assert!(json.contains("\"tick_ns\":5000000"), "{json}");
        assert_eq!(json.matches("\"t_ns\":").count(), 5, "{json}");
        // At t=5ms, b is serving pkt 1 with pkt 2 queued behind it.
        assert!(json.contains("\"queue_sum\":2"), "{json}");
    }

    #[test]
    fn timeseries_stops_at_max_frames() {
        let (mut sim, _a, _b) = two_node_sim(SimDuration::ZERO, None);
        sim.enable_telemetry(TelemetryConfig::default());
        sim.enable_timeseries(TimeSeriesConfig {
            tick: SimDuration::from_millis(1),
            ..TimeSeriesConfig::default()
        });
        // 5 000 ticks are due by the horizon; the sampler keeps the first
        // `MAX_FRAMES`.
        sim.run_until(SimTime::from_secs_f64(5.0));
        let json = sim.timeseries_json().expect("enabled").to_string();
        assert_eq!(
            json.matches("\"t_ns\":").count(),
            crate::telemetry::MAX_FRAMES
        );
    }

    #[test]
    fn timeseries_same_seed_is_byte_identical() {
        let run = || {
            let (mut sim, a, _b) = two_node_sim(SimDuration::from_millis(3), None);
            sim.enable_telemetry(TelemetryConfig::default());
            sim.enable_timeseries(TimeSeriesConfig::default());
            for i in 0..20u32 {
                sim.inject(SimTime::from_millis(u64::from(i) * 100), a, i, 100);
            }
            sim.run_until(SimTime::from_secs_f64(3.0));
            sim.timeseries_json().expect("enabled").to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn send_toward_follows_routing() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.try_add_link(a, b, SimDuration::from_millis(1), None)
            .unwrap();
        t.try_add_link(b, c, SimDuration::from_millis(1), None)
            .unwrap();
        struct Fwd(NodeId);
        impl NodeBehavior<u32, World> for Fwd {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, p: u32) {
                let now = ctx.now().as_nanos();
                ctx.world().arrivals.push((now, p));
                if ctx.node() != self.0 {
                    ctx.send_toward(self.0, p, 10);
                }
            }
        }
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(a, Box::new(Fwd(c)));
        sim.set_behavior(b, Box::new(Fwd(c)));
        sim.set_behavior(c, Box::new(Fwd(c)));
        sim.inject(SimTime::ZERO, a, 5, 10);
        sim.run();
        assert_eq!(
            sim.world().arrivals,
            vec![(0, 5), (1_000_000, 5), (2_000_000, 5)]
        );
    }

    // ---- overload control ----

    /// Test classifier: packets < 100 are control (class 0), rest bulk.
    fn test_prio(p: &u32) -> u8 {
        u8::from(*p >= 100)
    }

    /// Test supersede key: bulk packets supersede per last digit.
    fn test_key(p: &u32) -> Option<u64> {
        (*p >= 100).then_some(u64::from(*p % 10))
    }

    /// One node with 10 ms service and the given overload config.
    fn one_node_overloaded(cfg: OverloadConfig) -> (Simulator<u32, World>, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(
            a,
            Box::new(Relay {
                to: None,
                service: SimDuration::from_millis(10),
            }),
        );
        sim.set_packet_meta(PacketMeta {
            priority: test_prio,
            supersede_key: test_key,
            ..PacketMeta::default()
        });
        sim.install_overload(cfg);
        (sim, a)
    }

    /// `(queue-full, aqm-shed, stale-superseded)` drops so far.
    fn shed(sim: &Simulator<u32, World>) -> (u64, u64, u64) {
        (
            sim.dropped("queue-full"),
            sim.dropped("aqm-shed"),
            sim.dropped("stale-superseded"),
        )
    }

    #[test]
    fn default_packet_meta_is_inert() {
        // No `set_packet_meta`: with telemetry, lineage and a priority
        // config all switched on, every packet is class "pkt", untraced and
        // control priority.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut sim = Simulator::new(t, World::default());
        sim.set_behavior(
            a,
            Box::new(Relay {
                to: None,
                service: SimDuration::from_millis(10),
            }),
        );
        sim.enable_telemetry(TelemetryConfig::default());
        sim.enable_lineage(LineageConfig::default());
        sim.install_overload(OverloadConfig {
            priority: true,
            ..OverloadConfig::default()
        });
        // The arrival order `control_preempts_bulk_and_sheds_last` reorders.
        for p in [200, 201, 1] {
            sim.inject(SimTime::ZERO, a, p, 50);
        }
        sim.run();
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(
            served,
            vec![200, 201, 1],
            "one class: arrival order is service order"
        );
        let journal = sim.telemetry().journal_records();
        assert!(!journal.is_empty() && journal.iter().all(|r| r.class == "pkt"));
        assert!(sim.lineage().spans().is_empty());
    }

    #[test]
    fn vacuous_overload_config_never_installs() {
        let (sim, _) = one_node_overloaded(OverloadConfig::default());
        assert!(!sim.overload_active());
        assert_eq!(shed(&sim), (0, 0, 0));
        assert_eq!(sim.congestion_marks(), 0);
    }

    #[test]
    fn drop_tail_bounds_the_queue() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            queue_capacity: Some(2),
            policy: AdmissionPolicy::DropTail,
            ..OverloadConfig::default()
        });
        for i in 0..6u32 {
            sim.inject(SimTime::ZERO, a, 100 + i, 50);
        }
        sim.run();
        // One in service + two waiting admitted; three tail-dropped.
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(served, vec![100, 101, 102]);
        assert_eq!(shed(&sim), (3, 0, 0));
        assert_eq!(sim.node_max_queue(NodeId(0)), 3);
    }

    #[test]
    fn head_drop_keeps_the_freshest() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            queue_capacity: Some(2),
            policy: AdmissionPolicy::HeadDrop,
            ..OverloadConfig::default()
        });
        for i in 0..6u32 {
            sim.inject(SimTime::ZERO, a, 100 + i, 50);
        }
        sim.run();
        // The in-service front is untouchable; each overflow evicts the
        // oldest *waiting* packet, so the freshest two survive.
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(served, vec![100, 104, 105]);
        assert_eq!(shed(&sim), (3, 0, 0));
    }

    #[test]
    fn control_preempts_bulk_and_sheds_last() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            queue_capacity: Some(8),
            policy: AdmissionPolicy::DropTail,
            priority: true,
            ..OverloadConfig::default()
        });
        // Bulk starts service, more bulk queues, then control arrives.
        sim.inject(SimTime::ZERO, a, 200, 50);
        sim.inject(SimTime::ZERO, a, 201, 50);
        sim.inject(SimTime::ZERO, a, 1, 50);
        sim.run();
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(served, vec![200, 1, 201], "control jumps the bulk queue");
    }

    #[test]
    fn overflow_evicts_bulk_for_control() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            queue_capacity: Some(2),
            policy: AdmissionPolicy::DropTail,
            priority: true,
            ..OverloadConfig::default()
        });
        sim.inject(SimTime::ZERO, a, 200, 50); // in service
        sim.inject(SimTime::ZERO, a, 201, 50); // waiting
        sim.inject(SimTime::ZERO, a, 202, 50); // waiting (queue now full)
        sim.inject(SimTime::ZERO, a, 1, 50); // control: evicts newest bulk
        sim.run();
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(served, vec![200, 1, 201], "202 evicted, control admitted");
        assert_eq!(shed(&sim), (1, 0, 0));
    }

    #[test]
    fn superseded_update_sheds_first() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            queue_capacity: Some(2),
            policy: AdmissionPolicy::DropTail,
            priority: true,
            ..OverloadConfig::default()
        });
        sim.inject(SimTime::ZERO, a, 100, 50); // in service
        sim.inject(SimTime::ZERO, a, 101, 50); // waiting, key 1
        sim.inject(SimTime::ZERO, a, 102, 50); // waiting, key 2 (full)
        sim.inject(SimTime::ZERO, a, 111, 50); // key 1: supersedes 101
        sim.run();
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(served, vec![100, 102, 111], "stale 101 evicted for 111");
        assert_eq!(shed(&sim), (0, 0, 1));
    }

    #[test]
    fn codel_sheds_under_standing_queue_but_never_the_last() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            policy: AdmissionPolicy::CoDel {
                target: SimDuration::from_millis(5),
                interval: SimDuration::from_millis(20),
            },
            ..OverloadConfig::default()
        });
        for i in 0..50u32 {
            sim.inject(SimTime::ZERO, a, 100 + i, 50);
        }
        sim.run();
        let (qf, aqm, stale) = shed(&sim);
        assert_eq!((qf, stale), (0, 0));
        assert!(aqm > 0, "standing 10x overload must shed");
        let served = sim.world().arrivals.len() as u64;
        assert_eq!(served + aqm, 50, "every packet served or shed");
        assert!(served > 1, "AQM must not starve the queue");
        // The very last packet is never shed.
        assert_eq!(sim.world().arrivals.last().map(|&(_, p)| p), Some(149));
    }

    #[test]
    fn codel_spares_control_class() {
        let (mut sim, a) = one_node_overloaded(OverloadConfig {
            policy: AdmissionPolicy::CoDel {
                target: SimDuration::from_millis(5),
                interval: SimDuration::from_millis(20),
            },
            priority: true,
            ..OverloadConfig::default()
        });
        for i in 0..25u32 {
            sim.inject(SimTime::ZERO, a, 100 + i, 50); // bulk
            sim.inject(SimTime::ZERO, a, i, 50); // control
        }
        sim.run();
        let served: Vec<u32> = sim.world().arrivals.iter().map(|&(_, p)| p).collect();
        let ctl = served.iter().filter(|&&p| p < 100).count();
        assert_eq!(ctl, 25, "control is never AQM-shed");
        assert!(shed(&sim).1 > 0, "bulk is shed");
    }

    #[test]
    fn sojourn_marks_propagate_downstream() {
        struct Fwd {
            to: Option<NodeId>,
            service: SimDuration,
        }
        impl NodeBehavior<u32, Vec<bool>> for Fwd {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, Vec<bool>>, _f: Option<NodeId>, p: u32) {
                match self.to {
                    Some(to) => ctx.send(to, p, 50),
                    None => {
                        let m = ctx.congestion_marked();
                        ctx.world().push(m);
                    }
                }
            }
            fn service_time(&self, _p: &u32) -> SimDuration {
                self.service
            }
        }
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.try_add_link(a, b, SimDuration::from_millis(1), None)
            .unwrap();
        let mut sim = Simulator::new(t, Vec::new());
        // a is the bottleneck (10 ms); b is fast, so any mark seen at b was
        // inherited from a's queue.
        sim.set_behavior(
            a,
            Box::new(Fwd {
                to: Some(b),
                service: SimDuration::from_millis(10),
            }),
        );
        sim.set_behavior(
            b,
            Box::new(Fwd {
                to: None,
                service: SimDuration::ZERO,
            }),
        );
        sim.install_overload(OverloadConfig {
            mark_sojourn: Some(SimDuration::from_millis(15)),
            ..OverloadConfig::default()
        });
        for i in 0..4u32 {
            sim.inject(SimTime::ZERO, a, i, 50);
        }
        sim.run();
        // Sojourns at a: 10, 20, 30, 40 ms — the first stays unmarked.
        assert_eq!(sim.world(), &vec![false, true, true, true]);
        assert_eq!(sim.congestion_marks(), 3);
    }

    #[test]
    fn overload_policies_are_same_seed_deterministic() {
        let run = || {
            let (mut sim, a) = one_node_overloaded(OverloadConfig {
                queue_capacity: Some(3),
                policy: AdmissionPolicy::CoDel {
                    target: SimDuration::from_millis(2),
                    interval: SimDuration::from_millis(10),
                },
                priority: true,
                mark_sojourn: Some(SimDuration::from_millis(4)),
            });
            sim.enable_telemetry(TelemetryConfig::default());
            for i in 0..40u32 {
                sim.inject(SimTime::from_millis(u64::from(i)), a, 100 + i, 50);
                if i % 5 == 0 {
                    sim.inject(SimTime::from_millis(u64::from(i)), a, i, 20);
                }
            }
            sim.run();
            let fp = sim.telemetry().journal_fingerprint();
            (fp, shed(&sim), sim.congestion_marks())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.1 .0 + a.1 .1 + a.1 .2 > 0, "the scenario must shed");
    }
}
