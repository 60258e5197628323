//! A deterministic discrete-event network simulator for G-COPSS.
//!
//! The paper evaluates G-COPSS on a small lab testbed (for microbenchmarks)
//! and on a trace-driven simulator parameterized by those microbenchmarks
//! (§V). This crate is that simulator, built from scratch:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Topology`] — nodes and bidirectional links with propagation delay and
//!   optional bandwidth; generators for the paper's 6-router benchmark
//!   topology and a Rocketfuel-like backbone (79 core routers).
//! * [`RoutingTable`] — all-pairs shortest-path next hops (Dijkstra over
//!   link weights), standing in for the routing underlay.
//! * [`Simulator`] — the event loop. Every node is a [`NodeBehavior`]: a
//!   state machine that receives packets and timers and emits sends. Nodes
//!   are single-server FIFO queues (per-packet service time), links add
//!   propagation delay plus serialization time when bandwidth is finite —
//!   exactly the two latency sources the paper measures (processing and
//!   queueing). The loop is generic over the packet type: what telemetry,
//!   lineage and overload control need to know about a packet comes from
//!   one registered [`PacketMeta`], and every packet the engine itself
//!   drops is accounted on one path, tallied per [`EngineDrop`] reason.
//! * [`fault`] — deterministic fault injection: a seeded chaos schedule of
//!   link/node failures and repairs plus per-hop Bernoulli loss, with
//!   routing recomputed over the surviving subgraph after every change and
//!   behaviors notified through [`NodeBehavior::on_fault`].
//! * [`overload`] — overload control: bounded per-node service queues with
//!   drop-tail / head-drop / CoDel-style sojourn AQM admission, priority
//!   classes (control preempts bulk, stale superseded updates shed first),
//!   and congestion marks surfaced to behaviors via
//!   [`Ctx::congestion_marked`]; installed via
//!   [`Simulator::install_overload`], vacuous configs are byte-identical
//!   no-ops.
//! * [`metrics`] — latency recorders, CDFs and link-load accounting used to
//!   regenerate the paper's tables and figures.
//! * [`telemetry`] — per-node/per-link counters, log-scale histograms, a
//!   bounded deterministic packet-trace journal (exportable as Chrome
//!   trace-event JSON for Perfetto), and a periodic time-series sampler,
//!   fed automatically by the engine when enabled via
//!   [`Simulator::enable_telemetry`] / [`Simulator::enable_timeseries`].
//! * [`lineage`] — per-message causal span tracing (origin, hops, fan-out,
//!   drops, terminal deliveries) plus a post-run delivery auditor that
//!   classifies every `(message, subscriber)` pair; enabled via
//!   [`Simulator::enable_lineage`].
//! * [`stream`] — in-simulation streaming metrics: windowed counters, EWMA
//!   gauges and space-saving heavy-hitter sketches rolled at a simulated
//!   tick, fed and read back by behaviors through [`Ctx`] so adaptive
//!   policies (RP balancing, per-prefix caching) can act on live signals;
//!   installed via [`Simulator::install_streams`], vacuous configs are
//!   byte-identical no-ops.
//! * [`prof`] — self-profiling of the simulator itself: a hierarchical
//!   phase profiler over a monotonic clock, instrumenting the event loop
//!   and every engine's dispatch path; reports a hot-loop time-attribution
//!   table and a counts-only determinism fingerprint.
//!
//! The simulator is fully deterministic: no wall-clock time, no random
//! iteration order, and ties in the event queue are broken by insertion
//! sequence number.
//!
//! # Example
//!
//! A two-node hop: a packet injected at `a` is forwarded to `b`, which
//! records its arrival time in the shared world state.
//!
//! ```
//! use gcopss_sim::{Ctx, NodeBehavior, NodeId, SimDuration, SimTime, Simulator, Topology};
//!
//! struct Forward(NodeId);
//! impl NodeBehavior<u32, Vec<u64>> for Forward {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, Vec<u64>>, _from: Option<NodeId>, pkt: u32) {
//!         ctx.send(self.0, pkt, 100);
//!     }
//! }
//!
//! struct Sink;
//! impl NodeBehavior<u32, Vec<u64>> for Sink {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, Vec<u64>>, _from: Option<NodeId>, _pkt: u32) {
//!         let now = ctx.now();
//!         ctx.world().push(now.as_nanos());
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! topo.try_add_link(a, b, SimDuration::from_millis(5), None).unwrap();
//!
//! let mut sim = Simulator::new(topo, Vec::new());
//! sim.set_behavior(a, Box::new(Forward(b)));
//! sim.set_behavior(b, Box::new(Sink));
//! sim.inject(SimTime::ZERO, a, 0u32, 100);
//! sim.run();
//! assert_eq!(sim.world()[0], 5_000_000); // one 5 ms hop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod fault;
pub mod generators;
pub mod json;
pub mod lineage;
pub mod metrics;
pub mod overload;
pub mod prof;
mod routing;
pub mod stream;
pub mod telemetry;
mod time;
mod topology;

pub use engine::{Ctx, EngineDrop, NodeBehavior, PacketMeta, Simulator};
pub use fault::{FaultEvent, FaultNotice, FaultPlan};
pub use overload::{AdmissionPolicy, OverloadConfig};
pub use lineage::{AuditReport, LineageConfig, LineageLog, SpanEvent, SpanRecord, NO_SPAN};
pub use stream::{MetricStreams, SpaceSaving, StreamConfig};
pub use telemetry::{
    LogHistogram, Telemetry, TelemetryConfig, TelemetryReport, TimeSeries, TimeSeriesConfig,
    TraceEvent, TraceRecord,
};
pub use routing::RoutingTable;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkId, NodeId, NodeKind, Topology, TopologyError};

/// The FNV-1a 64-bit offset basis: the hash of the empty input, and where
/// every fingerprint starts.
pub(crate) const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a 64-bit hash `h` — the one hash
/// behind the journal, lineage and prof-count fingerprints.
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::{fnv1a, FNV1A_OFFSET};

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325_u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = FNV1A_OFFSET;
            fnv1a(&mut h, input.as_bytes());
            assert_eq!(h, want, "{input:?}");
        }
    }
}
