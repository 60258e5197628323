//! Layer probes taken outside the timed repetitions (traced runs only).

use gcopss_sim::generators::{rocketfuel_like, BackboneParams};
use gcopss_sim::{Ctx, NodeBehavior, NodeId, SimDuration, SimTime, Simulator};

use crate::spans::Spans;
use crate::stats;
use crate::workload::NET_SEED;

/// A packet that wanders the backbone: routed toward `dst`, and on arrival
/// re-aimed at another edge router until its hop budget is spent.
#[derive(Debug, Clone, Copy)]
struct Wanderer {
    dst: u32,
    hops_left: u32,
}

/// Relays every packet one hop and does nothing else, so a run costs only
/// what the engine itself charges per event: pop, arrival, service,
/// transmit, insert.
struct Relay {
    edges: std::sync::Arc<Vec<NodeId>>,
}

impl NodeBehavior<Wanderer, ()> for Relay {
    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, Wanderer, ()>,
        _from: Option<NodeId>,
        mut pkt: Wanderer,
    ) {
        if pkt.hops_left == 0 {
            return;
        }
        pkt.hops_left -= 1;
        if self.edges[pkt.dst as usize] == ctx.node() {
            pkt.dst = (pkt.dst + 37) % self.edges.len() as u32;
        }
        ctx.send_toward(self.edges[pkt.dst as usize], pkt, 100);
    }

    fn service_time(&self, _pkt: &Wanderer) -> SimDuration {
        SimDuration::from_micros(10)
    }
}

/// `sim.engine.null_ns_per_event`: host nanoseconds per engine event with a
/// null behavior on the workloads' backbone and a fixed packet script
/// (2 000 packets × 250 hops). Floor of two runs.
pub fn null_engine_ns_per_event(spans: &mut Spans) -> f64 {
    const PACKETS: u32 = 2_000;
    const HOPS: u32 = 250;
    let per_event: Vec<f64> = (0..2)
        .map(|_| {
            let backbone = rocketfuel_like(NET_SEED, &BackboneParams::default());
            let edges = std::sync::Arc::new(backbone.edge);
            let routers: Vec<NodeId> = backbone.topology.node_ids().collect();
            let mut sim: Simulator<Wanderer, ()> = Simulator::new(backbone.topology, ());
            for r in routers {
                sim.set_behavior(
                    r,
                    Box::new(Relay {
                        edges: edges.clone(),
                    }),
                );
            }
            for i in 0..PACKETS {
                let at = i as usize % edges.len();
                let pkt = Wanderer {
                    dst: (i * 7 + 1) % edges.len() as u32,
                    hops_left: HOPS,
                };
                sim.inject(
                    SimTime::ZERO + SimDuration::from_micros(u64::from(i) * 50),
                    edges[at],
                    pkt,
                    100,
                );
            }
            let (_, secs) = spans.scope("sim.engine.null_run", 0, |_| sim.run());
            secs * 1e9 / sim.events_processed() as f64
        })
        .collect();
    stats::floor(&per_event)
}
