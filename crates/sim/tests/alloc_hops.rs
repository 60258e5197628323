//! Allocation regression: once its buffers are warm, the engine forwards a
//! packet one hop without calling the allocator (DESIGN.md, "Allocation
//! discipline"), and building the routing table costs the same heap calls
//! however many hosts hang off the backbone.

use gcopss_sim::{
    generators, Ctx, NodeBehavior, NodeId, RoutingTable, SimDuration, Simulator, Topology,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Forwards every packet to `next` and re-arms a timer per packet, so both
/// of the engine's effect buffers are exercised on every hop.
struct Relay {
    next: Option<NodeId>,
}

impl NodeBehavior<u32, u64> for Relay {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u64>, _from: Option<NodeId>, pkt: u32) {
        *ctx.world() += 1;
        ctx.schedule(SimDuration::from_micros(5), u64::from(pkt));
        if let Some(next) = self.next {
            ctx.send(next, pkt, 100);
        }
    }

    fn service_time(&self, _pkt: &u32) -> SimDuration {
        SimDuration::from_micros(30)
    }
}

const CHAIN: usize = 6;
const PACKETS: u32 = 200;

/// A burst of `PACKETS` packets into the head of the chain, 10 µs apart —
/// faster than the 30 µs service time, so queues build up at every node.
fn inject_burst(sim: &mut Simulator<u32, u64>, head: NodeId) {
    let start = sim.now();
    for i in 0..PACKETS {
        let at = start + SimDuration::from_micros(10 * u64::from(i));
        sim.inject(at, head, i, 100);
    }
}

#[test]
fn warm_relay_chain_forwards_without_heap_calls() {
    let mut t = Topology::new();
    let nodes: Vec<NodeId> = (0..CHAIN).map(|i| t.add_node(format!("n{i}"))).collect();
    for w in nodes.windows(2) {
        t.try_add_link(w[0], w[1], SimDuration::from_millis(1), Some(10_000_000))
            .unwrap();
    }
    let mut sim = Simulator::new(t, 0u64);
    for (i, &n) in nodes.iter().enumerate() {
        sim.set_behavior(
            n,
            Box::new(Relay {
                next: nodes.get(i + 1).copied(),
            }),
        );
    }

    // Warm-up: the same burst once, to quiescence — event heap, payload
    // slab, per-node queues and the send/timer buffers reach their size.
    inject_burst(&mut sim, nodes[0]);
    sim.run();
    let hops = u64::from(PACKETS) * CHAIN as u64;
    assert_eq!(*sim.world(), hops);

    let events_before = sim.events_processed();
    let calls_before = counting_alloc::heap_calls();
    inject_burst(&mut sim, nodes[0]);
    sim.run();
    let calls = counting_alloc::heap_calls() - calls_before;

    assert_eq!(*sim.world(), 2 * hops, "the measured burst was forwarded");
    assert!(sim.events_processed() - events_before >= 3 * hops);
    assert_eq!(calls, 0, "{calls} heap calls over {hops} warm packet-hops");
}

/// The routing build runs Dijkstra over the routers alone, with its work
/// buffers allocated once per build: 100 or 1 000 single-homed hosts on the
/// same backbone cost the same heap calls, where per-source buffers would
/// add calls for every host.
#[test]
fn routing_build_heap_calls_do_not_grow_with_hosts() {
    let calls: Vec<u64> = [100, 1_000]
        .into_iter()
        .map(|hosts| {
            let mut b = generators::rocketfuel_like(3, &generators::BackboneParams::default());
            generators::attach_hosts(
                &mut b.topology,
                &b.edge,
                hosts,
                SimDuration::from_millis(1),
                "h",
            );
            let before = counting_alloc::heap_calls();
            let rt = RoutingTable::shortest_paths(&b.topology);
            let calls = counting_alloc::heap_calls() - before;
            assert!(rt
                .distance(NodeId(0), b.topology.node_ids().last().unwrap())
                .is_some());
            calls
        })
        .collect();
    assert_eq!(
        calls[0], calls[1],
        "heap calls with 100 and with 1 000 hosts"
    );
}
