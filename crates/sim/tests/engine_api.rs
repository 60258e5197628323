//! Integration tests of the simulator's public control API: stepping,
//! idleness, utilization accounting and bandwidth-constrained links.

use gcopss_sim::{
    generators, metrics::OnlineStats, Ctx, NodeBehavior, NodeId, SimDuration, SimTime, Simulator,
    Topology,
};

type World = Vec<u64>;

struct Echoes {
    peer: Option<NodeId>,
    service: SimDuration,
}

impl NodeBehavior<u32, World> for Echoes {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _from: Option<NodeId>, pkt: u32) {
        let now = ctx.now().as_nanos();
        ctx.world().push(now);
        if let Some(p) = self.peer {
            if pkt > 0 {
                ctx.send(p, pkt - 1, 64);
            }
        }
    }
    fn service_time(&self, _pkt: &u32) -> SimDuration {
        self.service
    }
}

fn ping_pong(service: SimDuration) -> (Simulator<u32, World>, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node("a");
    let b = t.add_node("b");
    t.try_add_link(a, b, SimDuration::from_millis(1), None).unwrap();
    let mut sim = Simulator::new(t, World::new());
    sim.set_behavior(a, Box::new(Echoes { peer: Some(b), service }));
    sim.set_behavior(b, Box::new(Echoes { peer: Some(a), service }));
    (sim, a, b)
}

#[test]
fn step_processes_bounded_events() {
    let (mut sim, a, _) = ping_pong(SimDuration::ZERO);
    sim.inject(SimTime::ZERO, a, 10, 64);
    // Each step is one event; the ping-pong has 11 arrivals + 11 services.
    let done = sim.step(3);
    assert_eq!(done, 3);
    assert!(!sim.is_idle());
    // Drain the rest.
    while sim.step(100) > 0 {}
    assert!(sim.is_idle());
    assert_eq!(sim.world().len(), 11, "10 bounces + initial");
}

#[test]
fn busy_time_tracks_utilization() {
    let (mut sim, a, b) = ping_pong(SimDuration::from_millis(2));
    sim.inject(SimTime::ZERO, a, 9, 64);
    sim.run();
    // Ten packets served total (5 at each node), 2 ms each.
    let total = sim.node_busy_time(a) + sim.node_busy_time(b);
    assert_eq!(total, SimDuration::from_millis(20));
    assert!(sim.events_processed() > 10);
}

#[test]
fn bandwidth_throttles_throughput() {
    // 64-byte packets over a 64 kB/s link take 1 ms of serialization each.
    let mut t = Topology::new();
    let a = t.add_node("a");
    let b = t.add_node("b");
    t.try_add_link(a, b, SimDuration::ZERO, Some(64_000)).unwrap();
    struct Burst(NodeId);
    impl NodeBehavior<u32, World> for Burst {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, from: Option<NodeId>, pkt: u32) {
            if from.is_none() {
                for _ in 0..pkt {
                    ctx.send(self.0, 0, 64);
                }
            } else {
                let now = ctx.now().as_nanos();
                ctx.world().push(now);
            }
        }
    }
    let mut sim = Simulator::new(t, World::new());
    sim.set_behavior(a, Box::new(Burst(b)));
    sim.set_behavior(b, Box::new(Burst(a)));
    sim.inject(SimTime::ZERO, a, 10, 1);
    sim.run();
    let w = sim.world();
    assert_eq!(w.len(), 10);
    // Arrival spacing equals the serialization time.
    assert_eq!(w[0], 1_000_000);
    assert_eq!(w[9], 10_000_000);
}

#[test]
fn online_stats_merging_matches_bulk() {
    let mut all = OnlineStats::new();
    let mut a = OnlineStats::new();
    let mut b = OnlineStats::new();
    for i in 1..=10u64 {
        let d = SimDuration::from_millis(i);
        all.record(d);
        if i % 2 == 0 {
            a.record(d);
        } else {
            b.record(d);
        }
    }
    a.merge(&b);
    assert_eq!(a.count(), all.count());
    assert_eq!(a.mean(), all.mean());
    assert_eq!(a.min(), all.min());
    assert_eq!(a.max(), all.max());
}

/// Every fault-injected drop leaves a journal record whose class names
/// the reason, in lockstep with the per-reason counters — across all four
/// drop sites: transmission onto a dead link, a Bernoulli loss draw,
/// arrival at a dead node (blackhole), and the queue flush of a crashing
/// node.
#[test]
fn engine_drops_have_journal_parity() {
    use gcopss_sim::{EngineDrop, FaultPlan, LinkId, TelemetryConfig, TraceEvent};

    let mut t = Topology::new();
    let a = t.add_node("a");
    let b = t.add_node("b");
    t.try_add_link(a, b, SimDuration::from_millis(1), None).unwrap();
    struct Fwd(NodeId);
    impl NodeBehavior<u32, World> for Fwd {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, from: Option<NodeId>, pkt: u32) {
            if from.is_none() && ctx.node() != self.0 {
                ctx.send(self.0, pkt, 64);
            } else {
                let now = ctx.now().as_nanos();
                ctx.world().push(now);
            }
        }
        fn service_time(&self, _pkt: &u32) -> SimDuration {
            SimDuration::from_millis(2)
        }
    }
    let mut sim = Simulator::new(t, World::new());
    sim.set_behavior(a, Box::new(Fwd(b)));
    sim.set_behavior(b, Box::new(Fwd(b)));
    sim.enable_telemetry(TelemetryConfig::default());
    sim.install_faults(
        FaultPlan::new(7)
            .with_loss(0.3)
            .link_down(SimTime::from_millis(10), LinkId(0))
            .link_up(SimTime::from_millis(20), LinkId(0))
            .node_down(SimTime::from_millis(30), b)
            .node_up(SimTime::from_millis(35), b),
    );
    // Feed every drop site: the dead-link window (12 ms), the crash's
    // queue flush (an arrival in service at b when it dies at 30 ms), the
    // blackhole window (arrivals while b is down), and Bernoulli loss over
    // a tail of ordinary traffic.
    sim.inject(SimTime::from_millis(12), a, 1, 64);
    sim.inject(SimTime::from_millis(26), a, 2, 64);
    sim.inject(SimTime::from_micros(26_200), a, 3, 64);
    sim.inject(SimTime::from_millis(31), a, 4, 64);
    for i in 0..40u64 {
        sim.inject(SimTime::from_millis(40 + i * 5), a, 100 + i as u32, 64);
    }
    sim.run();

    let link_lost = sim.dropped(EngineDrop::LinkLost);
    let node_lost = sim.dropped(EngineDrop::NodeLost);
    assert!(link_lost >= 2, "dead link + loss draws: {link_lost}");
    assert!(node_lost >= 2, "flush + blackhole: {node_lost}");
    let tele = sim.telemetry();
    assert_eq!(tele.counter_total("link-lost"), link_lost);
    assert_eq!(tele.counter_total("node-lost"), node_lost);
    assert_eq!(tele.counter_total("drop"), link_lost + node_lost);
    let mut by_class = std::collections::BTreeMap::new();
    for r in tele
        .journal_records()
        .iter()
        .filter(|r| r.event == TraceEvent::Drop)
    {
        *by_class.entry(r.class).or_insert(0u64) += 1;
    }
    assert_eq!(by_class.get("link-lost"), Some(&link_lost));
    assert_eq!(by_class.get("node-lost"), Some(&node_lost));
    assert_eq!(by_class.values().sum::<u64>(), link_lost + node_lost);
}

#[test]
fn backbone_hosts_reach_each_other_through_sim() {
    // End-to-end over a generated backbone: a packet relayed hop by hop
    // arrives, and link-byte accounting sees every hop.
    let b = generators::rocketfuel_like(5, &generators::BackboneParams {
        core_routers: 12,
        edge_per_core: 1,
    });
    let mut topo = b.topology;
    let hosts = generators::attach_hosts(&mut topo, &b.edge, 2, SimDuration::from_millis(1), "h");
    struct Relay {
        dst: NodeId,
    }
    impl NodeBehavior<u32, World> for Relay {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, _f: Option<NodeId>, pkt: u32) {
            if ctx.node() == self.dst {
                let now = ctx.now().as_nanos();
                ctx.world().push(now);
            } else {
                ctx.send_toward(self.dst, pkt, 100);
            }
        }
    }
    let all: Vec<NodeId> = topo.node_ids().collect();
    let mut sim = Simulator::new(topo, World::new());
    let dst = hosts[1];
    for n in all {
        sim.set_behavior(n, Box::new(Relay { dst }));
    }
    sim.inject(SimTime::ZERO, hosts[0], 7, 100);
    sim.run();
    assert_eq!(sim.world().len(), 1, "packet delivered once");
    let arrival = SimTime::from_nanos(sim.world()[0]);
    let direct = sim.routing().distance(hosts[0], dst).unwrap();
    assert_eq!(arrival, SimTime::ZERO + direct, "shortest-path delay");
    assert!(sim.total_link_bytes() >= 100 * 2, "multiple hops accounted");
}

/// `Ctx::queue_len` counts waiting packets only, also from a callback that
/// runs while a packet is in service (a timer here).
#[test]
fn queue_len_excludes_the_packet_in_service() {
    type Samples = Vec<(u64, usize)>; // (time ns, queue_len)
    struct Probe;
    impl Probe {
        fn sample(ctx: &mut Ctx<'_, u32, Samples>) {
            let sample = (ctx.now().as_nanos(), ctx.queue_len());
            ctx.world().push(sample);
        }
    }
    impl NodeBehavior<u32, Samples> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, Samples>) {
            ctx.schedule(SimDuration::from_millis(5), 0);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, Samples>, _from: Option<NodeId>, _pkt: u32) {
            Self::sample(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, Samples>, _key: u64) {
            Self::sample(ctx);
        }
        fn service_time(&self, _pkt: &u32) -> SimDuration {
            SimDuration::from_millis(10)
        }
    }
    let mut t = Topology::new();
    let a = t.add_node("a");
    let mut sim = Simulator::new(t, Samples::new());
    sim.set_behavior(a, Box::new(Probe));
    sim.inject(SimTime::ZERO, a, 1, 10);
    sim.inject(SimTime::ZERO, a, 2, 10);
    sim.run();
    // At 5 ms the timer finds packet 1 in service and packet 2 waiting;
    // packet 1's own callback at 10 ms still sees packet 2 waiting.
    assert_eq!(
        sim.world(),
        &vec![(5_000_000, 1), (10_000_000, 1), (20_000_000, 0)]
    );
}
