//! Property-based tests for the discrete-event simulator, on the
//! deterministic `gcopss_compat::prop` harness.

use std::cell::Cell;

use gcopss_compat::prop;
use gcopss_sim::telemetry::LogHistogram;
use gcopss_sim::{
    generators, AdmissionPolicy, Ctx, EngineDrop, FaultPlan, LinkId, NodeBehavior, NodeId,
    OverloadConfig, PacketMeta, RoutingTable, SimDuration, SimTime, Simulator, TelemetryConfig,
};

const CASES: u32 = 24;

/// A flooding behavior: records arrival order and forwards each packet to
/// every neighbor except the one it came from, with a TTL embedded in the
/// packet id (high byte).
struct Flood;

type World = Vec<(u64, u32, u32)>; // (time ns, node, pkt)

impl NodeBehavior<u32, World> for Flood {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, World>, from: Option<NodeId>, pkt: u32) {
        let now = ctx.now().as_nanos();
        let node = ctx.node();
        ctx.world().push((now, node.0, pkt));
        let ttl = pkt >> 24;
        if ttl == 0 {
            return;
        }
        let next = ((ttl - 1) << 24) | (pkt & 0x00ff_ffff);
        let neighbors: Vec<NodeId> = ctx
            .topology()
            .neighbors(node)
            .map(|(n, _)| n)
            .filter(|n| Some(*n) != from)
            .collect();
        for n in neighbors {
            ctx.send(n, next, 64);
        }
    }

    fn service_time(&self, _pkt: &u32) -> SimDuration {
        SimDuration::from_micros(10)
    }
}

/// Event timestamps observed by behaviors never decrease.
#[test]
fn time_is_monotonic() {
    let input = (prop::range(0u64..1000), prop::range(2usize..8));
    prop::check(0x51301, CASES, &input, |(seed, hosts)| {
        let params = generators::BackboneParams {
            core_routers: 6,
            edge_per_core: 1,
        };
        let mut b = generators::rocketfuel_like(*seed, &params);
        let hs = generators::attach_hosts(
            &mut b.topology,
            &b.edge,
            *hosts,
            SimDuration::from_millis(1),
            "h",
        );
        let topo = b.topology;
        let all: Vec<NodeId> = topo.node_ids().collect();
        let mut sim = Simulator::new(topo, World::new());
        for n in all {
            sim.set_behavior(n, Box::new(Flood));
        }
        // Inject a TTL-3 flood from the first host.
        sim.inject(SimTime::ZERO, hs[0], 3 << 24, 64);
        sim.run();
        let w = sim.world();
        assert!(!w.is_empty());
        for pair in w.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time went backwards");
        }
    });
}

/// Same seed, same injections => bit-identical event log.
#[test]
fn simulation_is_deterministic() {
    prop::check(0x51302, CASES, &prop::range(0u64..1000), |seed| {
        let run = || {
            let params = generators::BackboneParams {
                core_routers: 8,
                edge_per_core: 1,
            };
            let b = generators::rocketfuel_like(*seed, &params);
            let topo = b.topology;
            let all: Vec<NodeId> = topo.node_ids().collect();
            let mut sim = Simulator::new(topo, World::new());
            for n in all {
                sim.set_behavior(n, Box::new(Flood));
            }
            sim.inject(SimTime::ZERO, b.core[0], 2 << 24, 64);
            sim.inject(SimTime::from_millis(1), b.core[1], (2 << 24) | 1, 64);
            sim.run();
            (sim.total_link_bytes(), sim.events_processed(), sim.into_world())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    });
}

/// [`Flood`] with a 200 µs server, keeping only a count of its own sends
/// (the world): slow enough for bursts to fill a bounded queue.
struct CountedFlood;

impl NodeBehavior<u32, u64> for CountedFlood {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u64>, from: Option<NodeId>, pkt: u32) {
        let ttl = pkt >> 24;
        if ttl == 0 {
            return;
        }
        let next = ((ttl - 1) << 24) | (pkt & 0x00ff_ffff);
        let node = ctx.node();
        let peers: Vec<NodeId> = ctx
            .topology()
            .neighbors(node)
            .map(|(n, _)| n)
            .filter(|n| Some(*n) != from)
            .collect();
        *ctx.world() += peers.len() as u64;
        for n in peers {
            ctx.send(n, next, 64);
        }
    }

    fn service_time(&self, _pkt: &u32) -> SimDuration {
        SimDuration::from_micros(200)
    }
}

/// Packet and byte conservation at the engine, over generated topology ×
/// fault plan (link flaps, a crash and restart, 0–5 % loss) × overload
/// config (each policy, priorities on/off, capacity 1–8): at quiescence
/// every packet injected or sent was either processed by a node or dropped
/// by the engine for a counted reason, telemetry's `"drop"` counter agrees
/// with that tally, and the per-link byte sums are the aggregate load.
#[test]
fn packets_and_bytes_are_conserved() {
    let ms = SimTime::from_millis;
    let input = (
        // Topology seed, core routers.
        (prop::range(0u64..1000), prop::range(4usize..=8)),
        // Link flaps, whether a core router crashes, loss in permille.
        (prop::range(0usize..=3), prop::bools(), prop::range(0u32..=50)),
        // Admission policy, priorities, queue capacity.
        (prop::range(0u32..3), prop::bools(), prop::range(1usize..=8)),
    );
    // How often each drop reason fired over all cases.
    let fired = Cell::new([0u64; EngineDrop::ALL.len()]);
    prop::check(0x51309, CASES, &input, |(topo, faults, overload)| {
        let (&(seed, core_routers), &(flaps, crash, loss)) = (topo, faults);
        let &(policy, priority, capacity) = overload;
        let params = generators::BackboneParams {
            core_routers,
            edge_per_core: 1,
        };
        let mut b = generators::rocketfuel_like(seed, &params);
        let hosts = generators::attach_hosts(
            &mut b.topology,
            &b.edge,
            4,
            SimDuration::from_millis(1),
            "h",
        );
        let links: Vec<LinkId> = (0..b.topology.link_count() as u32).map(LinkId).collect();
        let nodes: Vec<NodeId> = b.topology.node_ids().collect();

        let mut sim = Simulator::new(b.topology, 0u64);
        for &n in &nodes {
            sim.set_behavior(n, Box::new(CountedFlood));
        }
        // Odd packets are bulk and supersede each other on two low bits.
        sim.set_packet_meta(PacketMeta {
            priority: |p| (p & 1) as u8,
            supersede_key: |p| (p & 1 == 1).then_some(u64::from(p & 6)),
            ..PacketMeta::default()
        });
        sim.enable_telemetry(TelemetryConfig::counters_only());
        let mut plan = FaultPlan::new(seed)
            .with_loss(f64::from(loss) / 1000.0)
            .random_link_flaps(&links, flaps, ms(2), ms(30), SimDuration::from_millis(4));
        if crash {
            plan = plan.node_down(ms(10), b.core[0]).node_up(ms(20), b.core[0]);
        }
        sim.install_faults(plan);
        sim.install_overload(OverloadConfig {
            queue_capacity: Some(capacity),
            policy: [
                AdmissionPolicy::DropTail,
                AdmissionPolicy::HeadDrop,
                AdmissionPolicy::CoDel {
                    target: SimDuration::from_micros(300),
                    interval: SimDuration::from_millis(2),
                },
            ][policy as usize],
            priority,
            ..OverloadConfig::default()
        });
        // Bursts of six TTL-4 floods from every host, 3 ms apart.
        let mut injected = 0u64;
        for burst in 0..6u64 {
            for (h, &host) in hosts.iter().enumerate() {
                for i in 0..6u32 {
                    let id = (burst as u32 * 64 + h as u32 * 8 + i) & 0x00ff_ffff;
                    sim.inject(ms(burst * 3), host, (4 << 24) | id, 64);
                    injected += 1;
                }
            }
        }
        sim.run();
        assert!(sim.is_idle());

        let sends = *sim.world();
        let processed: u64 = nodes.iter().map(|&n| sim.node_processed(n)).sum();
        let drops = EngineDrop::ALL.map(|why| sim.dropped(why));
        let dropped: u64 = drops.iter().sum();
        assert_eq!(injected + sends, processed + dropped, "drops {drops:?}");
        assert_eq!(sim.telemetry().counter_total("drop"), dropped);
        for why in EngineDrop::ALL {
            assert_eq!(
                sim.telemetry().counter_total(why.as_str()),
                sim.dropped(why)
            );
        }
        // Every send that was not lost on its link carried 64 bytes.
        let carried = 64 * (sends - sim.dropped(EngineDrop::LinkLost));
        let per_link: u64 = links.iter().map(|&l| sim.link_bytes(l)).sum();
        assert_eq!(per_link, sim.total_link_bytes());
        assert_eq!(per_link, sim.telemetry().link_bytes_total());
        assert_eq!(per_link, carried);

        let mut seen = fired.get();
        for (total, n) in seen.iter_mut().zip(drops) {
            *total += n;
        }
        fired.set(seen);
    });
    // The law is not vacuous: every drop reason fired in some case.
    assert!(fired.get().iter().all(|&n| n > 0), "{:?}", fired.get());
}

/// Shortest-path distances satisfy the triangle inequality and symmetry
/// (links are bidirectional with symmetric delay).
#[test]
fn routing_distances_are_metric() {
    prop::check(0x51303, CASES, &prop::range(0u64..500), |seed| {
        let params = generators::BackboneParams {
            core_routers: 10,
            edge_per_core: 1,
        };
        let b = generators::rocketfuel_like(*seed, &params);
        let rt = RoutingTable::shortest_paths(&b.topology);
        let nodes: Vec<NodeId> = b.topology.node_ids().collect();
        for &x in nodes.iter().take(6) {
            for &y in nodes.iter().take(6) {
                let dxy = rt.distance(x, y).unwrap();
                let dyx = rt.distance(y, x).unwrap();
                assert_eq!(dxy, dyx);
                for &z in nodes.iter().take(6) {
                    let dxz = rt.distance(x, z).unwrap();
                    let dzy = rt.distance(z, y).unwrap();
                    assert!(dxy <= dxz + dzy, "triangle inequality violated");
                }
            }
        }
    });
}

fn hist(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The histogram tolerates the full `u64` domain: recording `u64::MAX`
/// (top bucket) and `0` (bucket zero) alongside arbitrary values keeps
/// count/min/max exact and the extreme quantiles pinned to them.
#[test]
fn log_histogram_survives_extreme_values() {
    let input = prop::vec(prop::range(0u64..u64::MAX), 0..=48);
    prop::check(0x51305, CASES, &input, |values| {
        let mut h = hist(values);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), values.len() as u64 + 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // The JSON summary must render without panicking on the extremes.
        assert!(h.to_json().to_string().contains("\"count\""));
    });
}

/// An empty histogram answers every quantile with 0 and reports no
/// min/max, regardless of `q`.
#[test]
fn log_histogram_empty_quantiles_are_zero() {
    prop::check(0x51306, CASES, &prop::range(0u32..=1000), |q| {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(f64::from(*q) / 1000.0), 0);
    });
}

/// Merging is associative and agrees with bulk recording: the merge
/// order of per-shard histograms must not affect the aggregate.
#[test]
fn log_histogram_merge_is_associative() {
    let vals = || prop::vec(prop::range(0u64..1 << 40), 0..=24);
    let input = (vals(), vals(), vals());
    prop::check(0x51307, CASES, &input, |(a, b, c)| {
        let (ha, hb, hc) = (hist(a), hist(b), hist(c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        assert_eq!(left, right, "merge order changed the aggregate");
        let all: Vec<u64> = a.iter().chain(b).chain(c).copied().collect();
        assert_eq!(left, hist(&all), "merge disagrees with bulk recording");
    });
}

/// Quantiles are monotone in `q` and always land inside the observed
/// `[min, max]` range.
#[test]
fn log_histogram_quantiles_are_monotone() {
    let input = (
        prop::vec(prop::range(0u64..1 << 48), 1..=40),
        prop::range(0u32..=1000),
        prop::range(0u32..=1000),
    );
    prop::check(0x51308, CASES, &input, |(values, qa, qb)| {
        let h = hist(values);
        let (lo, hi) = (*qa.min(qb), *qa.max(qb));
        let (ql, qh) = (f64::from(lo) / 1000.0, f64::from(hi) / 1000.0);
        assert!(
            h.quantile(ql) <= h.quantile(qh),
            "quantile({ql}) > quantile({qh})"
        );
        for q in [ql, qh] {
            let v = h.quantile(q);
            assert!(v >= h.min().unwrap(), "quantile below observed min");
            assert!(v <= h.max().unwrap(), "quantile above observed max");
        }
    });
}

/// The path returned by the routing table has total delay equal to the
/// reported distance.
#[test]
fn path_delay_equals_distance() {
    prop::check(0x51304, CASES, &prop::range(0u64..500), |seed| {
        let params = generators::BackboneParams {
            core_routers: 12,
            edge_per_core: 1,
        };
        let b = generators::rocketfuel_like(*seed, &params);
        let rt = RoutingTable::shortest_paths(&b.topology);
        let nodes: Vec<NodeId> = b.topology.node_ids().collect();
        for &x in nodes.iter().take(8) {
            for &y in nodes.iter().take(8) {
                let p = rt.path(x, y);
                assert!(!p.is_empty());
                let total: SimDuration = p
                    .windows(2)
                    .map(|w| {
                        let l = b.topology.link_between(w[0], w[1]).expect("adjacent");
                        b.topology.link_delay(l)
                    })
                    .sum();
                assert_eq!(Some(total), rt.distance(x, y));
            }
        }
    });
}
