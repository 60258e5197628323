//! Property-based tests for the discrete-event simulator, on the
//! deterministic `gcopss_compat::prop` harness.

use std::cell::Cell;
use std::collections::BTreeMap;

use gcopss_compat::prop;
use gcopss_sim::lineage::NO_ENTITY;
use gcopss_sim::telemetry::LogHistogram;
use gcopss_sim::{
    generators, AdmissionPolicy, AuditReport, Ctx, EngineDrop, FaultPlan, LineageConfig,
    LineageLog, LinkId, NodeBehavior, NodeId, OverloadConfig, PacketMeta, RoutingTable,
    SimDuration, SimTime, Simulator, SpanEvent, TelemetryConfig, NO_SPAN,
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
            (
                sim.total_link_bytes(),
                sim.events_processed(),
                sim.into_world(),
            )
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
        (
            prop::range(0usize..=3),
            prop::bools(),
            prop::range(0u32..=50),
        ),
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
        let drops = EngineDrop::ALL.map(|why| sim.dropped(why.as_str()));
        let dropped: u64 = drops.iter().sum();
        assert_eq!(injected + sends, processed + dropped, "drops {drops:?}");
        assert_eq!(sim.telemetry().counter_total("drop"), dropped);
        for (why, n) in EngineDrop::ALL.into_iter().zip(drops) {
            assert_eq!(sim.telemetry().counter_total(why.as_str()), n);
        }
        // Every send that was not lost on its link carried 64 bytes.
        let carried = 64 * (sends - sim.dropped("link-lost"));
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

/// One span as the auditor reads it.
struct ModelSpan {
    lineage: u64,
    event: SpanEvent,
    entity: u32,
    reason: &'static str,
    open: bool,
}

/// What a [`LineageLog`] records, kept beside it with the reasons as text:
/// the input of the oracle auditor.
struct LineageModel {
    sample: u64,
    capacity: usize,
    spans: Vec<ModelSpan>,
    truncated: u64,
    expectations: BTreeMap<u64, (SimTime, u32, Vec<u32>)>,
}

impl LineageModel {
    fn sampled(&self, lid: u64) -> bool {
        self.sample <= 1 || lid.is_multiple_of(self.sample)
    }

    fn push(&mut self, span: ModelSpan) -> u32 {
        if self.spans.len() >= self.capacity {
            self.truncated += 1;
            return NO_SPAN;
        }
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    fn get_mut(&mut self, span: u32) -> Option<&mut ModelSpan> {
        self.spans.get_mut(span as usize)
    }

    fn lineage_of(&self, span: u32) -> Option<u64> {
        self.spans.get(span as usize).map(|s| s.lineage)
    }
}

fn push_error(report: &mut AuditReport, msg: String) {
    if report.errors.len() < 32 {
        report.errors.push(msg);
    }
}

/// The delivery auditor as it was before its books went flat — one ordered
/// map of deliveries per lineage — kept as the oracle.
fn oracle_audit(
    m: &LineageModel,
    cutoff: SimTime,
    damage: Option<(SimTime, SimTime)>,
) -> AuditReport {
    #[derive(Default)]
    struct LineageView {
        delivered: BTreeMap<u32, u64>,
        drop_reason: Option<&'static str>,
        open: u64,
    }
    let in_window = |t: SimTime| match damage {
        Some((lo, hi)) => t >= lo && t <= hi,
        None => false,
    };

    let mut per_lineage: BTreeMap<u64, LineageView> = BTreeMap::new();
    for rec in &m.spans {
        let v = per_lineage.entry(rec.lineage).or_default();
        match rec.event {
            SpanEvent::Deliver => {
                *v.delivered.entry(rec.entity).or_insert(0u64) += 1;
            }
            SpanEvent::Drop => {
                if rec.reason != "client-duplicate-dropped" && v.drop_reason.is_none() {
                    v.drop_reason = Some(rec.reason);
                }
            }
            SpanEvent::Origin | SpanEvent::Hop => {
                if rec.open {
                    v.open += 1;
                }
            }
        }
    }

    let mut report = AuditReport {
        truncated: m.truncated,
        ..AuditReport::default()
    };
    report.lineages = m.expectations.len() as u64;
    for (lid, (t_publish, publisher, entities)) in &m.expectations {
        let view = per_lineage.get(lid);
        if let Some(v) = view {
            for (&entity, &n) in &v.delivered {
                if entity == *publisher {
                    continue;
                }
                if !entities.contains(&entity) {
                    push_error(
                        &mut report,
                        format!("lineage {lid}: delivered {n}x to unexpected entity {entity}"),
                    );
                }
            }
        }
        for &entity in entities {
            report.total_pairs += 1;
            let n = view
                .and_then(|v| v.delivered.get(&entity))
                .copied()
                .unwrap_or(0);
            if n == 1 {
                report.delivered += 1;
                continue;
            }
            if n > 1 {
                report.duplicates += 1;
                push_error(
                    &mut report,
                    format!("lineage {lid}: delivered {n}x to entity {entity} (want exactly once)"),
                );
                continue;
            }
            match view {
                Some(v) if v.drop_reason.is_some() => {
                    *report.dropped.entry(v.drop_reason.unwrap()).or_insert(0) += 1;
                }
                Some(v) if v.open > 0 => report.in_flight += 1,
                _ if in_window(*t_publish) => {
                    *report.dropped.entry("tree-gap").or_insert(0) += 1;
                }
                None if *t_publish >= cutoff => report.unpublished += 1,
                _ => {
                    report.unexplained += 1;
                    push_error(
                        &mut report,
                        format!(
                            "lineage {lid}: loss to entity {entity} is unexplained \
                             (published {t_publish}, no drop, no open span)"
                        ),
                    );
                }
            }
        }
    }
    report
}

/// Lineage ids and entities the generated logs draw from: few, so that
/// lineages collide, deliveries repeat and owed lists overlap.
const LINEAGES: u32 = 6;
const ENTITIES: u32 = 6;

/// The flat-books auditor agrees with the ordered-map oracle, byte for byte
/// in both renderings, over generated span logs: duplicate deliveries,
/// deliveries off the owed list and to the publisher, duplicate-filter and
/// `mark_dropped` drops (a reason also arriving as a second, equal string),
/// open spans, lineages without an expectation and expectations without a
/// span, unsorted owed lists with repeats, sampling, truncation, and every
/// cutoff and damage window.
#[test]
fn flat_audit_agrees_with_the_ordered_map_oracle() {
    // The same text at another address: reasons are told apart by content.
    let link_lost_copy: &'static str = Box::leak(String::from("link-lost").into_boxed_str());
    let reasons = [
        "link-lost",
        "node-lost",
        "client-duplicate-dropped",
        "queue-full",
        link_lost_copy,
        "",
    ];
    // (operation, a, b, owed list)
    let op = (
        prop::range(0u32..9),
        prop::range(0u32..64),
        prop::range(0u32..64),
        prop::vec(prop::range(0u32..ENTITIES), 0..=5),
    );
    let input = (
        prop::vec(op, 0..=80),
        (prop::range(1u64..=2), prop::range(4usize..=96)),
        (
            prop::range(0u64..=100),
            prop::bools(),
            prop::range(0u64..=80),
            prop::range(0u64..=40),
        ),
    );
    // Which outcomes some case produced (see `seen` below).
    let fired = Cell::new([false; 9]);
    prop::check(0x51310, 128, &input, |(ops, (sample, capacity), window)| {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig {
            sample: *sample,
            capacity: *capacity,
        });
        let mut m = LineageModel {
            sample: *sample,
            capacity: *capacity,
            spans: Vec::new(),
            truncated: 0,
            expectations: BTreeMap::new(),
        };
        for (i, (kind, a, b, owed)) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            let lid = u64::from(a % LINEAGES);
            // An existing span, or (one time in len + 1) none at all.
            let pick = |x: u32, m: &LineageModel| {
                let n = m.spans.len() as u32 + 1;
                if x % n == n - 1 {
                    NO_SPAN
                } else {
                    x % n
                }
            };
            let reason = reasons[*b as usize % reasons.len()];
            let node = b % 4;
            match kind {
                0 => {
                    let want = if m.sampled(lid) {
                        m.push(open(lid, SpanEvent::Origin))
                    } else {
                        NO_SPAN
                    };
                    assert_eq!(log.origin(lid, node, now), want);
                }
                1 => {
                    let cause = pick(*b, &m);
                    let want = if m.sampled(lid) {
                        m.push(open(lid, SpanEvent::Hop))
                    } else {
                        NO_SPAN
                    };
                    assert_eq!(log.hop(lid, cause, node, now), want);
                }
                2 => log.service_start(pick(*a, &m), now),
                3 => {
                    let span = pick(*a, &m);
                    if let Some(s) = m.get_mut(span) {
                        s.open = false;
                    }
                    log.close(span, now);
                }
                4 => {
                    let cause = pick(*a, &m);
                    let want = if m.sampled(lid) {
                        m.push(ModelSpan {
                            reason,
                            ..closed(lid, SpanEvent::Drop, NO_ENTITY)
                        })
                    } else {
                        NO_SPAN
                    };
                    assert_eq!(log.drop_at(lid, cause, node, reason, now), want);
                }
                5 => {
                    let span = pick(*a, &m);
                    if let Some(s) = m.get_mut(span) {
                        s.event = SpanEvent::Drop;
                        s.reason = reason;
                        s.open = false;
                    }
                    log.mark_dropped(span, reason, now);
                }
                6 => {
                    let cause = pick(*a, &m);
                    let entity = b % ENTITIES;
                    let want = match m.lineage_of(cause) {
                        Some(l) => m.push(closed(l, SpanEvent::Deliver, entity)),
                        None => NO_SPAN,
                    };
                    assert_eq!(log.deliver_from(cause, node, entity, now), want);
                }
                7 => {
                    let cause = pick(*a, &m);
                    if let Some(l) = m.lineage_of(cause) {
                        m.push(ModelSpan {
                            reason,
                            ..closed(l, SpanEvent::Drop, NO_ENTITY)
                        });
                    }
                    log.drop_from(cause, node, reason, now);
                }
                _ => {
                    let publisher = (a / LINEAGES) % ENTITIES;
                    let t_publish = SimTime::from_millis(u64::from(*b));
                    let mut owed = owed.clone();
                    if b % 3 == 0 {
                        owed.sort_unstable();
                        owed.dedup();
                    }
                    if m.sampled(lid) {
                        m.expectations
                            .insert(lid, (t_publish, publisher, owed.clone()));
                    }
                    log.expect(lid, t_publish, publisher, &owed);
                }
            }
        }
        // The model is the log, reasons aside.
        let recorded: Vec<_> = log
            .spans()
            .iter()
            .map(|s| (s.lineage, s.event, s.entity, s.is_open()))
            .collect();
        let modelled: Vec<_> = m
            .spans
            .iter()
            .map(|s| (s.lineage, s.event, s.entity, s.open))
            .collect();
        assert_eq!(recorded, modelled);

        let &(cutoff, damaged, lo, len) = window;
        let cutoff = SimTime::from_millis(cutoff);
        let damage = damaged.then(|| (SimTime::from_millis(lo), SimTime::from_millis(lo + len)));
        let got = log.audit(cutoff, damage);
        let want = oracle_audit(&m, cutoff, damage);
        assert_eq!(got.to_json().to_string(), want.to_json().to_string());
        assert_eq!(got.table(), want.table());

        let unexpected = want.errors.iter().any(|e| e.contains("unexpected"));
        let reason_dropped = want.dropped.keys().any(|&r| r != "tree-gap");
        let seen = [
            want.duplicates > 0,
            unexpected,
            want.in_flight > 0,
            want.unpublished > 0,
            want.unexplained > 0,
            want.dropped.contains_key("tree-gap"),
            reason_dropped,
            want.truncated > 0,
            want.delivered > 0,
        ];
        let mut all = fired.get();
        for (f, s) in all.iter_mut().zip(seen) {
            *f |= s;
        }
        fired.set(all);
    });
    // The law is not vacuous: every outcome occurred in some case.
    assert!(fired.get().iter().all(|&f| f), "{:?}", fired.get());
}

fn open(lineage: u64, event: SpanEvent) -> ModelSpan {
    ModelSpan {
        open: true,
        ..closed(lineage, event, NO_ENTITY)
    }
}

fn closed(lineage: u64, event: SpanEvent, entity: u32) -> ModelSpan {
    ModelSpan {
        lineage,
        event,
        entity,
        reason: "",
        open: false,
    }
}
