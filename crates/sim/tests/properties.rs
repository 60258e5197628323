//! Property-based tests for the discrete-event simulator, on the
//! deterministic `gcopss_compat::prop` harness.

use std::cell::Cell;
use std::collections::BTreeMap;

use gcopss_compat::prop;
use gcopss_sim::json::{Json, Text};
use gcopss_sim::lineage::NO_ENTITY;
use gcopss_sim::prof::{PhaseRow, ProfReport};
use gcopss_sim::telemetry::LogHistogram;
use gcopss_sim::{
    generators, AdmissionPolicy, AuditReport, ChromeEvent, Ctx, EngineDrop, FaultPlan,
    LineageConfig, LineageLog, LinkId, NodeBehavior, NodeId, OverloadConfig, PacketMeta,
    RoutingTable, SimDuration, SimTime, Simulator, SpanEvent, SpanRecord, Telemetry,
    TelemetryConfig, Topology, TraceEvent, TraceRecord, NO_SPAN,
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

/// One generated engine case: (topology seed, core routers), (link flaps,
/// whether a core router crashes, loss in permille), (admission policy,
/// priorities, queue capacity).
type FloodCase = ((u64, usize), (usize, bool, u32), (u32, bool, usize));

/// Topology × fault plan (link flaps, a crash and restart, 0–5 % loss) ×
/// overload config (each policy, priorities on/off, capacity 1–8).
fn flood_cases() -> impl prop::Strategy<Value = FloodCase> {
    (
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
    )
}

/// Bursts of six TTL-4 [`CountedFlood`]s from every host of `case`, 3 ms
/// apart, run to quiescence with telemetry counters on and, when
/// `lineage`, every packet traced (its lineage is its id without the TTL).
/// Returns the simulator and the packets injected.
fn flood(case: &FloodCase, lineage: bool) -> (Simulator<u32, u64>, u64) {
    let ms = SimTime::from_millis;
    let &((seed, core_routers), (flaps, crash, loss), (policy, priority, capacity)) = case;
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
        lineage_id: |p| Some(u64::from(p & 0x00ff_ffff)),
        ..PacketMeta::default()
    });
    sim.enable_telemetry(TelemetryConfig::counters_only());
    if lineage {
        sim.enable_lineage(LineageConfig::default());
    }
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
    (sim, injected)
}

/// The seed of the engine laws over [`flood_cases`].
const FLOOD_SEED: u64 = 0x51309;

/// Packet and byte conservation at the engine, over [`flood_cases`]: at
/// quiescence every packet injected or sent was either processed by a
/// node or dropped by the engine for a counted reason, telemetry's
/// `"drop"` counter agrees with that tally, and the per-link byte sums are
/// the aggregate load.
#[test]
fn packets_and_bytes_are_conserved() {
    // How often each drop reason fired over all cases.
    let fired = Cell::new([0u64; EngineDrop::ALL.len()]);
    prop::check(FLOOD_SEED, CASES, &flood_cases(), |case| {
        let (sim, injected) = flood(case, false);
        let nodes: Vec<NodeId> = sim.topology().node_ids().collect();
        let links: Vec<LinkId> = (0..sim.topology().link_count() as u32)
            .map(LinkId)
            .collect();

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

/// Every span the engine opens, it closes: over the cases of
/// [`packets_and_bytes_are_conserved`] — where node crashes flush queues,
/// links lose copies and overload control sheds, each drop reason firing
/// in some case — with every packet traced, no origin or hop span is open
/// at quiescence. The store holds every span from the oldest open one on,
/// so no held span being open means none is, and the live window is
/// empty.
#[test]
fn every_span_is_closed_at_quiescence() {
    // Spans recorded, and drop spans among those still held, over all
    // cases.
    let totals = Cell::new((0usize, 0usize));
    prop::check(FLOOD_SEED, CASES, &flood_cases(), |case| {
        let (sim, _) = flood(case, true);
        let log = sim.lineage();
        let open: Vec<_> = log.spans().iter().filter(|s| s.is_open()).collect();
        assert!(
            open.is_empty(),
            "{} open spans, first {:?}",
            open.len(),
            open[0]
        );
        assert_eq!(log.audit(SimTime::MAX, None).truncated, 0);
        let drops = log
            .spans()
            .iter()
            .filter(|s| s.event == SpanEvent::Drop)
            .count();
        let (n, d) = totals.get();
        totals.set((n + log.spans().len(), d + drops));
    });
    // The law is not vacuous: spans were recorded, and some died.
    let (spans, drops) = totals.get();
    assert!(spans > 0 && drops > 0, "{spans} spans, {drops} drops");
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

/// Service on span `s` starts at `now` unless it already has; the span is
/// done.
fn close(s: &mut SpanRecord, now: SimTime) {
    if s.t_service_start == SimTime::MAX {
        s.t_service_start = now;
    }
    s.t_done = now;
}

/// What a [`LineageLog`] records, every span kept: the input of the oracle
/// auditors.
struct LineageModel {
    sample: u64,
    capacity: usize,
    spans: Vec<SpanRecord>,
    truncated: u64,
    expectations: BTreeMap<u64, (SimTime, u32, Vec<u32>)>,
}

impl LineageModel {
    fn sampled(&self, lid: u64) -> bool {
        self.sample <= 1 || lid.is_multiple_of(self.sample)
    }

    /// The ids of the spans still open, oldest first.
    fn open(&self) -> Vec<u32> {
        (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].is_open())
            .collect()
    }

    /// Records `span` unless the live window — from the oldest open span
    /// to the newest — already holds `capacity` spans.
    fn push(&mut self, span: SpanRecord) -> u32 {
        let oldest_open = self
            .open()
            .first()
            .map_or(self.spans.len(), |&i| i as usize);
        if self.spans.len() - oldest_open >= self.capacity {
            self.truncated += 1;
            return NO_SPAN;
        }
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    fn get_mut(&mut self, span: u32) -> Option<&mut SpanRecord> {
        self.spans.get_mut(span as usize)
    }

    fn lineage_of(&self, span: u32) -> Option<u64> {
        self.spans.get(span as usize).map(|s| s.lineage)
    }

    /// The lineage fingerprint folded over every span, in id order.
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in &self.spans {
            eat(&s.lineage.to_le_bytes());
            eat(&s.node.to_le_bytes());
            eat(&s.cause.to_le_bytes());
            eat(&s.entity.to_le_bytes());
            eat(s.reason.as_bytes());
            eat(s.event.as_str().as_bytes());
            eat(&s.t_enqueue.as_nanos().to_le_bytes());
            eat(&s.t_service_start.as_nanos().to_le_bytes());
            eat(&s.t_done.as_nanos().to_le_bytes());
        }
        h
    }
}

fn push_error(report: &mut AuditReport, msg: String) {
    if report.errors.len() < 32 {
        report.errors.push(msg);
    }
}

fn in_window(t: SimTime, damage: Option<(SimTime, SimTime)>) -> bool {
    match damage {
        Some((lo, hi)) => t >= lo && t <= hi,
        None => false,
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
                if rec.is_open() {
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
                _ if in_window(*t_publish, damage) => {
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

/// The delivery auditor as it was while the log kept every span: flat
/// books — one view per lineage, one counter per owed pair at the
/// lineage's base plus the entity's slot — filled in one pass over the
/// retained log, kept as the second oracle.
fn retained_log_audit(
    m: &LineageModel,
    cutoff: SimTime,
    damage: Option<(SimTime, SimTime)>,
) -> AuditReport {
    struct LineageView {
        base: usize,
        seen: bool,
        drop_reason: Option<&'static str>,
        open: u32,
    }
    // The slot of `entity` in an owed list: any slot holding it, the same
    // one every time.
    let slot = |owed: &[u32], entity: u32| {
        owed.binary_search(&entity)
            .ok()
            .or_else(|| owed.iter().position(|&e| e == entity))
    };

    let owed: Vec<_> = m.expectations.iter().collect();
    let mut views = Vec::with_capacity(owed.len());
    let mut pairs = 0;
    for (_, (_, _, entities)) in &owed {
        views.push(LineageView {
            base: pairs,
            seen: false,
            drop_reason: None,
            open: 0,
        });
        pairs += entities.len();
    }
    let mut delivered = vec![0u32; pairs];
    let mut unexpected: BTreeMap<(usize, u32), u32> = BTreeMap::new();
    for rec in &m.spans {
        let Ok(i) = owed.binary_search_by_key(&rec.lineage, |&(&lid, _)| lid) else {
            continue;
        };
        let v = &mut views[i];
        v.seen = true;
        match rec.event {
            SpanEvent::Deliver => {
                let (_, publisher, entities) = owed[i].1;
                match slot(entities, rec.entity) {
                    Some(s) => delivered[v.base + s] += 1,
                    None if rec.entity == *publisher => {}
                    None => *unexpected.entry((i, rec.entity)).or_insert(0) += 1,
                }
            }
            SpanEvent::Drop => {
                if v.drop_reason.is_none() && rec.reason != "client-duplicate-dropped" {
                    v.drop_reason = Some(rec.reason);
                }
            }
            SpanEvent::Origin | SpanEvent::Hop => {
                if rec.is_open() {
                    v.open += 1;
                }
            }
        }
    }

    let mut report = AuditReport {
        truncated: m.truncated,
        lineages: owed.len() as u64,
        ..AuditReport::default()
    };
    let mut unexpected = unexpected.into_iter().peekable();
    for (i, (&(lid, (t_publish, _, entities)), v)) in owed.iter().zip(&views).enumerate() {
        while let Some(((_, entity), n)) = unexpected.next_if(|&((j, _), _)| j == i) {
            push_error(
                &mut report,
                format!("lineage {lid}: delivered {n}x to unexpected entity {entity}"),
            );
        }
        let view = v.seen.then_some(v);
        for &entity in entities {
            report.total_pairs += 1;
            let n = delivered[v.base + slot(entities, entity).expect("owed")];
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
                Some(LineageView {
                    drop_reason: Some(r),
                    ..
                }) => *report.dropped.entry(*r).or_insert(0) += 1,
                Some(v) if v.open > 0 => report.in_flight += 1,
                _ if in_window(*t_publish, damage) => {
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

/// The books the log keeps as spans are recorded agree with two auditors
/// over the same log with every span kept — the flat one that read the
/// log at audit time and the ordered-map oracle — byte for byte in both
/// renderings, and the cursor's fingerprint with a fold over every span.
/// Over generated logs: duplicate deliveries, deliveries off the owed list
/// and to the publisher, duplicate-filter and `mark_dropped` drops (a
/// reason also arriving as a second, equal string), open spans at the end,
/// lineages without an expectation and expectations without a span, a
/// lineage registered twice (the last registration wins), unsorted owed
/// lists with repeats, sampling, truncation of the live window, and every
/// cutoff and damage window. As the log's contract requires, every
/// expectation is registered before the first span, and `close`,
/// `mark_dropped`, `service_start` and the cause of `deliver_from` and
/// `drop_from` are an open span or none; the unit tests in `lineage.rs`
/// pin that each other call fails closed.
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
    // (lineage and publisher, publish time, owed list)
    let expectation = (
        prop::range(0u32..64),
        prop::range(0u32..64),
        prop::vec(prop::range(0u32..ENTITIES), 0..=5),
    );
    // (operation, a, b)
    let op = (
        prop::range(0u32..8),
        prop::range(0u32..64),
        prop::range(0u32..64),
    );
    let input = (
        prop::vec(expectation, 0..=8),
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
    let fired = Cell::new([false; 10]);
    prop::check(
        0x51310,
        128,
        &input,
        |(expectations, ops, (sample, capacity), window)| {
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
            for (a, b, owed) in expectations {
                let lid = u64::from(a % LINEAGES);
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
            for (i, (kind, a, b)) in ops.iter().enumerate() {
                let now = SimTime::from_millis(i as u64);
                let lid = u64::from(a % LINEAGES);
                // A recorded span, or (one time in len + 1) none at all.
                let any = |x: u32, m: &LineageModel| {
                    let n = m.spans.len() as u32 + 1;
                    if x % n == n - 1 {
                        NO_SPAN
                    } else {
                        x % n
                    }
                };
                // An open span, or (one time in open + 1) none at all.
                let open = |x: u32, m: &LineageModel| {
                    let open = m.open();
                    let n = open.len() as u32 + 1;
                    if x % n == n - 1 {
                        NO_SPAN
                    } else {
                        open[(x % n) as usize]
                    }
                };
                let reason = reasons[*b as usize % reasons.len()];
                let node = b % 4;
                let span = |event, cause, entity, reason, t: [SimTime; 3]| SpanRecord {
                    lineage: lid,
                    node,
                    cause,
                    entity,
                    reason,
                    event,
                    t_enqueue: t[0],
                    t_service_start: t[1],
                    t_done: t[2],
                };
                let opened = [now, SimTime::MAX, SimTime::MAX];
                let done = [now; 3];
                match kind {
                    0 => {
                        let want = if m.sampled(lid) {
                            m.push(span(SpanEvent::Origin, NO_SPAN, NO_ENTITY, "", opened))
                        } else {
                            NO_SPAN
                        };
                        assert_eq!(log.origin(lid, node, now), want);
                    }
                    1 => {
                        let cause = any(*b, &m);
                        let want = if m.sampled(lid) {
                            m.push(span(SpanEvent::Hop, cause, NO_ENTITY, "", opened))
                        } else {
                            NO_SPAN
                        };
                        assert_eq!(log.hop(lid, cause, node, now), want);
                    }
                    2 => {
                        let target = open(*a, &m);
                        if let Some(s) = m.get_mut(target) {
                            s.t_service_start = now;
                        }
                        log.service_start(target, now);
                    }
                    3 => {
                        let target = open(*a, &m);
                        if let Some(s) = m.get_mut(target) {
                            close(s, now);
                        }
                        log.close(target, now);
                    }
                    4 => {
                        let cause = any(*a, &m);
                        let want = if m.sampled(lid) {
                            m.push(span(SpanEvent::Drop, cause, NO_ENTITY, reason, done))
                        } else {
                            NO_SPAN
                        };
                        assert_eq!(log.drop_at(lid, cause, node, reason, now), want);
                    }
                    5 => {
                        let target = open(*a, &m);
                        if let Some(s) = m.get_mut(target) {
                            s.event = SpanEvent::Drop;
                            s.reason = reason;
                            close(s, now);
                        }
                        log.mark_dropped(target, reason, now);
                    }
                    6 => {
                        let cause = open(*a, &m);
                        let entity = b % ENTITIES;
                        let want = match m.lineage_of(cause) {
                            Some(l) => m.push(SpanRecord {
                                lineage: l,
                                ..span(SpanEvent::Deliver, cause, entity, "", done)
                            }),
                            None => NO_SPAN,
                        };
                        assert_eq!(log.deliver_from(cause, node, entity, now), want);
                    }
                    _ => {
                        let cause = open(*a, &m);
                        if let Some(l) = m.lineage_of(cause) {
                            m.push(SpanRecord {
                                lineage: l,
                                ..span(SpanEvent::Drop, cause, NO_ENTITY, reason, done)
                            });
                        }
                        log.drop_from(cause, node, reason, now);
                    }
                }
            }
            // The model is the log, span for span: no span is retired in a
            // log this short.
            assert!(log.spans().iter().eq(&m.spans));
            assert_eq!(log.fingerprint(), m.fingerprint());

            let &(cutoff, damaged, lo, len) = window;
            let cutoff = SimTime::from_millis(cutoff);
            let damage =
                damaged.then(|| (SimTime::from_millis(lo), SimTime::from_millis(lo + len)));
            let got = log.audit(cutoff, damage);
            let want = oracle_audit(&m, cutoff, damage);
            let retained = retained_log_audit(&m, cutoff, damage);
            for report in [&got, &retained] {
                assert_eq!(report.to_json().to_string(), want.to_json().to_string());
                assert_eq!(report.table(), want.table());
            }

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
                m.spans.iter().any(SpanRecord::is_open),
            ];
            let mut all = fired.get();
            for (f, s) in all.iter_mut().zip(seen) {
                *f |= s;
            }
            fired.set(all);
        },
    );
    // The law is not vacuous: every outcome occurred in some case.
    assert!(fired.get().iter().all(|&f| f), "{:?}", fired.get());
}

// ---------------------------------------------------------------------------
// Chrome trace events: the renderer against the `Json` builders it replaced
// ---------------------------------------------------------------------------

/// The journal's trace events as `Json` trees: the builder
/// `Telemetry::trace_events` replaced, kept as the oracle.
fn journal_events_oracle(journal: &[TraceRecord], topo: &Topology, pid: u64) -> Vec<Json> {
    let mut out = Vec::new();
    let mut named = vec![false; topo.node_count()];
    for r in journal {
        if !named[r.node as usize] {
            named[r.node as usize] = true;
            out.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(r.node)),
                (
                    "args",
                    Json::obj([("name", Json::str(topo.node_name(NodeId(r.node))))]),
                ),
            ]));
        }
        let mut ev: Vec<(Text, Json)> = vec![
            ("name".into(), Json::from(r.class)),
            ("cat".into(), Json::from(r.event.as_str())),
            ("pid".into(), Json::from(pid)),
            ("tid".into(), Json::from(r.node)),
            ("ts".into(), Json::from(r.ts.as_nanos() as f64 / 1e3)),
        ];
        if r.event == TraceEvent::Dequeue {
            ev.push(("ph".into(), Json::from("X")));
            ev.push(("dur".into(), Json::from(r.dur_ns as f64 / 1e3)));
        } else {
            ev.push(("ph".into(), Json::from("i")));
            ev.push(("s".into(), Json::from("t")));
        }
        let mut args: Vec<(Text, Json)> = vec![("size".into(), Json::from(r.size))];
        if r.peer != u32::MAX {
            args.push(("peer".into(), Json::from(r.peer)));
        }
        ev.push(("args".into(), Json::Object(args)));
        out.push(Json::Object(ev));
    }
    out
}

/// A run's process-name event as the experiment runner built it.
fn process_name_oracle(pid: u64, label: &str) -> Json {
    Json::obj([
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(0)),
        ("args", Json::obj([("name", Json::str(label))])),
    ])
}

/// The profile lane as `Json` trees: the builder
/// `ProfReport::trace_events` replaced, kept as the oracle.
fn prof_events_oracle(report: &ProfReport, pid: u64) -> Vec<Json> {
    let mut out = vec![Json::obj([
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(0u64)),
        ("args", Json::obj([("name", Json::from("self-profile"))])),
    ])];
    let mut start_at: Vec<u64> = vec![0];
    for p in &report.phases {
        start_at.truncate(p.depth + 1);
        let ts = start_at[p.depth];
        start_at[p.depth] = ts.saturating_add(p.total_ns);
        start_at.push(ts);
        out.push(Json::obj([
            ("name", Json::str(p.path.clone())),
            ("cat", Json::from("prof")),
            ("ph", Json::from("X")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(0u64)),
            ("ts", Json::from(ts as f64 / 1e3)),
            ("dur", Json::from(p.total_ns as f64 / 1e3)),
            (
                "args",
                Json::obj([
                    ("calls", Json::from(p.calls)),
                    ("self_us", Json::from(p.self_ns as f64 / 1e3)),
                ]),
            ),
        ]));
    }
    out
}

/// Every character class the escaper treats apart: quote, backslash,
/// control characters and non-ASCII.
const AWKWARD: &str = "ab/\"\\\n\t\r\u{0}\u{1f}\u{7f}é中🎮";

/// Packet classes are `&'static str`s, as a classifier returns them.
const CLASSES: [&str; 5] = ["multicast", "", "q\"uote\\d", "ctl\u{1}\n", "jeu-é中🎮"];

const EVENTS: [TraceEvent; 6] = [
    TraceEvent::Enqueue,
    TraceEvent::Dequeue,
    TraceEvent::Send,
    TraceEvent::Deliver,
    TraceEvent::Drop,
    TraceEvent::Mark,
];

/// A `u64` picked from 0, 1 and `u64::MAX` half the time, at random
/// otherwise.
fn edge_u64() -> impl prop::Strategy<Value = (u32, u64)> {
    (prop::range(0u32..6), prop::range(0u64..u64::MAX))
}

fn edge(&(pick, random): &(u32, u64)) -> u64 {
    match pick {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        _ => random,
    }
}

/// The values one event shows: what happened, its class and node; when
/// and for how long; its size and its peer, if any.
type RecordCase = (
    (usize, usize, u32),
    (u32, u64),
    (u32, u64),
    ((u32, u64), bool, (u32, u64)),
);

fn record_cases() -> impl prop::Strategy<Value = RecordCase> {
    (
        (
            prop::range(0usize..6),
            prop::range(0usize..5),
            prop::range(0u32..4),
        ),
        edge_u64(),
        edge_u64(),
        (edge_u64(), prop::bools(), edge_u64()),
    )
}

fn record(case: &RecordCase, nodes: u32) -> TraceRecord {
    let &((event, class, node), _, _, (ref size, has_peer, ref peer)) = case;
    // Sizes and peers of 0, 1 and `u32::MAX` too; a peer of `u32::MAX`
    // is an absent one.
    let (size, peer) = (edge(size) as u32, edge(peer) as u32);
    TraceRecord {
        ts: SimTime::from_nanos(edge(&case.1)),
        node: node % nodes,
        event: EVENTS[event],
        class: CLASSES[class],
        size,
        peer: if has_peer { peer } else { u32::MAX },
        dur_ns: edge(&case.2),
    }
}

/// Renders `events` as the JSON array a trace file holds.
fn rendered(events: &[ChromeEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        e.write_to(&mut out);
    }
    out.push(']');
    out
}

/// Checks `got` against the oracle's trees, whole and one by one.
fn assert_renders_as(got: &[ChromeEvent], want: Vec<Json>) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_string(), w.to_string());
    }
    assert_eq!(rendered(got), Json::Array(want).to_string());
}

/// A trace event renders the bytes its `Json` tree did: journal records of
/// every kind, with and without a peer, at times and durations of 0, 1 ns
/// and `u64::MAX` ns, on nodes with awkward names; process names; pids 0
/// and `u64::MAX`.
#[test]
fn journal_events_render_as_their_json_trees() {
    let input = (
        prop::vec(prop::string(AWKWARD, 0..=6), 1..=4),
        prop::vec(record_cases(), 0..=24),
        edge_u64(),
        prop::string(AWKWARD, 0..=8),
    );
    let seen = Cell::new([false; 9]);
    prop::check(
        0x51309,
        CASES * 4,
        &input,
        |(names, records, pid, label)| {
            let mut topo = Topology::new();
            for name in names {
                topo.add_node(name.as_str());
            }
            let mut t = Telemetry::default();
            t.enable(TelemetryConfig::default(), names.len(), 0);
            for r in records {
                t.journal(record(r, names.len() as u32));
            }
            let pid = edge(pid);
            let got = t.trace_events(&topo, pid);
            assert_renders_as(&got, journal_events_oracle(t.journal_records(), &topo, pid));

            let lane = ChromeEvent::ProcessName {
                pid,
                name: label.clone().into(),
            };
            assert_eq!(
                lane.to_string(),
                process_name_oracle(pid, label).to_string()
            );

            let mut s = seen.get();
            for r in t.journal_records() {
                s[EVENTS.iter().position(|&e| e == r.event).unwrap()] = true;
                s[6 + usize::from(r.peer == u32::MAX)] = true;
            }
            s[8] |= pid == u64::MAX;
            seen.set(s);
        },
    );
    // Not vacuous: every event kind, both peer shapes and the largest pid.
    assert!(seen.get().iter().all(|&s| s), "{:?}", seen.get());
}

/// A profile phase renders the bytes its `Json` tree did, over call-trees
/// of any depth with paths of awkward text and counts and times of 0, 1
/// and `u64::MAX`.
#[test]
fn profile_events_render_as_their_json_trees() {
    let phase = (
        prop::range(0usize..=8),
        prop::string(AWKWARD, 0..=6),
        edge_u64(),
        (edge_u64(), edge_u64()),
    );
    let input = (prop::vec(phase, 0..=16), edge_u64());
    let deepest = Cell::new(0);
    prop::check(0x5130a, CASES * 4, &input, |(phases, pid)| {
        let mut report = ProfReport::default();
        for (d, path, calls, (total, self_ns)) in phases {
            // A depth-first order: at most one level below the last phase.
            let depth = report.phases.last().map_or(0, |p| (p.depth + 1).min(*d));
            report.phases.push(PhaseRow {
                path: path.clone(),
                name: path.clone(),
                depth,
                calls: edge(calls),
                total_ns: edge(total),
                self_ns: edge(self_ns),
                max_ns: 0,
            });
            deepest.set(deepest.get().max(depth));
        }
        let pid = edge(pid);
        assert_renders_as(&report.trace_events(pid), prof_events_oracle(&report, pid));
    });
    assert!(deepest.get() >= 4, "call-trees {} deep", deepest.get());
}
