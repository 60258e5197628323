//! Drop-reason coverage gate: every tag registered in
//! [`gcopss_core::drops::ALL`] must show up in at least one telemetry
//! counters export across a mini experiment suite. A new drop site whose
//! tag never fires anywhere would ship untestable — this gate forces every
//! registered reason to have at least one exercising scenario. Along the
//! way, every reason's export must equal the simulator's drop ledger.
//!
//! Each scenario below is a small simulation arranged to fire a specific
//! subset of tags: chaos faults for the engine-level drops and soft-state
//! purges, targeted [`gcopss_sim::Simulator::inject`] calls for the
//! defensive arms that healthy runs never reach (unroutable RPs, unknown
//! interests, unexpected packet kinds, aged-out NDN batches), and a
//! past-capacity run behind a tight bounded queue for the overload sheds
//! (`queue-full`, `aqm-shed`, `stale-superseded`, `rate-limited`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gcopss_copss::{CopssPacket, MulticastPacket, RpId};
use gcopss_core::broker::SnapshotBroker;
use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::ip_server::IpClient;
use gcopss_core::ndn_baseline::player_prefix;
use gcopss_core::scenario::{
    GcopssConfig, HybridConfig, IpConfig, NdnBaselineConfig, NetworkSpec, ScenarioSpec,
};
use gcopss_core::{
    drops, payload_of, GPacket, GameWorld, IpPacket, IpUpdate, RecoveryConfig, TraceCursor,
};
use gcopss_game::{ObjectModel, ObjectModelParams, PlayerId};
use gcopss_names::{Cd, Name};
use gcopss_ndn::{Data, Interest};
use gcopss_sim::generators::BackboneParams;
use gcopss_sim::{
    AdmissionPolicy, FaultPlan, OverloadConfig, SimDuration, SimTime, Simulator, TelemetryConfig,
};

/// Publication-id space for injected packets, far above any trace id.
const INJECT_ID: u64 = 1 << 50;

fn harvest(sim: &Simulator<GPacket, GameWorld>, seen: &mut BTreeSet<&'static str>) {
    for &tag in drops::ALL {
        let exported = sim.telemetry().counter_total(tag);
        if exported > 0 {
            seen.insert(tag);
        }
        // Every reason, the engine's and the behaviors' alike, is counted
        // once per dropped item, in the export and in the simulator's one
        // drop ledger — and never among the world's named counts.
        assert_eq!(exported, sim.dropped(tag), "{tag}: telemetry vs ledger");
        assert_eq!(sim.world().counter(tag), 0, "{tag}: a world counter");
    }
}

fn mcast(cd: &str, id: u64) -> MulticastPacket {
    MulticastPacket::new(Cd::new(Name::parse_lit(cd)), payload_of(64), id)
}

/// G-COPSS under chaos: link flaps and an RP crash fire the engine fault
/// drops (`link-lost`, `node-lost`) and the routers' soft-state purges
/// (`st-purged`); injections cover the COPSS routing dead-ends, the client
/// dedup window and the broker's unknown-interest arm.
fn gcopss_chaos(seen: &mut BTreeSet<&'static str>) {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 7,
        players: 24,
        updates: 2_000,
        ..WorkloadParams::default()
    });
    let net = NetworkSpec::Backbone {
        seed: 5,
        params: BackboneParams {
            core_routers: 12,
            ..BackboneParams::default()
        },
    };
    let links = net.core_links_preview();
    let broker_at = net.rp_pool_preview()[0];
    let cfg = GcopssConfig {
        rp_count: 2,
        recovery: Some(RecoveryConfig::default()),
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let serving: Vec<Name> = w.map.leaf_cds().iter().take(2).cloned().collect();
    let objects = ObjectModel::generate(7, &w.map, &ObjectModelParams::default());
    let params = gcopss_core::SimParams::default();
    let broker = SnapshotBroker::hosts(
        vec![serving],
        |_| broker_at,
        false,
        &params,
        &objects,
        &w.trace,
    );
    let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .extra_hosts(broker)
        .build()
        .into_gcopss();

    let crash = *built.rp_nodes.values().next_back().expect("two RPs");
    let rp0_node = built.rp_nodes[&RpId(0)];
    let span = w.span();
    let at = |num: u64, den: u64| {
        SimTime::ZERO + warmup + SimDuration::from_nanos(span.as_nanos() * num / den)
    };
    let plan = FaultPlan::new(0xda05)
        .random_link_flaps(
            &links,
            4,
            at(2, 10),
            at(6, 10),
            SimDuration::from_millis(500),
        )
        .node_down(at(3, 10), crash)
        .node_up(at(5, 10), crash);
    built.sim.enable_telemetry(TelemetryConfig::default());
    built.sim.install_faults(plan);

    // Injections before the crash window, while every target is alive.
    let t = at(1, 10);
    let player = built.player_nodes[0];
    let (edge, _) = built
        .sim
        .topology()
        .neighbors(player)
        .next()
        .expect("player attached");
    // Host publication whose CD maps to no RP (the map only assigns /0../5).
    let p = GPacket::Copss(CopssPacket::Multicast(mcast("/99/1", INJECT_ID)));
    let size = p.wire_size();
    built.sim.inject(t, edge, p, size);
    // Transit ToRp toward an RP no FIB route exists for.
    let p = GPacket::ToRp {
        rp: RpId(77),
        inner: mcast("/1/1", INJECT_ID + 1),
    };
    let size = p.wire_size();
    built.sim.inject(t, edge, p, size);
    // ToRp reaching its RP with a CD the RP table does not serve.
    let p = GPacket::ToRp {
        rp: RpId(0),
        inner: mcast("/99/2", INJECT_ID + 2),
    };
    let size = p.wire_size();
    built.sim.inject(t, rp0_node, p, size);
    // The same multicast twice at one player: the second copy must hit the
    // dedup window.
    for _ in 0..2 {
        let p = GPacket::Copss(CopssPacket::Multicast(mcast("/1/1", INJECT_ID + 3)));
        let size = p.wire_size();
        built.sim.inject(t, player, p, size);
    }
    // An interest the broker cannot parse as snapshot or stream control.
    let p = GPacket::Interest(Interest::new(Name::parse_lit("/bogus/1"), 9_001));
    let size = p.wire_size();
    built.sim.inject(t, built.hosts[0], p, size);
    // A chunk interest for an id no broker holds: the expected miss on the
    // /chunk fan-out (chunk names carry no CD, so non-holders always miss).
    let p = GPacket::Interest(Interest::new(
        Name::parse_lit("/chunk/0000000000000000"),
        9_002,
    ));
    let size = p.wire_size();
    built.sim.inject(t, built.hosts[0], p, size);
    // Chunk data whose bytes do not hash to its name: the client's
    // content-addressed integrity check must reject it.
    let p = GPacket::Data(Data::new(
        Name::parse_lit("/chunk/0000000000000000"),
        payload_of(8),
    ));
    let size = p.wire_size();
    built.sim.inject(t, player, p, size);
    // Catch-up data arriving at a client with no fetch in flight (a
    // retransmit racing its original, or a stale delivery).
    let p = GPacket::Data(Data::new(Name::parse_lit("/snapmani/1/1"), payload_of(4)));
    let size = p.wire_size();
    built.sim.inject(t, player, p, size);

    let horizon = SimTime::ZERO + warmup + span + SimDuration::from_secs(8);
    built.sim.run_until(horizon);
    harvest(&built.sim, seen);
}

/// NDN baseline with link flaps: dangling PIT state is purged on face death
/// and expired by the recovery sweep; an injected interest for a batch far
/// behind the producer's history window fires the aged-out arm.
fn ndn_faults(seen: &mut BTreeSet<&'static str>) {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 11,
        players: 4,
        updates: 3_000,
        ..WorkloadParams::default()
    });
    let net = NetworkSpec::Testbed;
    let links = net.core_links_preview();
    let cfg = NdnBaselineConfig {
        recovery: Some(RecoveryConfig::default()),
        // Flush often enough that the 128-batch history window rolls over
        // within the trace span, so an early seq is genuinely aged out.
        accum_interval: SimDuration::from_millis(10),
        ..NdnBaselineConfig::default()
    };
    let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .ndn_baseline(cfg)
        .build();
    let warmup = built.warmup;

    let span = w.span();
    let at = |num: u64, den: u64| {
        SimTime::ZERO + warmup + SimDuration::from_nanos(span.as_nanos() * num / den)
    };
    let plan = FaultPlan::new(0xbeef).random_link_flaps(
        &links,
        6,
        at(2, 10),
        at(7, 10),
        SimDuration::from_millis(500),
    );
    built.sim.enable_telemetry(TelemetryConfig::default());
    built.sim.install_faults(plan);

    // Ask player 0 for its very first batch near the end of the run — by
    // then the producer has flushed far more than 128 batches and evicted
    // seq 0 from history.
    let name = player_prefix(PlayerId(0)).child_index(0);
    let p = GPacket::Interest(Interest::new(name, 9_002));
    let size = p.wire_size();
    built.sim.inject(at(9, 10), built.player_nodes[0], p, size);

    let horizon = SimTime::ZERO + warmup + span + SimDuration::from_secs(6);
    built.sim.run_until(horizon);
    harvest(&built.sim, seen);
}

/// IP baseline with a server crash: the restarted server's empty connection
/// table drops updates for not-yet-reconnected players; injections cover
/// the unexpected-packet arm and the no-server client dead-end.
fn ip_server_crash(seen: &mut BTreeSet<&'static str>) {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 13,
        players: 16,
        updates: 1_500,
        ..WorkloadParams::default()
    });
    let net = NetworkSpec::default_backbone(11);
    let cfg = IpConfig {
        server_count: 1,
        recovery: Some(RecoveryConfig::default()),
        ..IpConfig::default()
    };
    let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .ip_server(cfg)
        .build()
        .into_ip_server();
    let (server, warmup) = (built.hosts[0], built.warmup);

    let span = w.span();
    let at = |num: u64, den: u64| {
        SimTime::ZERO + warmup + SimDuration::from_nanos(span.as_nanos() * num / den)
    };
    let plan = FaultPlan::new(0xfeed)
        .node_down(at(3, 10), server)
        .node_up(at(4, 10), server);
    built.sim.enable_telemetry(TelemetryConfig::default());
    built.sim.install_faults(plan);

    // A packet kind the server never expects.
    let p = GPacket::Interest(Interest::new(Name::parse_lit("/bogus/2"), 9_003));
    let size = p.wire_size();
    built.sim.inject(at(1, 10), server, p, size);

    // Player 0 publishes into an empty server map: every pop is a
    // no-server drop.
    let player = built.player_nodes[0];
    let (edge, _) = built
        .sim
        .topology()
        .neighbors(player)
        .next()
        .expect("player attached");
    let cursor = TraceCursor::for_player(Arc::clone(&w.trace), PlayerId(0), warmup);
    built.sim.set_behavior(
        player,
        Box::new(IpClient::new(
            PlayerId(0),
            edge,
            Arc::new(BTreeMap::new()),
            cursor,
        )),
    );

    let horizon = SimTime::ZERO + warmup + span + SimDuration::from_secs(8);
    built.sim.run_until(horizon);
    harvest(&built.sim, seen);
}

/// Hybrid with heavy group sharing: edges filter unwanted group traffic;
/// injections cover the unexpected-packet arm and (with a crashed host and
/// failure-aware routing) the unroutable-IP-destination arm.
fn hybrid_filtering(seen: &mut BTreeSet<&'static str>) {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 17,
        players: 31,
        updates: 800,
        ..WorkloadParams::default()
    });
    let net = NetworkSpec::default_backbone(13);
    let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .hybrid(HybridConfig { group_count: 2 })
        .build();
    let warmup = built.warmup;

    let span = w.span();
    let at = |num: u64, den: u64| {
        SimTime::ZERO + warmup + SimDuration::from_nanos(span.as_nanos() * num / den)
    };
    let dead = built.player_nodes[1];
    let plan = FaultPlan::new(0xace).node_down(at(1, 10), dead);
    built.sim.enable_telemetry(TelemetryConfig::default());
    built.sim.install_faults(plan);

    let player = built.player_nodes[0];
    let (edge, _) = built
        .sim
        .topology()
        .neighbors(player)
        .next()
        .expect("player attached");
    // An IP unicast toward the crashed host: failure-aware routing leaves
    // no path, so the edge's forwarding hits the no-route arm.
    let p = GPacket::Ip(IpPacket::ToClient {
        client: dead,
        update: IpUpdate {
            id: INJECT_ID,
            cd: Name::parse_lit("/1/1"),
            size: 64,
        },
    });
    let size = p.wire_size();
    built.sim.inject(at(5, 10), edge, p, size);
    // A packet kind hybrid edges never expect.
    let p = GPacket::Interest(Interest::new(Name::parse_lit("/bogus/3"), 9_004));
    let size = p.wire_size();
    built.sim.inject(at(5, 10), edge, p, size);

    built.sim.run();
    harvest(&built.sim, seen);
}

/// G-COPSS far past capacity behind a tight AQM queue: the admission layer
/// fires `queue-full` rejections and `stale-superseded` evictions, CoDel
/// sheds standing-queue heads (`aqm-shed`), and congestion marks drive the
/// clients' pacers into source sheds (`rate-limited`).
fn overload_shedding(seen: &mut BTreeSet<&'static str>) {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 19,
        players: 24,
        updates: 2_000,
        // ≈4× the 2-RP aggregate service rate (3.3 ms / 2 = 1.65 ms).
        mean_interarrival: SimDuration::from_micros(400),
    });
    let net = NetworkSpec::default_backbone(7);
    let cfg = GcopssConfig {
        rp_count: 2,
        recovery: Some(RecoveryConfig::default()),
        rate_adapt: true,
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .overload(OverloadConfig {
            queue_capacity: Some(8),
            policy: AdmissionPolicy::CoDel {
                target: SimDuration::from_millis(2),
                interval: SimDuration::from_millis(20),
            },
            priority: true,
            mark_sojourn: Some(SimDuration::from_millis(4)),
        })
        .build()
        .into_gcopss();
    built.sim.enable_telemetry(TelemetryConfig::default());

    let span = w.span();
    let horizon = SimTime::ZERO + warmup + span + SimDuration::from_secs(5);
    built.sim.run_until(horizon);
    harvest(&built.sim, seen);
}

#[test]
fn every_drop_reason_appears_in_some_telemetry_export() {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    gcopss_chaos(&mut seen);
    ndn_faults(&mut seen);
    ip_server_crash(&mut seen);
    hybrid_filtering(&mut seen);
    overload_shedding(&mut seen);

    let missing: Vec<&&str> = drops::ALL.iter().filter(|t| !seen.contains(**t)).collect();
    assert!(
        missing.is_empty(),
        "drop reasons never observed in any telemetry counters export: {missing:?}\n\
         observed: {seen:?}"
    );
}
