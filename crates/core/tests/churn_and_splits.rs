//! Failure-injection and churn tests: RP splits under live traffic,
//! subscriber churn from player movement, and randomized delivery
//! exactness across RP layouts.

use std::sync::Arc;

use gcopss_core::broker::{
    partition_cds_to_brokers, snapcast_ns, MovingPlayerClient, SnapshotBroker, SnapshotMode,
};
use gcopss_core::scenario::{
    expected_deliveries, ClientFactory, GcopssConfig, NetworkSpec, ScenarioSpec,
};
use gcopss_core::{MetricsMode, SimParams};
use gcopss_game::MovementModel;
use gcopss_sim::{SimDuration, SimTime};

use gcopss_core::experiments::{Workload, WorkloadParams};

fn workload(updates: usize, players: usize, seed: u64) -> Workload {
    Workload::counter_strike(&WorkloadParams {
        seed,
        updates,
        players,
        ..WorkloadParams::default()
    })
}

/// Randomized exactness: across seeds and RP layouts, delivery is exact
/// and duplicate-free in steady state.
#[test]
fn delivery_exact_across_rp_layouts_and_seeds() {
    for seed in [1u64, 2, 3] {
        for rp_count in [1usize, 2, 4, 6] {
            let w = workload(600, 60, seed);
            let expected = expected_deliveries(&w.map, &w.population, &w.trace);
            let cfg = GcopssConfig {
                delivery_log: true,
                rp_count,
                ..GcopssConfig::default()
            };
            let net = NetworkSpec::default_backbone(seed * 31 + rp_count as u64);
            let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
                .gcopss(cfg)
                .build()
                .into_gcopss();
            b.sim.run();
            let world = b.sim.world();
            assert_eq!(
                world.metrics.delivered(),
                expected,
                "seed={seed} rps={rp_count}"
            );
            assert_eq!(world.duplicate_deliveries, 0, "seed={seed} rps={rp_count}");
        }
    }
}

/// A split in the middle of live traffic: every in-flight and subsequent
/// update still reaches every subscriber (the §IV-B no-loss guarantee),
/// and the latency after the split beats the pre-split congestion.
#[test]
fn split_mid_traffic_is_loss_free() {
    let w = workload(6_000, 100, 23);
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let mut params = SimParams::default().with_auto_balancing(30);
    params.rp_split_cooldown_packets = 800;
    let cfg = GcopssConfig {
        params,
        delivery_log: true,
        metrics_mode: MetricsMode::PerPublication,
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let net = NetworkSpec::default_backbone(29);
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .build()
        .into_gcopss();
    b.sim.run();
    let world = b.sim.world();
    assert!(!world.splits.is_empty(), "split must fire under congestion");
    assert_eq!(world.metrics.delivered(), expected, "no update lost");
    // After the split(s) drain the backlog, the tail of the trace must be
    // served well below the congestion peak.
    let rows = world.metrics.per_publication_rows();
    let k = (rows.len() / 8).max(1);
    let quarter_mean = |slice: &[(u64, gcopss_sim::SimDuration, gcopss_sim::SimDuration, gcopss_sim::SimDuration)]| {
        slice.iter().map(|r| r.2.as_millis_f64()).sum::<f64>() / slice.len().max(1) as f64
    };
    let peak = rows
        .chunks(k)
        .map(quarter_mean)
        .fold(0.0f64, f64::max);
    let tail = quarter_mean(&rows[rows.len() - k..]);
    assert!(
        tail < peak * 0.7,
        "post-split tail ({tail:.1} ms) should be well below the congestion peak ({peak:.1} ms)"
    );
}

/// Subscriber churn: players move (unsubscribe/resubscribe + snapshot
/// fetches) while the update stream runs. The control plane must stay
/// consistent: no unroutable publications, and the brokers keep serving.
#[test]
fn movement_churn_keeps_control_plane_consistent() {
    let w = workload(1_500, 80, 31);
    let trace_span = w.span();
    let model = MovementModel::new((1_000_000_000, 3_000_000_000)); // move every 1–3 s
    let mut moves = model.generate(5, &w.map, &w.population, trace_span.as_nanos());
    moves.retain(|m| m.player.index() % 8 == 0); // 10 movers keep brokers sane
    assert!(!moves.is_empty());

    let serving = partition_cds_to_brokers(&w.map, 3);
    let net = NetworkSpec::default_backbone(37);
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let attach_at = |i: usize| pool[(3 + i) % pool.len()];
    let extra_hosts =
        SnapshotBroker::hosts(serving, attach_at, false, &params, &w.objects, &w.trace);

    let cfg = GcopssConfig {
        params,
        delivery_log: true,
        rp_count: 3,
        extra_rp_prefixes: vec![snapcast_ns()],
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let map = Arc::clone(&w.map);
    let pop = &w.population;
    let moves_ref = &moves;
    let factory: ClientFactory<'_> = Box::new(move |p, edge, cursor| {
        let my_moves: Vec<_> = moves_ref
            .iter()
            .filter(|m| m.player == p)
            .cloned()
            .collect();
        Box::new(MovingPlayerClient::new(
            p,
            edge,
            pop.area_of(p),
            Arc::clone(&map),
            cursor,
            my_moves,
            warmup,
            SnapshotMode::QueryResponse { window: 15 },
        ))
    });
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .extra_hosts(extra_hosts)
        .client_factory(factory)
        .build()
        .into_gcopss();
    let horizon = SimTime::ZERO + warmup + trace_span + SimDuration::from_secs(60);
    b.sim.run_until(horizon);
    let world = b.sim.world();

    // All updates published; control plane never hit a routing hole.
    assert_eq!(world.metrics.published(), w.trace.len() as u64);
    assert_eq!(world.counter("torp-no-route"), 0);
    assert_eq!(world.counter("publication-unserved-cd"), 0);
    assert_eq!(world.counter("broker-unknown-interest"), 0);
    // Movement completed with convergence records and snapshot bytes.
    assert!(!world.convergence.is_empty());
    assert!(world.convergence.iter().any(|c| c.bytes > 0));
    // Brokers stayed subscribed and applied live updates.
    assert!(world.counter("broker-updates-applied") > 0);
}

/// The same movement churn under cyclic multicast: streams start and stop
/// with join/leave, and convergence completes.
#[test]
fn movement_churn_cyclic_mode() {
    let w = workload(2_000, 60, 41);
    let trace_span = w.span();
    // Trace spans ~4.8 s; 8 movers, each moving once after 1-2 s.
    let model = MovementModel::new((1_000_000_000, 2_000_000_000));
    let mut moves = model.generate(6, &w.map, &w.population, trace_span.as_nanos());
    moves.retain(|m| m.player.index() % 8 == 0);
    assert!(!moves.is_empty(), "movement schedule must not be empty");

    let serving = partition_cds_to_brokers(&w.map, 2);
    let net = NetworkSpec::default_backbone(43);
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let attach_at = |i: usize| pool[(3 + i) % pool.len()];
    let extra_hosts =
        SnapshotBroker::hosts(serving, attach_at, false, &params, &w.objects, &w.trace);
    let cfg = GcopssConfig {
        params,
        rp_count: 3,
        extra_rp_prefixes: vec![snapcast_ns()],
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let map = Arc::clone(&w.map);
    let pop = &w.population;
    let moves_ref = &moves;
    let factory: ClientFactory<'_> = Box::new(move |p, edge, cursor| {
        let my_moves: Vec<_> = moves_ref
            .iter()
            .filter(|m| m.player == p)
            .cloned()
            .collect();
        Box::new(MovingPlayerClient::new(
            p,
            edge,
            pop.area_of(p),
            Arc::clone(&map),
            cursor,
            my_moves,
            warmup,
            SnapshotMode::CyclicMulticast,
        ))
    });
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .extra_hosts(extra_hosts)
        .client_factory(factory)
        .build()
        .into_gcopss();
    let horizon = SimTime::ZERO + warmup + trace_span + SimDuration::from_secs(90);
    b.sim.run_until(horizon);
    let world = b.sim.world();
    assert!(world.counter("broker-cyclic-joins") > 0, "no cyclic joins");
    assert!(world.counter("broker-cyclic-sent") > 0, "no cyclic stream");
    assert!(
        world.convergence.iter().any(|c| c.leaf_cds > 0 && c.bytes > 0),
        "no cyclic fetch completed"
    );
}

/// §IV-A offline support: a player that comes online mid-game subscribes,
/// downloads the snapshot of everything it can see, and starts receiving
/// live updates from then on.
#[test]
fn offline_player_comes_online() {
    let w = workload(2_000, 60, 53);
    let trace_span = w.span();

    let serving = partition_cds_to_brokers(&w.map, 3);
    let net = NetworkSpec::default_backbone(47);
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let attach_at = |i: usize| pool[(3 + i) % pool.len()];
    let snapcast_rp = |(i, cds): (usize, &Vec<_>)| {
        let snapcast = cds.iter().map(|cd| snapcast_ns().join(cd));
        (snapcast.collect(), attach_at(i))
    };
    let extra_rps = serving.iter().enumerate().map(snapcast_rp).collect();
    let extra_hosts =
        SnapshotBroker::hosts(serving, attach_at, false, &params, &w.objects, &w.trace);

    let cfg = GcopssConfig {
        params,
        delivery_log: true,
        rp_count: 3,
        extra_rps,
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    // Player 5 is offline for the first ~1.5 s of the trace, then joins.
    let joiner = gcopss_game::PlayerId(5);
    let online_at = SimTime::ZERO + warmup + SimDuration::from_millis(1_500);
    let map = Arc::clone(&w.map);
    let pop = &w.population;
    let factory: ClientFactory<'_> = Box::new(move |p, edge, cursor| {
        let client = MovingPlayerClient::new(
            p,
            edge,
            pop.area_of(p),
            Arc::clone(&map),
            cursor,
            Vec::new(),
            warmup,
            SnapshotMode::QueryResponse { window: 15 },
        );
        if p == joiner {
            Box::new(client.offline_until(online_at))
        } else {
            Box::new(client)
        }
    });
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .extra_hosts(extra_hosts)
        .client_factory(factory)
        .build()
        .into_gcopss();
    let horizon = SimTime::ZERO + warmup + trace_span + SimDuration::from_secs(60);
    b.sim.run_until(horizon);
    let world = b.sim.world();

    // The join completed: one online-join convergence record covering the
    // player's whole view, with real snapshot bytes.
    let joins: Vec<_> = world
        .convergence
        .iter()
        .filter(|r| r.online_join)
        .collect();
    assert_eq!(joins.len(), 1, "exactly one online join");
    let j = joins[0];
    assert_eq!(j.player, joiner);
    assert_eq!(
        j.leaf_cds,
        w.map.visible_leaf_cds(w.population.area_of(joiner)).len(),
        "a joiner downloads its entire view"
    );
    assert!(j.bytes > 0, "snapshot bytes received");
    assert!(j.convergence > SimDuration::ZERO);
    assert_eq!(world.counter("online-joins"), 1);

    // After joining, the player receives live updates: the delivery log
    // holds (publication, joiner) pairs for updates published post-join.
    let log = world.delivery_log.as_ref().expect("log enabled");
    let online_ns = online_at.as_nanos();
    let late_delivery = log.iter().any(|&(id, p)| {
        p == joiner.0
            && w.trace
                .get(id as usize)
                .is_some_and(|e| e.time_ns + warmup.as_nanos() > online_ns)
    });
    assert!(late_delivery, "joiner must receive post-join updates");

    // And while offline it neither published nor received anything.
    let early_delivery = log.iter().any(|&(id, p)| {
        p == joiner.0
            && w.trace
                .get(id as usize)
                .is_some_and(|e| e.time_ns + warmup.as_nanos() + 200_000_000 < online_ns)
    });
    assert!(
        !early_delivery,
        "no deliveries to the player while offline"
    );
}
