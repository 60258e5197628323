//! Failure-injection and churn tests: RP splits under live traffic,
//! subscriber churn from player movement, and randomized delivery
//! exactness across RP layouts.

use gcopss_core::broker::{partition_cds_to_brokers, SnapshotBroker, SnapshotMode};
use gcopss_core::scenario::{expected_deliveries, GcopssConfig, NetworkSpec, ScenarioSpec};
use std::sync::Arc;

use gcopss_compat::bytes::Bytes;
use gcopss_core::{
    drops, GPacket, GamePlayerClient, GameWorld, MetricsMode, RecoveryConfig, SimParams, SnapName,
    TraceCursor,
};
use gcopss_game::{GameMap, MoveEvent, MoveType, MovementModel, PlayerId};
use gcopss_names::Name;
use gcopss_ndn::Data;
use gcopss_sim::{FaultPlan, NodeId, SimDuration, SimTime, Simulator, Topology};

use gcopss_core::experiments::{Workload, WorkloadParams};

fn workload(updates: usize, players: usize, seed: u64) -> Workload {
    Workload::counter_strike(&WorkloadParams {
        seed,
        updates,
        players,
        ..WorkloadParams::default()
    })
}

/// One dedicated RP per broker for its CDs' `/snapcast` groups (what cyclic
/// multicast needs), at the router the broker attaches to.
fn snapcast_rps(
    serving: &[Vec<Name>],
    attach_at: impl Fn(usize) -> NodeId,
) -> Vec<(Vec<Name>, NodeId)> {
    let group = |cd: &Name| {
        let cd = cd.components();
        SnapName::Stream { cd }.name()
    };
    let groups = |cds: &Vec<Name>| cds.iter().map(group).collect();
    serving.iter().enumerate().map(|(i, cds)| (groups(cds), attach_at(i))).collect()
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
                rp_count,
                ..GcopssConfig::default()
            };
            let net = NetworkSpec::default_backbone(seed * 31 + rp_count as u64);
            let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
                .gcopss(cfg)
                .delivery_log()
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
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let net = NetworkSpec::default_backbone(29);
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .metrics_mode(MetricsMode::PerPublication)
        .delivery_log()
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
        rp_count: 3,
        extra_rp_prefixes: vec![SnapName::Stream { cd: &[] }.name()],
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .delivery_log()
        .extra_hosts(extra_hosts)
        .moves(moves, SnapshotMode::QueryResponse { window: 15 })
        .build()
        .into_gcopss();
    let horizon = SimTime::ZERO + warmup + trace_span + SimDuration::from_secs(60);
    b.sim.run_until(horizon);
    let world = b.sim.world();

    // All updates published; control plane never hit a routing hole.
    assert_eq!(world.metrics.published(), w.trace.len() as u64);
    assert_eq!(b.sim.dropped("torp-no-route"), 0);
    assert_eq!(b.sim.dropped("publication-unserved-cd"), 0);
    assert_eq!(b.sim.dropped("broker-unknown-interest"), 0);
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
        extra_rp_prefixes: vec![SnapName::Stream { cd: &[] }.name()],
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .extra_hosts(extra_hosts)
        .moves(moves, SnapshotMode::CyclicMulticast)
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

/// `ScenarioSpec::moves` is data: every player executes exactly its own
/// events, in schedule order, and a player without moves is the plain client
/// it was before — an empty schedule installs nothing.
#[test]
fn each_mover_executes_its_own_schedule_in_order() {
    let w = workload(1_500, 80, 31);
    let trace_span = w.span();
    let model = MovementModel::new((1_500_000_000, 2_500_000_000));
    let mut moves = model.generate(5, &w.map, &w.population, trace_span.as_nanos());
    moves.retain(|m| m.player.index() % 8 == 0);
    assert!(moves.iter().any(|m| m.player != moves[0].player), "several movers");

    let net = NetworkSpec::default_backbone(37);
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let brokers = || {
        let serving = partition_cds_to_brokers(&w.map, 3);
        let attach_at = |i: usize| pool[(3 + i) % pool.len()];
        SnapshotBroker::hosts(serving, attach_at, false, &params, &w.objects, &w.trace)
    };
    let spec = || {
        ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
            .gcopss(GcopssConfig::default())
            .extra_hosts(brokers())
    };
    let horizon = SimTime::ZERO + GcopssConfig::default().warmup + trace_span
        + SimDuration::from_secs(30);

    let mode = SnapshotMode::QueryResponse { window: 15 };
    let mut moving = spec().moves(moves.clone(), mode).build().into_gcopss();
    moving.sim.run_until(horizon);
    let world = moving.sim.world();
    // Every move ends in a convergence record unless the player's next
    // move superseded its fetch ...
    assert_eq!(
        world.convergence.len() as u64 + world.counter("mover-fetch-superseded"),
        moves.len() as u64
    );
    // ... and each player's records follow its own schedule, in order.
    for p in w.population.players() {
        let mut scheduled = moves.iter().filter(|m| m.player == p).map(|m| m.move_type);
        for r in world.convergence.iter().filter(|r| r.player == p) {
            assert!(scheduled.any(|t| t == r.move_type), "player {p:?} ran {r:?} off schedule");
        }
    }

    let mut plain = spec().build().into_gcopss();
    plain.sim.run_until(horizon);
    let mut empty = spec().moves(Vec::new(), SnapshotMode::CyclicMulticast).build().into_gcopss();
    empty.sim.run_until(horizon);
    assert_eq!(empty.sim.events_processed(), plain.sim.events_processed());
    assert_eq!(empty.sim.world().metrics.delivered(), plain.sim.world().metrics.delivered());
}

/// A mover gets the client's recovery for free: cut off by an access-link
/// flap 100 ms into its first move's fetch, it re-subscribes on `LinkUp` —
/// at the area it has moved to — re-expresses what the fetch still waits
/// for (QR: the stall sweep re-sends the owed Interests; cyclic: the group
/// Subscribes and `join`s go out again), and still publishes its whole
/// trace slice. The flap costs time, not the fetch.
#[test]
fn mover_under_recovery_resubscribes_after_link_flap() {
    let w = workload(1_500, 80, 31);
    let trace_span = w.span();
    let model = MovementModel::new((1_000_000_000, 3_000_000_000));
    let mut moves = model.generate(5, &w.map, &w.population, trace_span.as_nanos());
    moves.retain(|m| m.player.index() % 8 == 0);
    // The mover moves once, so nothing but the flap can end its fetch: its
    // schedule's later moves would supersede a fetch that outlasts them.
    let (mover, first_move) = (moves[0].player, moves[0].time_ns);
    moves.retain(|m| m.player != mover || m.time_ns == first_move);
    assert!(!moves[0].snapshot_cds.is_empty(), "the first move fetches");

    let net = NetworkSpec::default_backbone(37);
    let pool = net.rp_pool_preview();
    let warmup = GcopssConfig::default().warmup;
    // The mover's access link is down from just after its first move until
    // one second later (half a watchdog period: only `LinkUp` can tell).
    let link = net.player_access_links(w.population.len())[mover.index()];
    let cut = SimTime::from_nanos(moves[0].time_ns) + warmup + SimDuration::from_millis(100);
    let flap = || {
        FaultPlan::new(7)
            .link_down(cut, link)
            .link_up(cut + SimDuration::from_secs(1), link)
    };
    let run = |plan: FaultPlan, mode: SnapshotMode| {
        let params = SimParams::default();
        let serving = partition_cds_to_brokers(&w.map, 3);
        let attach_at = |i: usize| pool[(3 + i) % pool.len()];
        let extra_rps = snapcast_rps(&serving, attach_at);
        let extra_hosts =
            SnapshotBroker::hosts(serving, attach_at, false, &params, &w.objects, &w.trace);
        let cfg = GcopssConfig {
            params,
            recovery: Some(RecoveryConfig::default()),
            extra_rps,
            ..GcopssConfig::default()
        };
        let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
            .gcopss(cfg)
            .extra_hosts(extra_hosts)
            .moves(moves.clone(), mode)
            .fault_plan(plan)
            .build()
            .into_gcopss();
        b.sim.run_until(SimTime::ZERO + warmup + trace_span + SimDuration::from_secs(30));
        b.sim.into_world()
    };
    // What the mover's completed fetches covered, in completion order.
    let fetched = |world: &GameWorld| -> Vec<_> {
        let own = world.convergence.iter().filter(|r| r.player == mover);
        own.map(|r| (r.move_type, r.leaf_cds, r.bytes > 0)).collect()
    };
    let qr = SnapshotMode::QueryResponse { window: 15 };
    let (calm, flapped) = (run(FaultPlan::new(7), qr), run(flap(), qr));
    assert!(
        flapped.counter("client-resubscribes") > calm.counter("client-resubscribes"),
        "no re-subscribe after LinkUp"
    );
    assert_eq!(flapped.metrics.published(), w.trace.len() as u64);
    let first = (moves[0].move_type, moves[0].snapshot_cds.len(), true);
    assert_eq!(fetched(&flapped).first(), Some(&first), "the cut-off fetch never completed");
    assert_eq!(fetched(&flapped), fetched(&calm));
    assert_eq!(
        flapped.counter("mover-fetch-superseded"),
        calm.counter("mover-fetch-superseded"),
        "the flap cost a fetch"
    );
    assert!(flapped.catchup_ledger.audit().clean());

    let cyclic = run(flap(), SnapshotMode::CyclicMulticast);

    assert_eq!(fetched(&cyclic).first(), Some(&first), "the cut-off cyclic fetch never completed");
}

/// Data answering a superseded move fetch finds no taker: it is dropped
/// as late, its debt is written off, and the successor's byte count
/// stays the successor's own.
#[test]
fn superseded_fetch_data_is_late_not_the_successors() {
    let mut topology = Topology::new();
    let (host, edge) = (topology.add_node("player"), topology.add_node("edge"));
    topology
        .try_add_link(host, edge, SimDuration::from_millis(1), None)
        .expect("two known nodes");
    let player = PlayerId(0);
    let map = Arc::new(GameMap::paper_map());
    let (old_cd, new_cd) = (map.leaf_cds()[0].clone(), map.leaf_cds()[1].clone());
    let area = |cd: &Name| map.area_of_leaf_cd(cd).expect("a leaf CD has its area");
    let hop = |ms: u64, to: &Name, from: &Name| MoveEvent {
        time_ns: ms * 1_000_000,
        player,
        from: area(from),
        to: area(to),
        move_type: MoveType::ZoneSameRegion,
        snapshot_cds: vec![to.clone()],
    };
    // The second move, 10 ms after the first, supersedes its fetch.
    let moves = vec![hop(0, &old_cd, &new_cd), hop(10, &new_cd, &old_cd)];
    let cursor = TraceCursor::for_player(Arc::new(Vec::new()), player, SimDuration::ZERO);
    let client = GamePlayerClient::new(player, edge, area(&new_cd), Arc::clone(&map), cursor)
        .with_mover(moves, SnapshotMode::QueryResponse { window: 15 }, None);
    let mut sim = Simulator::new(topology, GameWorld::default());
    sim.set_behavior(host, Box::new(client));

    // The answer to the superseded fetch (3 objects), then the
    // successor's own (an empty CD: the fetch completes on it).
    let meta = |cd: &Name, objects: u32| {
        let name = Name::parse_lit(&format!("/snapshot{cd}/meta"));
        GPacket::Data(Data::new(name, Bytes::copy_from_slice(&objects.to_le_bytes())))
    };
    for (ms, pkt) in [(20, meta(&old_cd, 3)), (30, meta(&new_cd, 0))] {
        let size = pkt.wire_size();
        sim.inject(SimTime::from_millis(ms), host, pkt, size);
    }
    sim.run();

    assert_eq!(sim.dropped(drops::CLIENT_LATE_CATCHUP), 1);
    let world = sim.world();
    assert_eq!(world.counter("mover-fetch-superseded"), 1);
    let [done] = &world.convergence[..] else {
        panic!("one fetch completes: {:?}", world.convergence);
    };
    assert_eq!((done.leaf_cds, done.bytes), (1, 4), "only its own 4-byte meta");
    let audit = world.catchup_ledger.audit();
    assert!(audit.clean(), "{audit:?}");
    assert_eq!((audit.delivered, audit.written_off), (1, 1));
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
    let extra_rps = snapcast_rps(&serving, attach_at);
    let extra_hosts =
        SnapshotBroker::hosts(serving, attach_at, false, &params, &w.objects, &w.trace);

    let cfg = GcopssConfig {
        params,
        rp_count: 3,
        extra_rps,
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    // Player 5 is offline for the first ~1.5 s of the trace, then joins.
    let joiner = PlayerId(5);
    let online_at = SimTime::ZERO + warmup + SimDuration::from_millis(1_500);
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .delivery_log()
        .extra_hosts(extra_hosts)
        .offline_until(joiner, online_at)
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
