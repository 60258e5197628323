//! Cross-crate integration tests: miniature versions of the paper's
//! experiments asserting the qualitative results hold end to end.
//!
//! These run the real systems (routers, engines, clients) over the real
//! simulator — small enough for CI, large enough to exercise every layer.

use std::sync::Arc;

use gcopss::core::experiments::{RunSummary, TelemetryCapture, Workload, WorkloadParams};
use gcopss::core::scenario::{
    expected_deliveries, GcopssConfig, HybridConfig, IpConfig, NetworkSpec, Protocol, ScenarioSpec,
};
use gcopss::core::SimParams;
use gcopss::sim::{SimDuration, Simulator};

fn small_cs_workload(updates: usize, players: usize, seed: u64) -> Workload {
    Workload::counter_strike(&WorkloadParams {
        seed,
        updates,
        players,
        ..WorkloadParams::default()
    })
}

/// Runs `protocol` over `w` to quiescence, uninstrumented.
fn run_to_quiescence(w: &Workload, net: &NetworkSpec, protocol: Protocol) -> RunSummary {
    let spec = w.spec(net).protocol(protocol);
    let sim = TelemetryCapture::off().run("", spec, Simulator::run);
    RunSummary::of(String::new(), &sim, w)
}

/// The headline claim: on the same trace and topology, G-COPSS beats the
/// IP server on both update latency and aggregate network load.
#[test]
fn gcopss_beats_ip_server_on_latency_and_load() {
    let w = small_cs_workload(2_500, 100, 11);
    let net = NetworkSpec::default_backbone(5);
    // Both defaults: 3 RPs, 3 servers.
    let g = run_to_quiescence(&w, &net, Protocol::Gcopss(GcopssConfig::default()));
    let i = run_to_quiescence(&w, &net, Protocol::IpServer(IpConfig::default()));
    assert!(
        g.mean_latency < i.mean_latency,
        "latency: gcopss {} vs ip {}",
        g.mean_latency,
        i.mean_latency
    );
    assert!(
        g.network_bytes < i.network_bytes,
        "load: gcopss {} vs ip {}",
        g.network_bytes,
        i.network_bytes
    );
    // Both systems deliver the same (complete) set of updates.
    assert_eq!(g.delivered, i.delivered);
}

/// Dissemination is exact across all three architectures.
#[test]
fn all_systems_deliver_exactly_the_aoi() {
    let w = small_cs_workload(1_200, 80, 13);
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let net = NetworkSpec::default_backbone(9);

    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(GcopssConfig::default())
        .delivery_log()
        .build()
        .into_gcopss();
    b.sim.run();
    assert_eq!(b.sim.world().metrics.delivered(), expected, "gcopss");
    assert_eq!(b.sim.world().duplicate_deliveries, 0);

    let mut sim = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .hybrid(HybridConfig::default())
        .delivery_log()
        .build()
        .sim;
    sim.run();
    assert_eq!(sim.world().metrics.delivered(), expected, "hybrid");
}

/// Automatic RP balancing (§IV-B): with one overloaded RP and balancing
/// enabled, splits occur, no update is lost, and latency improves
/// dramatically over the unbalanced single RP.
#[test]
fn auto_balancing_splits_without_loss() {
    let w = small_cs_workload(3_000, 100, 17);
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let net = NetworkSpec::default_backbone(3);

    // Unbalanced single RP: congested.
    let single_rp = Protocol::Gcopss(GcopssConfig {
        rp_count: 1,
        ..GcopssConfig::default()
    });
    let unbalanced = run_to_quiescence(&w, &net, single_rp);

    // Balanced: splits must fire and help.
    let cfg = GcopssConfig {
        params: SimParams::default().with_auto_balancing(40),
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .delivery_log()
        .build()
        .into_gcopss();
    b.sim.run();
    let world = b.sim.world();
    assert!(!world.splits.is_empty(), "no split fired");
    assert_eq!(
        world.metrics.delivered(),
        expected,
        "the split protocol must not lose updates"
    );
    assert!(
        world.metrics.stats().mean() * 2 < unbalanced.mean_latency,
        "balanced {} should clearly beat unbalanced {}",
        world.metrics.stats().mean(),
        unbalanced.mean_latency
    );
}

/// Cross-crate determinism regression: the whole workload pipeline (map,
/// object model, population, trace generation) is a pure function of the
/// seed. Two same-seed runs must produce identical event streams — this is
/// what makes every experiment in the repo reproducible, and it exercises
/// the in-tree PRNG end to end (see `gcopss-compat`'s golden tests for the
/// raw streams).
#[test]
fn same_seed_workloads_are_identical() {
    let a = small_cs_workload(1_000, 60, 23);
    let b = small_cs_workload(1_000, 60, 23);
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(*a.trace, *b.trace, "same-seed traces diverged");
    assert_eq!(a.population.len(), b.population.len());
    // And a different seed actually changes the stream (guards against the
    // generator silently ignoring its seed).
    let c = small_cs_workload(1_000, 60, 24);
    assert_ne!(*a.trace, *c.trace, "seed is being ignored");
}

/// The microbenchmark trace reproduces the paper's event volume: ≈12,440
/// publish events in one minute from 62 players.
#[test]
fn microbenchmark_workload_shape() {
    let w = Workload::microbenchmark(1, SimDuration::from_secs(60));
    assert_eq!(w.population.len(), 62);
    assert!(
        (11_500..=13_500).contains(&w.trace.len()),
        "got {} events (paper: 12,440)",
        w.trace.len()
    );
}

/// Bigger maps work too: a 3-level hierarchy (Fig. 1-style arbitrary
/// layering) disseminates exactly.
#[test]
fn deep_hierarchy_dissemination() {
    use gcopss::game::trace::microbenchmark_trace;
    use gcopss::game::{GameMap, ObjectModel, ObjectModelParams, PlayerPopulation};

    let map = Arc::new(GameMap::uniform(&[2, 2, 2]));
    let objects = ObjectModel::generate(
        3,
        &map,
        &ObjectModelParams {
            objects_per_area: (5, 10),
            ..ObjectModelParams::default()
        },
    );
    let pop = PlayerPopulation::uniform_per_area(&map, 1);
    let trace = Arc::new(microbenchmark_trace(4, &map, &objects, &pop, 2_000_000_000));
    let expected = expected_deliveries(&map, &pop, &trace);
    let cfg = GcopssConfig {
        rp_count: 2,
        ..GcopssConfig::default()
    };
    let mut b = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
        .gcopss(cfg)
        .delivery_log()
        .build()
        .into_gcopss();
    b.sim.run();
    assert_eq!(b.sim.world().metrics.delivered(), expected);
    assert_eq!(b.sim.world().duplicate_deliveries, 0);
}
