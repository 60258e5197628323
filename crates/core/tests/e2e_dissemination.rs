//! End-to-end dissemination correctness: every system (G-COPSS, IP server,
//! hybrid) must deliver every update to exactly the players whose AoI
//! covers it — no loss, no duplicates, no spurious deliveries.

use std::sync::Arc;

use gcopss_core::scenario::{
    expected_deliveries, GcopssConfig, HybridConfig, IpConfig, NetworkSpec, ScenarioSpec,
};
use gcopss_core::{MetricsMode, SimParams};
use gcopss_game::trace::microbenchmark_trace;
use gcopss_game::{GameMap, ObjectModel, ObjectModelParams, PlayerPopulation};
use gcopss_sim::SimDuration;

struct Setup {
    map: Arc<GameMap>,
    pop: PlayerPopulation,
    trace: Arc<Vec<gcopss_game::trace::TraceEvent>>,
    expected: u64,
}

fn small_setup(seed: u64, duration_ms: u64) -> Setup {
    let map = Arc::new(GameMap::paper_map());
    let objects = ObjectModel::generate(seed, &map, &ObjectModelParams::default());
    let pop = PlayerPopulation::uniform_per_area(&map, 2);
    let duration_ns = duration_ms * 1_000_000;
    let trace = Arc::new(microbenchmark_trace(
        seed,
        &map,
        &objects,
        &pop,
        duration_ns,
    ));
    let expected = expected_deliveries(&map, &pop, &trace);
    Setup {
        map,
        pop,
        trace,
        expected,
    }
}

#[test]
fn gcopss_delivers_exactly_the_aoi_testbed_one_rp() {
    let s = small_setup(1, 2_000);
    assert!(s.trace.len() > 100, "trace has {} events", s.trace.len());
    let cfg = GcopssConfig {
        params: SimParams::microbenchmark(),
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let mut built = ScenarioSpec::new(&NetworkSpec::Testbed, &s.map, &s.pop, &s.trace)
        .gcopss(cfg)
        .metrics_mode(MetricsMode::Full)
        .delivery_log()
        .build()
        .into_gcopss();
    built.sim.run();
    let w = built.sim.world();
    assert_eq!(w.metrics.published(), s.trace.len() as u64);
    assert_eq!(
        w.metrics.delivered(),
        s.expected,
        "G-COPSS lost or fabricated deliveries (dups: {})",
        w.duplicate_deliveries
    );
    assert_eq!(w.duplicate_deliveries, 0, "steady state must be a tree");
    assert!(w.metrics.stats().mean() > SimDuration::ZERO);
    assert_eq!(built.sim.dropped("torp-no-route"), 0);
    assert_eq!(built.sim.dropped("publication-unserved-cd"), 0);
}

#[test]
fn gcopss_delivers_on_backbone_with_three_rps() {
    let s = small_setup(2, 1_000);
    let net = NetworkSpec::default_backbone(7);
    let mut built = ScenarioSpec::new(&net, &s.map, &s.pop, &s.trace)
        .gcopss(GcopssConfig::default())
        .metrics_mode(MetricsMode::Full)
        .delivery_log()
        .build()
        .into_gcopss();
    built.sim.run();
    let w = built.sim.world();
    assert_eq!(w.metrics.delivered(), s.expected);
    assert_eq!(w.duplicate_deliveries, 0);
    // Network load was accounted.
    assert!(built.sim.total_link_bytes() > 0);
}

#[test]
fn gcopss_six_rps_also_exact() {
    let s = small_setup(3, 1_000);
    let cfg = GcopssConfig {
        rp_count: 6,
        ..GcopssConfig::default()
    };
    let net = NetworkSpec::default_backbone(3);
    let mut built = ScenarioSpec::new(&net, &s.map, &s.pop, &s.trace)
        .gcopss(cfg)
        .delivery_log()
        .build()
        .into_gcopss();
    built.sim.run();
    assert_eq!(built.sim.world().metrics.delivered(), s.expected);
}

#[test]
fn ip_server_delivers_exactly_the_aoi() {
    let s = small_setup(4, 1_000);
    let cfg = IpConfig {
        params: SimParams::microbenchmark(),
        server_count: 1,
        ..IpConfig::default()
    };
    let mut built = ScenarioSpec::new(&NetworkSpec::Testbed, &s.map, &s.pop, &s.trace)
        .ip_server(cfg)
        .metrics_mode(MetricsMode::Full)
        .delivery_log()
        .build()
        .into_ip_server();
    built.sim.run();
    let w = built.sim.world();
    assert_eq!(w.metrics.published(), s.trace.len() as u64);
    assert_eq!(w.metrics.delivered(), s.expected);
    assert_eq!(w.duplicate_deliveries, 0);
    assert_eq!(built.sim.dropped("ip-no-route"), 0);
}

#[test]
fn ip_server_multiple_servers_partition_correctly() {
    let s = small_setup(5, 1_000);
    let net = NetworkSpec::default_backbone(11);
    let mut built = ScenarioSpec::new(&net, &s.map, &s.pop, &s.trace)
        .ip_server(IpConfig::default())
        .delivery_log()
        .build()
        .into_ip_server();
    assert_eq!(built.hosts.len(), 3);
    built.sim.run();
    assert_eq!(built.sim.world().metrics.delivered(), s.expected);
}

#[test]
fn hybrid_delivers_exactly_the_aoi() {
    let s = small_setup(6, 1_000);
    let net = NetworkSpec::default_backbone(13);
    let mut sim = ScenarioSpec::new(&net, &s.map, &s.pop, &s.trace)
        .hybrid(HybridConfig { group_count: 6 })
        .metrics_mode(MetricsMode::Full)
        .delivery_log()
        .build()
        .sim;
    sim.run();
    let w = sim.world();
    assert_eq!(
        w.metrics.delivered(),
        s.expected,
        "hybrid edge filtering must deliver exactly the AoI"
    );
    assert_eq!(w.duplicate_deliveries, 0);
}

#[test]
fn hybrid_filtering_discards_unwanted_group_traffic() {
    // With only 2 groups, group sharing is heavy: edges must receive (and
    // filter) unwanted messages.
    let s = small_setup(7, 500);
    let net = NetworkSpec::default_backbone(17);
    let mut sim = ScenarioSpec::new(&net, &s.map, &s.pop, &s.trace)
        .hybrid(HybridConfig { group_count: 2 })
        .delivery_log()
        .build()
        .sim;
    sim.run();
    assert_eq!(sim.world().metrics.delivered(), s.expected);
    assert!(
        sim.dropped("hybrid-filtered-unwanted") > 0,
        "2 groups over 6 prefixes must cause filtered traffic"
    );
}

#[test]
fn fewer_groups_means_more_network_load() {
    // The hybrid trade-off (§III-D): mapping many CDs onto few IP groups
    // causes unwanted dissemination, i.e. more bytes on the wire.
    let s = small_setup(8, 500);
    let net = NetworkSpec::default_backbone(19);
    let run = |groups: u32| {
        let mut sim = ScenarioSpec::new(&net, &s.map, &s.pop, &s.trace)
            .hybrid(HybridConfig {
                group_count: groups,
            })
            .build()
            .sim;
        sim.run();
        sim.total_link_bytes()
    };
    let load_6 = run(6);
    let load_1 = run(1);
    assert!(
        load_1 > load_6,
        "1 group ({load_1} B) should carry more than 6 groups ({load_6} B)"
    );
}
