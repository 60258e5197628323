//! Tests for the RP placement strategies (the paper's "improving RP
//! selection" future work implemented as `RpSelection`).

use gcopss_core::scenario::{expected_deliveries, GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::{RpSelection, SimParams};
use gcopss_core::experiments::{Workload, WorkloadParams};

fn congested_workload(seed: u64) -> Workload {
    Workload::counter_strike(&WorkloadParams {
        seed,
        updates: 2_500,
        players: 100,
        ..WorkloadParams::default()
    })
}

fn run_with_strategy(strategy: RpSelection, seed: u64) -> (Vec<u32>, u64, u64) {
    let w = congested_workload(seed);
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let mut params = SimParams::default().with_auto_balancing(35);
    params.rp_split_cooldown_packets = 1_000;
    let cfg = GcopssConfig {
        params,
        rp_count: 1,
        rp_selection: strategy,
        ..GcopssConfig::default()
    };
    let net = NetworkSpec::default_backbone(19);
    let mut b = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .delivery_log()
        .build()
        .into_gcopss();
    b.sim.run();
    let world = b.sim.world();
    assert_eq!(world.metrics.delivered(), expected, "{strategy:?} lost updates");
    let nodes: Vec<u32> = world.rp_locations.values().copied().collect();
    (
        nodes,
        world.splits.len() as u64,
        world.metrics.stats().mean().as_nanos(),
    )
}

#[test]
fn every_strategy_splits_without_loss() {
    for strategy in [
        RpSelection::Rotation,
        RpSelection::ClosestToSelf,
        RpSelection::Spread,
    ] {
        let (nodes, splits, mean) = run_with_strategy(strategy, 47);
        assert!(splits >= 1, "{strategy:?}: no split fired");
        assert!(mean > 0, "{strategy:?}: no latency recorded");
        // Every RP lives on a distinct node (strategies skip taken nodes).
        let mut dedup = nodes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), nodes.len(), "{strategy:?}: co-located RPs");
    }
}

#[test]
fn strategies_pick_different_placements() {
    let (rot, _, _) = run_with_strategy(RpSelection::Rotation, 47);
    let (close, _, _) = run_with_strategy(RpSelection::ClosestToSelf, 47);
    let (spread, _, _) = run_with_strategy(RpSelection::Spread, 47);
    // At least one strategy must place its new RP(s) differently from the
    // others (they optimize different objectives over 79 candidates).
    assert!(
        rot != close || rot != spread,
        "all strategies placed identically: {rot:?}"
    );
}

#[test]
fn rp_pool_preview_is_deterministic_and_matches_build() {
    let net = NetworkSpec::default_backbone(19);
    let a = net.rp_pool_preview();
    let b = net.rp_pool_preview();
    assert_eq!(a, b);
    assert!(!a.is_empty());
    // The preview spreads placements: the first few picks are distinct.
    let head: std::collections::BTreeSet<_> = a.iter().take(6).collect();
    assert_eq!(head.len(), 6);
}
