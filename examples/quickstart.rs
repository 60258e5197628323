//! Quickstart: a tiny G-COPSS game session, end to end.
//!
//! Builds the paper's 5×5 hierarchical map, puts 62 players on the
//! 6-router testbed (2 per area), lets them publish a few seconds of
//! updates through a single Rendezvous Point, and prints what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gcopss::core::experiments::Workload;
use gcopss::core::scenario::{expected_deliveries, GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss::core::{MetricsMode, SimParams};
use gcopss::names::Name;
use gcopss::sim::SimDuration;

fn main() {
    // 1. The game world: the paper's map — 5 regions x 5 zones, so 31 leaf
    //    Content Descriptors (25 zones + 5 region airspaces + the
    //    satellite layer /0).
    let w = Workload::microbenchmark(7, SimDuration::from_secs(5));
    println!("map: {} areas, {} leaf CDs", w.map.area_count(), w.map.leaf_cds().len());

    // A soldier in zone /1/2 sees the satellite layer, the planes over
    // region 1, and its own zone:
    let zone = w.map.area_by_name(&Name::parse_lit("/1/2")).unwrap();
    let subs: Vec<String> = w
        .map
        .subscription_cds(zone)
        .iter()
        .map(ToString::to_string)
        .collect();
    println!("a soldier in /1/2 subscribes to: {subs:?}");

    // 2. Assemble the network: 6 testbed routers (Fig. 3b), every player a
    //    host, RP at R1, and run the trace through it. The protocol config
    //    says what G-COPSS's routers and clients read; the spec itself what
    //    the world and the engine read (every latency sample, and an exact
    //    delivery log to check against), the same for every protocol.
    let cfg = GcopssConfig {
        params: SimParams::microbenchmark(),
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let mut built = ScenarioSpec::new(&NetworkSpec::Testbed, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .metrics_mode(MetricsMode::Full)
        .delivery_log()
        .build()
        .into_gcopss();
    built.sim.run();

    // 3. Inspect the outcome.
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let world = built.sim.world();
    println!("\npublished updates : {}", world.metrics.published());
    println!("deliveries        : {} (expected {expected})", world.metrics.delivered());
    println!("duplicates        : {}", world.duplicate_deliveries);
    println!(
        "mean update latency: {:.2} ms",
        world.metrics.stats().mean().as_millis_f64()
    );
    println!(
        "aggregate network load: {:.3} MB",
        built.sim.total_link_bytes() as f64 / 1e6
    );
    assert_eq!(world.metrics.delivered(), expected, "exact AoI delivery");
    println!("\nevery player saw exactly its area of interest — no loss, no spurious deliveries");
}
