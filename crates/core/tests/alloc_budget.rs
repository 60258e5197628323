//! Allocation regression at the scenario layer: a small Counter-Strike
//! G-COPSS run — publish, encapsulate to the RP, multicast down the trees,
//! deliver — stays within a heap-call budget per delivered update
//! (DESIGN.md, "Allocation discipline"). What remains is what may allocate:
//! creating publications, subscription set-up, table and queue growth.

use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::MetricsMode;
use gcopss_sim::SimDuration;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Heap calls allowed per 100 deliveries: twice the 55 measured (26 403
/// calls for 47 774 deliveries) when the forwarding hop stopped allocating.
/// The code before that needed 1 352.
const BUDGET_PER_100_DELIVERIES: u64 = 110;

#[test]
fn mini_counter_strike_run_stays_within_heap_call_budget() {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 23,
        players: 48,
        updates: 2_000,
        mean_interarrival: SimDuration::from_micros(2_400),
    });
    let cfg = GcopssConfig {
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: 3,
        ..GcopssConfig::default()
    };
    let mut built = ScenarioSpec::new(
        &NetworkSpec::default_backbone(7),
        &w.map,
        &w.population,
        &w.trace,
    )
    .gcopss(cfg)
    .build()
    .into_gcopss();

    let before = counting_alloc::heap_calls();
    built.sim.run();
    let calls = counting_alloc::heap_calls() - before;

    let delivered = built.sim.world().metrics.delivered();
    assert!(delivered > 10_000, "only {delivered} deliveries");
    assert!(
        calls * 100 <= delivered * BUDGET_PER_100_DELIVERIES,
        "{calls} heap calls for {delivered} deliveries = {} per 100, budget {BUDGET_PER_100_DELIVERIES}",
        calls * 100 / delivered
    );
}
