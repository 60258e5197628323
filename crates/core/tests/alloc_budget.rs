//! Allocation regression at the scenario layer: a small Counter-Strike
//! G-COPSS run — publish, encapsulate to the RP, multicast down the trees,
//! deliver — stays within a heap-call budget per delivered update
//! (DESIGN.md, "Allocation discipline"). What remains is what may allocate:
//! creating publications, subscription set-up, table and queue growth.
//! The engine's per-packet classifiers (`PacketMeta`) may not allocate at
//! all.

use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::{payload_of, GPacket, IpPacket, IpUpdate, MetricsMode};
use gcopss_names::Name;
use gcopss_ndn::{Data, Interest};
use gcopss_sim::{NodeId, SimDuration};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Heap calls allowed per 100 deliveries: twice the 19 measured (9 053
/// calls for 47 774 deliveries) with a shared `Name`. It was 55 while a
/// name clone copied every component, and 1 352 before the forwarding hop
/// stopped allocating.
const BUDGET_PER_100_DELIVERIES: u64 = 38;

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

/// The classifiers the engine calls on every arriving packet — and, under
/// overload control, on every queued packet a supersede scan visits — make
/// no heap call for the packets that carry a bare `Name` (NDN and IP
/// baselines; COPSS packets carry their hash chain precomputed).
#[test]
fn packet_classifiers_make_no_heap_call() {
    let name = Name::parse_lit("/3/2");
    let update = IpUpdate {
        id: 7,
        cd: name.clone(),
        size: 100,
    };
    let packets = [
        GPacket::Interest(Interest::new(name.clone(), 42)),
        GPacket::Data(Data::new(name, payload_of(100))),
        GPacket::Ip(IpPacket::ToServer {
            server: NodeId(1),
            update: update.clone(),
        }),
        GPacket::Ip(IpPacket::ToClient {
            client: NodeId(2),
            update,
        }),
    ];
    let calls: Vec<u64> = packets
        .iter()
        .map(|p| {
            let before = counting_alloc::heap_calls();
            let seen = (p.kind(), p.priority(), p.lineage_id(), p.supersede_key());
            let calls = counting_alloc::heap_calls() - before;
            assert!(seen.2.is_some(), "{}: every one of these is traced", seen.0);
            calls
        })
        .collect();
    assert_eq!(
        calls,
        [0, 0, 0, 0],
        "heap calls classifying an Interest, a Data, an Ip(ToServer), an Ip(ToClient)"
    );
}
