//! Allocation regression at the scenario layer: a small Counter-Strike
//! G-COPSS run — publish, encapsulate to the RP, multicast down the trees,
//! deliver — stays within a heap-call budget per delivered update
//! (DESIGN.md, "Allocation discipline"). What remains is what may allocate:
//! creating publications, subscription set-up, table and queue growth.
//! The engine's per-packet classifiers (`PacketMeta`) may not allocate at
//! all, and neither may reading a snapshot-plane name (`SnapName::parse`).
//! Registering a run's delivery expectations costs the same heap calls
//! however many publications it owes.

use std::sync::Arc;

use gcopss_core::experiments::audit::register_expectations;
use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::{payload_of, GPacket, IpPacket, IpUpdate, SnapName};
use gcopss_names::chunk::ChunkId;
use gcopss_names::Name;
use gcopss_ndn::{Data, Interest};
use gcopss_sim::{LineageConfig, NodeId, SimDuration};

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

/// `register_expectations` sizes the books exactly before it registers and
/// builds every owed list in one reused buffer, so the trace's length does
/// not show in its heap calls.
#[test]
fn registering_expectations_costs_the_same_for_any_trace_length() {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 23,
        players: 48,
        updates: 4_096,
        mean_interarrival: SimDuration::from_micros(2_400),
    });
    let net = NetworkSpec::default_backbone(7);
    let mut seen = Vec::new();
    for n in [16, 256, 4_096] {
        let prefix = Workload {
            map: Arc::clone(&w.map),
            objects: w.objects.clone(),
            population: w.population.clone(),
            trace: Arc::new(w.trace[..n].to_vec()),
        };
        let cfg = GcopssConfig::default();
        let warmup = cfg.warmup;
        let mut built = ScenarioSpec::new(&net, &prefix.map, &prefix.population, &prefix.trace)
            .gcopss(cfg)
            .build()
            .into_gcopss();
        built.sim.enable_lineage(LineageConfig::default());
        let before = counting_alloc::heap_calls();
        register_expectations(&mut built.sim, &prefix, warmup);
        seen.push(counting_alloc::heap_calls() - before);
    }
    assert!(seen.iter().all(|&c| c == seen[0]), "heap calls {seen:?}");
}

/// The classifiers the engine calls on every arriving packet — and, under
/// overload control, on every queued packet a supersede scan visits — make
/// no heap call for the packets that carry a bare `Name` (NDN and IP
/// baselines; COPSS packets carry their hash chain precomputed).
#[test]
fn packet_classifiers_make_no_heap_call() {
    let name = Name::parse_lit("/3/2");
    let manifest = SnapName::Manifest {
        cd: name.components(),
    }
    .name();
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
        GPacket::Interest(Interest::new(manifest.clone(), 43)),
        GPacket::Data(Data::new(manifest, payload_of(100))),
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
        [0, 0, 0, 0, 0, 0],
        "heap calls classifying an Interest, a Data, an Ip(ToServer), an Ip(ToClient), \
         a /snapmani Interest, a /snapmani Data"
    );
    // The manifest packets are the control class: the classifier read them.
    assert_eq!(packets[4].priority(), 0);
    assert_eq!(packets[5].priority(), 0);
}

/// Reading a snapshot-plane name borrows its CD: no heap call for any
/// variant. Building one of the four CD-scoped names is one heap call, the
/// name's component slice at its final size.
#[test]
fn snap_names_parse_without_and_build_with_one_heap_call() {
    let cd = Name::parse_lit("/3/2");
    let cd = cd.components();
    let scoped = [
        SnapName::Meta { cd },
        SnapName::Object { cd, k: 17 },
        SnapName::Manifest { cd },
        SnapName::Stream { cd },
    ];
    let others = [
        SnapName::Command {
            cd,
            join: true,
            nonce: (7 << 32) | 3,
        },
        SnapName::Chunk(ChunkId::of(b"a chunk")),
    ];
    let names: Vec<Name> = scoped.iter().chain(&others).map(SnapName::name).collect();
    for name in &names {
        let before = counting_alloc::heap_calls();
        let parsed = SnapName::parse(name);
        assert_eq!(counting_alloc::heap_calls() - before, 0, "parsing {name}");
        assert!(parsed.is_some(), "{name}");
    }
    for x in scoped {
        let before = counting_alloc::heap_calls();
        let name = x.name();
        assert_eq!(counting_alloc::heap_calls() - before, 1, "building {name}");
    }
}
