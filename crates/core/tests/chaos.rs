//! Chaos soak: random core-link flaps plus the crash (and restart) of an
//! RP-hosting router on a Rocketfuel-like backbone must heal — an RP
//! failover hands the dead RP's prefixes to a survivor, routers repair
//! soft state from fault notices, and every publication sent after the
//! last repair (plus a settle margin) reaches its full AoI fan-out. The
//! whole chaotic run must also be same-seed reproducible.
//!
//! The run doubles as the delivery-audit gate: the lineage tracer rides
//! along and the auditor must account for 100 % of the owed
//! `(publication, subscriber)` pairs with zero duplicates and zero
//! unexplained losses, with byte-identical span/audit/time-series exports
//! across same-seed runs.

use std::collections::BTreeMap;

use gcopss_core::experiments::audit::{damage_window, register_expectations};
use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::{drops, RecoveryConfig};
use gcopss_game::PlayerId;
use gcopss_names::Name;
use gcopss_sim::generators::BackboneParams;
use gcopss_sim::{
    AdmissionPolicy, FaultPlan, LineageConfig, OverloadConfig, SimDuration, SimTime,
    TelemetryConfig, TimeSeriesConfig,
};

fn small_backbone() -> NetworkSpec {
    NetworkSpec::Backbone {
        seed: 5,
        params: BackboneParams {
            core_routers: 12,
            ..BackboneParams::default()
        },
    }
}

struct SoakOutcome {
    fingerprint: u64,
    prof_counts_json: String,
    prof_count_fingerprint: u64,
    last_repair: SimTime,
    rp_failovers: u64,
    /// Packets lost to fault injection (`link-lost` + `node-lost`).
    lost: u64,
    post_expected: u64,
    post_delivered: u64,
    audit: gcopss_sim::AuditReport,
    audit_json: String,
    spans_fingerprint: u64,
    timeseries_json: String,
    overload_active: bool,
    /// Packets shed by overload control, all three reasons.
    shed: u64,
}

fn run_soak(seed: u64, overload: OverloadConfig) -> SoakOutcome {
    // The self-profiler rides along: phase *counts* are part of the
    // determinism contract (wall times are not, and are excluded from the
    // fingerprint and the counts export).
    gcopss_sim::prof::reset();
    gcopss_sim::prof::enable();
    let w = Workload::counter_strike(&WorkloadParams {
        seed,
        players: 48,
        updates: 4_000,
        ..WorkloadParams::default()
    });
    let net = small_backbone();
    let links = net.core_links_preview();
    let cfg = GcopssConfig {
        rp_count: 2,
        recovery: Some(RecoveryConfig::default()),
        ..GcopssConfig::default()
    };
    let warmup = cfg.warmup;
    let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .delivery_log()
        .overload(overload)
        .build()
        .into_gcopss();

    // Crash the router hosting the highest RP; flap links around it.
    let crash = *built
        .rp_nodes
        .values()
        .next_back()
        .expect("two RPs were placed");
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
    let first_fault = plan
        .schedule()
        .iter()
        .map(|&(t, _)| t)
        .min()
        .expect("plan has events");
    built.sim.enable_telemetry(TelemetryConfig::default());
    built.sim.enable_timeseries(TimeSeriesConfig {
        tick: SimDuration::from_millis(500),
        per_node: vec!["rp-served"],
        ..TimeSeriesConfig::default()
    });
    built.sim.enable_lineage(LineageConfig::default());
    register_expectations(&mut built.sim, &w, warmup);
    built.sim.install_faults(plan);
    let horizon = SimTime::ZERO + warmup + span + SimDuration::from_secs(10);
    built.sim.run_until(horizon);

    let fingerprint = built.sim.telemetry_report("soak", 0).fingerprint;
    let prof = gcopss_sim::prof::take_report();
    gcopss_sim::prof::disable();
    let prof_counts_json = prof.counts_json().to_string();
    let prof_count_fingerprint = prof.count_fingerprint();
    assert!(
        prof.coverage() >= 0.9,
        "phase self-times cover only {:.1}% of the measured wall",
        prof.coverage() * 100.0
    );
    assert!(prof.counter("engine/events") > 0, "no events counted");
    let last_repair = built
        .sim
        .last_repair_time()
        .expect("repairs were scheduled");
    let settle = SimDuration::from_secs(2);
    let audit = built.sim.lineage().audit(
        horizon,
        damage_window(Some(first_fault), Some(last_repair), settle),
    );
    let audit_json = audit.to_json().to_string();
    let spans_fingerprint = built.sim.lineage().fingerprint();
    let timeseries_json = built
        .sim
        .timeseries_json()
        .expect("sampler was armed")
        .to_string();
    let dropped = |reasons: &[&str]| reasons.iter().map(|why| built.sim.dropped(why)).sum();
    let lost = dropped(&[drops::LINK_LOST, drops::NODE_LOST]);
    let shed = dropped(&[drops::QUEUE_FULL, drops::AQM_SHED, drops::STALE_SUPERSEDED]);
    let overload_active = built.sim.overload_active();
    let world = built.sim.into_world();

    // Expected fan-out per leaf CD under the AoI model.
    let mut viewers: BTreeMap<&Name, u64> = BTreeMap::new();
    for cd in w.map.leaf_cds() {
        let area = w.map.area_of_leaf_cd(cd).expect("leaf CD");
        let count = w
            .population
            .players()
            .filter(|p| w.map.can_see(w.population.area_of(*p), area))
            .count() as u64;
        viewers.insert(cd, count);
    }
    let log = world.delivery_log.as_ref().expect("delivery log enabled");
    let mut per_id = vec![0u64; w.trace.len()];
    for &(id, receiver) in log {
        if world.metrics.publisher_of(id) == Some(PlayerId(receiver)) {
            continue;
        }
        per_id[id as usize] += 1;
    }
    let (mut post_expected, mut post_delivered) = (0u64, 0u64);
    for (i, e) in w.trace.iter().enumerate() {
        let sent = SimTime::ZERO + warmup + SimDuration::from_nanos(e.time_ns);
        if sent <= last_repair + settle {
            continue;
        }
        let want = viewers.get(&e.cd).copied().unwrap_or(0).saturating_sub(1);
        post_expected += want;
        post_delivered += per_id[i].min(want);
    }
    SoakOutcome {
        fingerprint,
        prof_counts_json,
        prof_count_fingerprint,
        last_repair,
        rp_failovers: world.counters.get("rp-failovers").copied().unwrap_or(0),
        lost,
        post_expected,
        post_delivered,
        audit,
        audit_json,
        spans_fingerprint,
        timeseries_json,
        overload_active,
        shed,
    }
}

#[test]
fn soak_recovers_fully_and_is_reproducible() {
    let a = run_soak(33, OverloadConfig::default());
    assert!(a.lost > 0, "chaos never dropped a packet");
    assert!(a.rp_failovers >= 1, "RP crash did not trigger failover");
    assert!(a.post_expected > 0, "post-repair window is vacuous");
    assert_eq!(
        a.post_delivered, a.post_expected,
        "under-delivery after the last repair ({} of {})",
        a.post_delivered, a.post_expected
    );

    // The auditor must close the books on the same run: 100 % of owed
    // pairs accounted for, zero duplicates, zero unexplained losses.
    assert!(
        a.audit.is_clean(),
        "audit not clean:\n{}\nerrors: {:?}",
        a.audit.table(),
        a.audit.errors
    );
    assert!(a.audit.total_pairs > 0, "no pairs registered");
    assert_eq!(a.audit.duplicates, 0);
    assert_eq!(a.audit.unexplained, 0);
    assert_eq!(
        a.audit.delivered
            + a.audit.duplicates
            + a.audit.in_flight
            + a.audit.unpublished
            + a.audit.dropped_total()
            + a.audit.unexplained,
        a.audit.total_pairs,
        "audit classes do not sum to the owed pairs"
    );

    let b = run_soak(33, OverloadConfig::default());
    assert_eq!(a.fingerprint, b.fingerprint, "chaos is not reproducible");
    assert_eq!(a.last_repair, b.last_repair);
    assert_eq!(a.post_delivered, b.post_delivered);
    // Observability exports are part of the determinism contract:
    // same-seed runs must produce byte-identical documents.
    assert_eq!(a.spans_fingerprint, b.spans_fingerprint, "span logs differ");
    assert_eq!(a.audit_json, b.audit_json, "audit exports differ");
    assert_eq!(a.timeseries_json, b.timeseries_json, "time series differ");
    // Self-profile phase counts are deterministic too — byte-identical
    // counts sections and equal counts-only fingerprints, chaos included.
    assert_eq!(
        a.prof_count_fingerprint, b.prof_count_fingerprint,
        "prof count fingerprints differ"
    );
    assert_eq!(a.prof_counts_json, b.prof_counts_json, "prof counts differ");
}

/// The same chaos soak with overload management installed: a generous
/// bounded drop-tail queue with priorities and congestion marking must
/// not change the healing story. The RP crash leaves the survivor above
/// capacity, so the backlog it builds (a few hundred packets) stays far
/// under the bound — nothing is shed, the priority lattice merely
/// reorders, and the run must still deliver fully after the last repair
/// with a clean audit. (An *AQM* policy would rightly shed that standing
/// backlog instead of draining it in the tail; that trade-off is the
/// overload sweep's subject, not this soak's.)
#[test]
fn soak_with_overload_management_still_heals() {
    let overload = OverloadConfig {
        queue_capacity: Some(4_096),
        policy: AdmissionPolicy::DropTail,
        priority: true,
        mark_sojourn: Some(SimDuration::from_millis(50)),
    };
    assert!(!overload.is_vacuous());
    let a = run_soak(33, overload);
    assert!(a.overload_active, "overload layer was not installed");
    assert_eq!(a.shed, 0, "a generous queue must not shed at soak load");
    assert!(a.lost > 0, "chaos never dropped a packet");
    assert!(a.rp_failovers >= 1, "RP crash did not trigger failover");
    assert!(a.post_expected > 0, "post-repair window is vacuous");
    assert_eq!(
        a.post_delivered, a.post_expected,
        "under-delivery after the last repair ({} of {})",
        a.post_delivered, a.post_expected
    );
    assert!(
        a.audit.is_clean(),
        "audit not clean:\n{}\nerrors: {:?}",
        a.audit.table(),
        a.audit.errors
    );
}
