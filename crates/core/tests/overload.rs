//! End-to-end overload-control properties at the scenario layer: a vacuous
//! [`OverloadConfig`] must leave runs byte-identical to no config at all
//! (mirroring the vacuous `FaultPlan` rule), equal seeds must give equal
//! runs even under shed-heavy policies, and a shedding config must actually
//! perturb the run it claims to manage.

use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::RecoveryConfig;
use gcopss_sim::{
    AdmissionPolicy, OverloadConfig, SimDuration, SimTime, TelemetryConfig, TelemetryReport,
};

/// Serializes a report the way the experiment binaries do, so equality
/// here means the emitted file would be byte-identical.
fn render(r: &TelemetryReport) -> String {
    let events: Vec<String> = r.trace_events.iter().map(ToString::to_string).collect();
    format!("{}|{}|{:016x}|{}", r.label, r.summary, r.fingerprint, events.join(","))
}

/// One instrumented over-capacity G-COPSS run with the given overload
/// wiring. The workload offers ≈2× the 2-RP service rate so a non-vacuous
/// config has something to shed; a fixed horizon keeps the run method
/// identical across modes.
fn overload_report(overload: Option<OverloadConfig>, rate_adapt: bool) -> TelemetryReport {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 23,
        players: 24,
        updates: 1_500,
        mean_interarrival: SimDuration::from_micros(800),
    });
    let cfg = GcopssConfig {
        rp_count: 2,
        recovery: Some(RecoveryConfig::default()),
        rate_adapt,
        ..GcopssConfig::default()
    };
    let mut spec =
        ScenarioSpec::new(&NetworkSpec::default_backbone(3), &w.map, &w.population, &w.trace)
            .gcopss(cfg);
    if let Some(ov) = overload {
        spec = spec.overload(ov);
    }
    let mut built = spec.build().into_gcopss();
    built.sim.enable_telemetry(TelemetryConfig::default());
    built
        .sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(30));
    built.sim.telemetry_report("overload", 0)
}

/// A bounded AQM config aggressive enough to shed at 2× load.
fn shedding_config() -> OverloadConfig {
    OverloadConfig {
        queue_capacity: Some(8),
        policy: AdmissionPolicy::CoDel {
            target: SimDuration::from_millis(2),
            interval: SimDuration::from_millis(20),
        },
        priority: true,
        mark_sojourn: Some(SimDuration::from_millis(4)),
    }
}

#[test]
fn vacuous_overload_config_is_byte_identical_to_none() {
    let off = overload_report(None, false);
    let vacuous = overload_report(Some(OverloadConfig::default()), false);
    assert!(OverloadConfig::default().is_vacuous());
    assert!(!off.trace_events.is_empty());
    assert_eq!(off.fingerprint, vacuous.fingerprint);
    assert_eq!(render(&off), render(&vacuous));
}

#[test]
fn same_seed_overload_runs_are_byte_identical() {
    let a = overload_report(Some(shedding_config()), true);
    let b = overload_report(Some(shedding_config()), true);
    assert!(!a.trace_events.is_empty());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(render(&a), render(&b));
    // The policy must actually bite at this load.
    let calm = overload_report(None, false);
    assert_ne!(a.fingerprint, calm.fingerprint);
}
