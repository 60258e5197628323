//! End-to-end streaming-metrics properties at the scenario layer: the
//! vacuous default [`StreamConfig`] installs nothing (mirroring the vacuous
//! `FaultPlan`/`OverloadConfig` rule), a non-vacuous hub with no adaptive
//! consumer must *observe only* — the packet schedule stays byte-identical
//! to a streams-off run — and equal seeds must give equal runs with the hub
//! rolling.

use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::MetricsMode;
use gcopss_sim::{SimDuration, SimTime, StreamConfig, TelemetryConfig, TelemetryReport};

/// Serializes a report the way the experiment binaries do, so equality
/// here means the emitted file would be byte-identical.
fn render(r: &TelemetryReport) -> String {
    let events: Vec<String> = r.trace_events.iter().map(ToString::to_string).collect();
    format!("{}|{}|{:016x}|{}", r.label, r.summary, r.fingerprint, events.join(","))
}

/// One instrumented G-COPSS run with the given stream wiring; returns the
/// report plus the hub's roll count (0 when the hub never enabled).
fn stream_report(stream: StreamConfig) -> (TelemetryReport, u64) {
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 23,
        players: 24,
        updates: 1_500,
        mean_interarrival: SimDuration::from_micros(800),
    });
    let cfg = GcopssConfig {
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: 2,
        stream,
        ..GcopssConfig::default()
    };
    let mut built =
        ScenarioSpec::new(&NetworkSpec::default_backbone(3), &w.map, &w.population, &w.trace)
            .gcopss(cfg)
            .build()
            .into_gcopss();
    built.sim.enable_telemetry(TelemetryConfig::default());
    built.sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let rolls = built.sim.streams().rolls();
    (built.sim.telemetry_report("streams", 0), rolls)
}

#[test]
fn observer_only_streams_leave_packet_schedule_byte_identical() {
    // The default config is vacuous: nothing installs, nothing ever rolls.
    let (off, never) = stream_report(StreamConfig::default());
    assert!(!off.trace_events.is_empty());
    assert_eq!(never, 0, "vacuous config must never roll");
    // A live hub rolling every 50 ms, but no adaptive consumer configured
    // (default `SimParams`): it may only observe.
    let (on, rolls) = stream_report(StreamConfig::every(SimDuration::from_millis(50)));
    assert!(rolls > 0, "hub never rolled");
    assert_eq!(off.fingerprint, on.fingerprint);
    assert_eq!(render(&off), render(&on));
}

#[test]
fn same_seed_stream_runs_are_byte_identical() {
    let (a, ra) = stream_report(StreamConfig::every(SimDuration::from_millis(25)));
    let (b, rb) = stream_report(StreamConfig::every(SimDuration::from_millis(25)));
    assert!(ra > 0 && ra == rb);
    assert!(!a.trace_events.is_empty());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(render(&a), render(&b));
}
