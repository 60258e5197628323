//! End-to-end telemetry properties: same-seed determinism of the packet
//! journal, per-link byte reconciliation against the engine's aggregate
//! load, journal disabling, and determinism under fault injection (a
//! vacuous chaos plan is byte-identical to no plan at all; equal seeds
//! give equal chaos).

use gcopss_core::experiments::rp_sweep::{self, RpSweepConfig};
use gcopss_core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::{MetricsMode, RecoveryConfig, SimParams};
use gcopss_sim::json::Json;
use gcopss_sim::{
    FaultPlan, SimDuration, SimTime, TelemetryConfig, TelemetryReport, TimeSeriesConfig,
};

fn small_cfg(seed: u64) -> RpSweepConfig {
    RpSweepConfig {
        workload: WorkloadParams {
            seed,
            updates: 2_000,
            players: 80,
            ..WorkloadParams::default()
        },
        rp_counts: vec![3],
        include_auto: false,
        server_counts: vec![1],
        fig5_detail: false,
        ..RpSweepConfig::default()
    }
}

fn capture(seed: u64, tcfg: TelemetryConfig) -> (TelemetryCapture, Vec<u64>) {
    let mut cap = TelemetryCapture::new(tcfg);
    let out = rp_sweep::run(&small_cfg(seed), &mut cap);
    let loads = out
        .gcopss_rows
        .iter()
        .chain(&out.server_rows)
        .map(|r| r.network_bytes)
        .collect();
    (cap, loads)
}

/// Serializes a report the way the experiment binaries do, so equality
/// here means the emitted file would be byte-identical.
fn render(r: &TelemetryReport) -> String {
    let events: Vec<String> = r.trace_events.iter().map(ToString::to_string).collect();
    format!("{}|{}|{:016x}|{}", r.label, r.summary, r.fingerprint, events.join(","))
}

fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_u64(j: &Json, key: &str) -> u64 {
    match get(j, key) {
        Some(Json::UInt(v)) => *v,
        _ => panic!("missing u64 field {key}"),
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (a, _) = capture(11, TelemetryConfig::default());
    let (b, _) = capture(11, TelemetryConfig::default());
    assert_eq!(a.reports.len(), 2);
    assert_eq!(b.reports.len(), 2);
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert!(!ra.trace_events.is_empty(), "{}: journal must record", ra.label);
        assert_eq!(ra.fingerprint, rb.fingerprint, "{}", ra.label);
        assert_eq!(render(ra), render(rb), "{}", ra.label);
    }
    // A different seed must actually change the journal.
    let (c, _) = capture(12, TelemetryConfig::default());
    assert_ne!(a.reports[0].fingerprint, c.reports[0].fingerprint);
}

#[test]
fn per_link_bytes_reconcile_with_aggregate_load() {
    let (cap, loads) = capture(7, TelemetryConfig::default());
    for (report, load) in cap.reports.iter().zip(loads) {
        // The summary's own total.
        assert_eq!(get_u64(&report.summary, "link_bytes_total"), load, "{}", report.label);
        // And the per-link table sums to the same number.
        let Some(Json::Array(links)) = get(&report.summary, "links") else {
            panic!("{}: no link table", report.label);
        };
        assert!(!links.is_empty(), "{}", report.label);
        let sum: u64 = links
            .iter()
            .map(|l| get_u64(l, "bytes_ab") + get_u64(l, "bytes_ba"))
            .sum();
        assert_eq!(sum, load, "{}: per-link sum != aggregate load", report.label);
    }
}

#[test]
fn journal_can_be_disabled_and_sampled() {
    // capacity 0 disables the journal but keeps counters and link stats.
    let (off, loads) = capture(7, TelemetryConfig {
        journal_capacity: 0,
        journal_sample: 1,
    });
    for (report, load) in off.reports.iter().zip(loads) {
        assert!(report.trace_events.is_empty(), "{}", report.label);
        assert_eq!(get_u64(&report.summary, "link_bytes_total"), load);
    }
    // Sampling keeps 1-in-n and stays deterministic.
    let tcfg = TelemetryConfig {
        journal_capacity: 1_024,
        journal_sample: 8,
    };
    let (s1, _) = capture(7, tcfg.clone());
    let (s2, _) = capture(7, tcfg);
    let (full, _) = capture(7, TelemetryConfig::default());
    assert_eq!(s1.reports[0].fingerprint, s2.reports[0].fingerprint);
    assert!(
        s1.reports[0].trace_events.len() < full.reports[0].trace_events.len(),
        "sampling must shrink the journal"
    );
}

/// The 10 s microbenchmark workload.
fn microbenchmark() -> Workload {
    Workload::microbenchmark(3, SimDuration::from_secs(10))
}

/// `w` on the testbed with one RP, described and not yet built.
fn testbed_spec(w: &Workload, recovery: Option<RecoveryConfig>) -> ScenarioSpec<'_> {
    let cfg = GcopssConfig {
        params: SimParams::microbenchmark(),
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: 1,
        recovery,
        ..GcopssConfig::default()
    };
    w.spec(&NetworkSpec::Testbed).gcopss(cfg)
}

/// A capture that is off is build-and-drive and nothing else: the closure
/// runs, the simulator stays uninstrumented (even with a sampler configured
/// on the capture), and nothing is harvested.
#[test]
fn a_capture_that_is_off_runs_the_closure_and_observes_nothing() {
    let w = microbenchmark();
    let mut cap = TelemetryCapture::off().with_timeseries(TimeSeriesConfig::default());
    assert!(!cap.is_on());
    let mut ran = false;
    let sim = cap.run("unused", testbed_spec(&w, None), |sim| {
        ran = true;
        sim.run();
    });
    assert!(ran, "the closure must run");
    assert!(sim.world().metrics.delivered() > 0);
    assert!(!sim.telemetry().is_enabled());
    assert!(sim.timeseries_json().is_none());
    assert!(cap.reports.is_empty() && cap.series.is_empty() && cap.audits.is_empty());
    assert!(TelemetryCapture::new(TelemetryConfig::default()).is_on());
}

/// One instrumented microbenchmark run on the testbed, optionally with a
/// chaos plan installed and recovery armed. A fixed horizon (instead of
/// run-to-quiescence) keeps the run method identical across modes.
fn chaos_report(plan: Option<FaultPlan>, recovery: Option<RecoveryConfig>) -> TelemetryReport {
    let w = microbenchmark();
    let mut sim = testbed_spec(&w, recovery).build().into_sim();
    sim.enable_telemetry(TelemetryConfig::default());
    if let Some(p) = plan {
        sim.install_faults(p);
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    sim.telemetry_report("chaos", 0)
}

#[test]
fn vacuous_chaos_plan_is_byte_identical_to_no_plan() {
    let off = chaos_report(None, None);
    let vacuous = chaos_report(Some(FaultPlan::new(99)), None);
    assert!(!off.trace_events.is_empty());
    assert_eq!(off.fingerprint, vacuous.fingerprint);
    assert_eq!(render(&off), render(&vacuous));
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let links = NetworkSpec::Testbed.core_links_preview();
    let mk_plan = || {
        FaultPlan::new(5).with_loss(0.02).random_link_flaps(
            &links,
            3,
            SimTime::from_millis(2_000),
            SimTime::from_millis(8_000),
            SimDuration::from_millis(500),
        )
    };
    let recovery = Some(RecoveryConfig::default());
    let a = chaos_report(Some(mk_plan()), recovery.clone());
    let b = chaos_report(Some(mk_plan()), recovery);
    assert!(!a.trace_events.is_empty());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(render(&a), render(&b));
    // The chaos must actually perturb the run.
    let calm = chaos_report(None, None);
    assert_ne!(a.fingerprint, calm.fingerprint);
}
