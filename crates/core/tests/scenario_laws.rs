//! Laws over generated scenarios, through the one run path
//! (`TelemetryCapture::{run, run_audited}`): for every generated
//! `(protocol, RP | server count, workload seed)` tuple on a small backbone,
//!
//! * observers leave the schedule untouched — a run under a capture that is
//!   on (telemetry, frame sampler and full lineage armed) ends with the same
//!   books as the same spec under a capture that is off;
//! * same-seed audited runs render byte-identical telemetry reports, time
//!   series and audit documents;
//! * every G-COPSS audit is clean.

use std::cell::Cell;

use gcopss_compat::prop;
use gcopss_core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss_core::scenario::{
    GcopssConfig, IpConfig, NdnBaselineConfig, NetworkSpec, Protocol, WARMUP,
};
use gcopss_core::{GPacket, GameWorld};
use gcopss_sim::generators::BackboneParams;
use gcopss_sim::json::Json;
use gcopss_sim::{SimDuration, SimTime, Simulator, TelemetryConfig, TimeSeriesConfig};

const CASES: u32 = 24;

fn protocol(kind: u32, cores: usize) -> Protocol {
    match kind {
        0 => Protocol::Gcopss(GcopssConfig {
            rp_count: cores,
            ..GcopssConfig::default()
        }),
        1 => Protocol::IpServer(IpConfig {
            server_count: cores,
            ..IpConfig::default()
        }),
        _ => Protocol::NdnBaseline(NdnBaselineConfig::default()),
    }
}

/// Everything an audited run under a capture that is on exports, rendered
/// the way the runner writes it.
fn render(cap: &TelemetryCapture) -> Vec<String> {
    let labelled = |docs: &[(String, Json)]| -> Vec<String> {
        docs.iter().map(|(label, doc)| format!("{label}: {doc}")).collect()
    };
    let reports = cap.reports.iter().map(|r| {
        let events: Vec<String> = r.trace_events.iter().map(ToString::to_string).collect();
        format!("{}|{}|{:016x}|{}", r.label, r.summary, r.fingerprint, events.join(","))
    });
    let mut out: Vec<String> = reports.collect();
    out.extend(labelled(&cap.series));
    out.extend(labelled(&cap.audits));
    out
}

#[test]
fn observers_leave_the_books_untouched_and_same_seeds_agree() {
    // 12 routers, 30 players, 300 updates: a case is tens of milliseconds.
    let net = NetworkSpec::Backbone {
        seed: 7,
        params: BackboneParams {
            core_routers: 6,
            edge_per_core: 1,
        },
    };
    let input = (
        prop::range(0u32..3),
        prop::range(1usize..=3),
        prop::range(0u64..1_000),
    );
    // How many cases ran each protocol.
    let ran = Cell::new([0u32; 3]);
    prop::check(0x51324, CASES, &input, |&(kind, cores, seed)| {
        let w = Workload::counter_strike(&WorkloadParams {
            seed,
            players: 30,
            updates: 300,
            ..WorkloadParams::default()
        });
        // NDN consumers poll forever, so every protocol runs to a horizon.
        let horizon = SimTime::ZERO + WARMUP + w.span() + SimDuration::from_secs(2);
        let spec = || w.spec(&net).protocol(protocol(kind, cores));

        let bare = TelemetryCapture::off().run("", spec(), |sim| sim.run_until(horizon));
        assert!(!bare.telemetry().is_enabled());

        let audited = || {
            let mut cap = TelemetryCapture::new(TelemetryConfig {
                journal_capacity: 1_024,
                journal_sample: 8,
            })
            .with_timeseries(TimeSeriesConfig::default());
            let (sim, report) = cap.run_audited("run", spec(), &w, horizon, |_| None);
            (sim, report, cap)
        };
        let (observed, report, cap) = audited();
        assert!(observed.telemetry().is_enabled() && observed.lineage().is_enabled());

        let books = |sim: &Simulator<GPacket, GameWorld>| {
            let m = &sim.world().metrics;
            (m.published(), m.delivered(), m.stats().sum(), sim.total_link_bytes())
        };
        assert!(books(&bare).1 > 0, "nothing delivered");
        assert_eq!(books(&bare), books(&observed), "observers moved the schedule");

        let (_, _, again) = audited();
        assert_eq!(cap.reports.len(), 1);
        assert_eq!(cap.series.len(), 1);
        assert_eq!(cap.audits.len(), 1);
        assert_eq!(render(&cap), render(&again), "same-seed exports differ");

        if kind == 0 {
            assert!(report.is_clean(), "{}\n{:?}", report.table(), report.errors);
            assert!(report.delivered > 0 && report.delivered == report.total_pairs);
        }
        let mut seen = ran.get();
        seen[kind as usize] += 1;
        ran.set(seen);
    });
    // The law is not vacuous: every protocol ran.
    assert!(ran.get().iter().all(|&n| n > 0), "{:?}", ran.get());
}
