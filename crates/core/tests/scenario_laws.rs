//! Laws over generated scenarios, through the one run path
//! (`TelemetryCapture::{run, run_audited}`): for every generated
//! `(protocol, RP | server | group count, workload seed, overload)` tuple on
//! a small backbone — `overload` either none or the chaos soak's generous
//! bounded queue, set on the spec independently of the protocol —
//!
//! * observers leave the schedule untouched — a run under a capture that is
//!   on (telemetry, frame sampler and full lineage armed) ends with the same
//!   books, drop ledger included, as the same spec under a capture that is
//!   off, and its ledger equals its telemetry's per-reason drop counts;
//! * same-seed audited runs render byte-identical telemetry reports, time
//!   series and audit documents;
//! * the generous queue sheds nothing, so every G-COPSS audit is clean
//!   under both overload arms.

use std::cell::Cell;

use gcopss_compat::prop;
use gcopss_core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss_core::scenario::{
    GcopssConfig, HybridConfig, IpConfig, NdnBaselineConfig, NetworkSpec, Protocol, WARMUP,
};
use gcopss_core::{drops, GPacket, GameWorld};
use gcopss_sim::generators::BackboneParams;
use gcopss_sim::json::Json;
use gcopss_sim::{
    AdmissionPolicy, OverloadConfig, SimDuration, SimTime, Simulator, TelemetryConfig,
    TimeSeriesConfig,
};

const CASES: u32 = 32;

/// The evaluated systems, in `kind` order.
const PROTOCOLS: usize = 4;

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
        2 => Protocol::Hybrid(HybridConfig {
            group_count: cores as u32,
        }),
        _ => Protocol::NdnBaseline(NdnBaselineConfig::default()),
    }
}

/// The chaos soak's generous bounded queue: drop-tail behind 4 096 waiting
/// packets, priority classes and a 50 ms sojourn mark — installed, but
/// never full at this load.
fn generous() -> OverloadConfig {
    OverloadConfig {
        queue_capacity: Some(4_096),
        policy: AdmissionPolicy::DropTail,
        priority: true,
        mark_sojourn: Some(SimDuration::from_millis(50)),
    }
}

/// Everything an audited run under a capture that is on exports, rendered
/// the way the runner writes it.
fn render(cap: &TelemetryCapture) -> Vec<String> {
    let labelled = |docs: &[(String, Json)]| -> Vec<String> {
        docs.iter()
            .map(|(label, doc)| format!("{label}: {doc}"))
            .collect()
    };
    let reports = cap.reports.iter().map(|r| {
        let events: Vec<String> = r.trace_events.iter().map(ToString::to_string).collect();
        format!(
            "{}|{}|{:016x}|{}",
            r.label,
            r.summary,
            r.fingerprint,
            events.join(",")
        )
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
        prop::range(0u32..PROTOCOLS as u32),
        prop::range(1usize..=3),
        prop::range(0u64..1_000),
        prop::bools(),
    );
    // How many cases ran each protocol, and each overload arm.
    let ran = Cell::new(([0u32; PROTOCOLS], [0u32; 2]));
    prop::check(0x51324, CASES, &input, |&(kind, cores, seed, bounded)| {
        let w = Workload::counter_strike(&WorkloadParams {
            seed,
            players: 30,
            updates: 300,
            ..WorkloadParams::default()
        });
        // NDN consumers poll forever, so every protocol runs to a horizon.
        let horizon = SimTime::ZERO + WARMUP + w.span() + SimDuration::from_secs(2);
        let overload = if bounded {
            generous()
        } else {
            OverloadConfig::default()
        };
        let spec = || {
            w.spec(&net)
                .protocol(protocol(kind, cores))
                .overload(overload.clone())
        };

        let bare = TelemetryCapture::off().run("", spec(), |sim| sim.run_until(horizon));
        assert!(!bare.telemetry().is_enabled());
        assert_eq!(bare.overload_active(), bounded);
        let shed = [drops::QUEUE_FULL, drops::AQM_SHED, drops::STALE_SUPERSEDED];
        let shed: u64 = shed.into_iter().map(|why| bare.dropped(why)).sum();
        assert_eq!(shed, 0, "the generous queue shed packets");

        let audited = || {
            let mut cap = TelemetryCapture::new(TelemetryConfig {
                journal_capacity: 1_024,
                journal_sample: 8,
            })
            .with_timeseries(TimeSeriesConfig::default());
            let (sim, run) = cap.run_audited("run", spec(), &w, horizon, |_| None);
            (sim, run, cap)
        };
        let (observed, run, cap) = audited();
        assert!(observed.telemetry().is_enabled() && observed.lineage().is_enabled());

        let ledger = |sim: &Simulator<GPacket, GameWorld>| -> Vec<u64> {
            drops::ALL.iter().map(|tag| sim.dropped(tag)).collect()
        };
        let books = |sim: &Simulator<GPacket, GameWorld>| {
            let m = &sim.world().metrics;
            let sums = (
                m.published(),
                m.delivered(),
                m.stats().sum(),
                sim.total_link_bytes(),
            );
            (sums, ledger(sim))
        };
        assert!(bare.world().metrics.delivered() > 0, "nothing delivered");
        assert_eq!(
            books(&bare),
            books(&observed),
            "observers moved the schedule"
        );
        let exported: Vec<u64> = drops::ALL
            .iter()
            .map(|tag| observed.telemetry().counter_total(tag))
            .collect();
        assert_eq!(
            ledger(&observed),
            exported,
            "the ledger disagrees with telemetry"
        );

        let (_, _, again) = audited();
        assert_eq!(cap.reports.len(), 1);
        assert_eq!(cap.series.len(), 1);
        assert_eq!(cap.audits.len(), 1);
        assert_eq!(render(&cap), render(&again), "same-seed exports differ");

        if kind == 0 {
            let report = &run.audit.expect("run_audited audits").report;
            assert!(report.is_clean(), "{}\n{:?}", report.table(), report.errors);
            assert!(report.delivered > 0 && report.delivered == report.total_pairs);
        }
        let (mut protocols, mut arms) = ran.get();
        protocols[kind as usize] += 1;
        arms[usize::from(bounded)] += 1;
        ran.set((protocols, arms));
    });
    // The law is not vacuous: every protocol and both overload arms ran.
    let (protocols, arms) = ran.get();
    assert!(protocols.iter().all(|&n| n > 0), "{protocols:?}");
    assert!(arms.iter().all(|&n| n > 0), "{arms:?}");
}
