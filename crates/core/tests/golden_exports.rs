//! Golden export bytes: one fixed small G-COPSS run under telemetry and
//! full lineage, with 2 % link loss and a horizon three quarters into the
//! trace, so its exports hold every shape they can — drops with reasons,
//! open spans, in-flight and unpublished pairs. Four exports are pinned by
//! FNV-1a hash: the Chrome trace events and the summary of
//! `telemetry_*.json`, the audit document, and the span log's fingerprint
//! (which folds every field of every span). A change to how any of them is
//! built that moves one byte fails here, in tier-1, not only in the
//! export-schema gate's fingerprint manifest (which covers journals, not
//! these bytes).

use gcopss_core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss_core::scenario::{GcopssConfig, NetworkSpec, WARMUP};
use gcopss_sim::generators::BackboneParams;
use gcopss_sim::json::Json;
use gcopss_sim::{FaultPlan, SimDuration, SimTime, TelemetryConfig};

/// FNV-1a 64 over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn exports_keep_their_bytes() {
    let net = NetworkSpec::Backbone {
        seed: 7,
        params: BackboneParams {
            core_routers: 6,
            edge_per_core: 1,
        },
    };
    let w = Workload::counter_strike(&WorkloadParams {
        seed: 42,
        players: 30,
        updates: 300,
        ..WorkloadParams::default()
    });
    let horizon = SimTime::ZERO + WARMUP + SimDuration::from_nanos(w.span().as_nanos() * 3 / 4);
    let spec = w
        .spec(&net)
        .gcopss(GcopssConfig::default())
        .fault_plan(FaultPlan::new(5).with_loss(0.02));
    let mut cap = TelemetryCapture::new(TelemetryConfig {
        journal_capacity: 4_096,
        journal_sample: 3,
    });
    let (sim, run) = cap.run_audited("golden", spec, &w, horizon, |_| None);
    let report = &cap.reports[0];
    let audit = run.audit.expect("run_audited audits");

    // Not vacuous: every shape the exports can hold is in this run.
    let books = &audit.report;
    assert!(books.delivered > 0 && books.in_flight > 0 && books.unpublished > 0);
    assert!(books.dropped.contains_key("link-lost"), "{}", books.table());
    assert!(sim.lineage().spans().iter().any(|s| s.is_open()));
    assert_eq!(sim.telemetry().journal_records().len(), 4_096);

    let hashes = [
        fnv(Json::arr(report.trace_events.iter().cloned())
            .to_string()
            .as_bytes()),
        fnv(report.summary.to_string().as_bytes()),
        fnv(books.to_json().to_string().as_bytes()),
        audit.fingerprint,
    ];
    let hex = hashes.map(|h| format!("{h:016x}"));
    assert_eq!(
        hex,
        [
            "58b418f1fb828e8d",
            "1813f12365d0de0b",
            "fe0e330642f0b517",
            "33ba2ec093070a6e",
        ],
        "trace events, summary, audit, span fingerprint"
    );
}
