//! Rejoin storm: after an RP crash silences the update plane, every
//! client's watchdog triggers a recovery catch-up at once. The identical
//! storm runs twice — naive full-snapshot re-fetch vs content-addressed
//! chunked-delta — and the delta path must move at least 5x fewer
//! catch-up bytes. Both runs must close the exactly-once catch-up ledger.

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::rejoin::{self, RejoinConfig, RejoinRow};
use gcopss_core::experiments::WorkloadParams;
use gcopss_sim::json::Json;
use gcopss_sim::{SimDuration, TimeSeriesConfig};

fn audit_json(r: &RejoinRow) -> Json {
    Json::obj([
        ("owed", Json::UInt(r.audit.owed)),
        ("delivered", Json::UInt(r.audit.delivered)),
        ("outstanding", Json::UInt(r.audit.outstanding)),
        ("over_delivered", Json::UInt(r.audit.over_delivered)),
        ("entries", Json::UInt(r.audit.entries)),
        ("clean", Json::Bool(r.audit.clean())),
        (
            "ledger_fingerprint",
            Json::str(format!("{:016x}", r.ledger_fingerprint)),
        ),
        ("recovery_catchups", Json::UInt(r.recovery_catchups)),
        ("recovery_bytes", Json::UInt(r.recovery_bytes)),
        ("chunks_fetched", Json::UInt(r.chunks_fetched)),
        ("chunks_held", Json::UInt(r.chunks_held)),
        ("reassembly_ok", Json::UInt(r.reassembly_ok)),
        ("reassembly_failed", Json::UInt(r.reassembly_failed)),
    ])
}

pub fn run(opts: ExpOptions) {
    let mut h = ExpHarness::new("exp_rejoin", opts)
        .with_sampled_capture()
        .with_timeseries(TimeSeriesConfig {
            tick: SimDuration::from_millis(500),
            counters: vec![
                "delivered",
                "drop",
                "broker-manifest-served",
                "broker-chunk-served",
            ],
            gauges: vec!["st-entries"],
            per_node: vec!["rp-served"],
            ..TimeSeriesConfig::default()
        });
    let updates = h.opts.scaled(8_000, 50_000);
    let players = h.opts.scaled(120, 414);
    // Inherit the rejoin default workload (its calm interarrival leaves the
    // links idle enough for catch-up traffic), overriding only the knobs the
    // CLI controls.
    let base = RejoinConfig::default();
    let cfg = RejoinConfig {
        workload: WorkloadParams {
            seed: h.opts.seed,
            updates,
            players,
            ..base.workload
        },
        ..base
    };
    let out = rejoin::run_with(&cfg, h.cap());

    header(&format!(
        "Rejoin storm — {updates} updates, {players} players, RP crash at 30% of the span"
    ));
    println!(
        "{:<14} {:>8} {:>8} {:>12} {:>12} {:>10} {:>9} {:>9} {:>8}",
        "strategy", "prewarm", "storm", "pre (kB)", "storm (kB)", "lat (ms)", "fetched", "held", "retries"
    );
    for r in [&out.chunked, &out.full] {
        println!("{}", r.row());
    }

    header("Catch-up ledger (exactly-once accounting)");
    for r in [&out.chunked, &out.full] {
        println!(
            "{:<14} owed {:>7}  delivered {:>7}  outstanding {}  over-delivered {}  clean: {}  fingerprint {:016x}",
            r.label,
            r.audit.owed,
            r.audit.delivered,
            r.audit.outstanding,
            r.audit.over_delivered,
            r.audit.clean(),
            r.ledger_fingerprint,
        );
    }

    header("Shape check");
    let ratio = out.recovery_byte_ratio();
    // The 5x win needs the real population: with few players the per-client
    // manifest overhead is a larger share of the delta bytes. Scaled-down
    // smoke runs still must show a clear win, just with a softer floor.
    let gate = if h.opts.full || h.opts.scale >= 1.0 {
        5.0
    } else {
        2.0
    };
    println!(
        "recovery bytes: full-snapshot {} / chunked-delta {} = {ratio:.2}x (gate: >= {gate}x)",
        out.full.recovery_bytes, out.chunked.recovery_bytes
    );
    println!(
        "chunked integrity: {} manifests reassembled, {} failed; {} chunks held vs {} fetched",
        out.chunked.reassembly_ok,
        out.chunked.reassembly_failed,
        out.chunked.chunks_held,
        out.chunked.chunks_fetched
    );
    for r in [&out.chunked, &out.full] {
        assert!(r.recovery_catchups > 0, "{}: no storm ran", r.label);
        assert!(r.rp_failovers >= 1, "{}: crash did not fail over", r.label);
        assert!(
            r.audit.clean(),
            "{}: catch-up ledger dirty ({} outstanding, {} over-delivered)",
            r.label,
            r.audit.outstanding,
            r.audit.over_delivered
        );
    }
    assert_eq!(out.chunked.reassembly_failed, 0, "chunk integrity broke");
    assert!(
        ratio >= gate,
        "chunked-delta catch-up must move >= {gate}x fewer bytes (got {ratio:.2}x)"
    );

    for r in [&out.chunked, &out.full] {
        h.add_audit(r.label.clone(), audit_json(r));
    }
    h.finish();
    println!("\nrejoin storm: both ledgers clean, delta win {ratio:.2}x");
}
