//! Delivery audit: replay the chaos scenario under the lineage tracer and
//! close the books — every `(publication, owed subscriber)` pair must be
//! delivered exactly once, dropped for a recorded reason, lost inside the
//! fault damage window, or still in flight at the horizon. Duplicates and
//! unexplained losses abort the run.

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::audit;
use gcopss_core::experiments::failover::FailoverConfig;
use gcopss_core::experiments::WorkloadParams;

pub fn run(opts: ExpOptions) {
    // The sampler reads the metrics registry, so telemetry is on; three
    // chaotic runs, journal sampled as in the failure sweep they replay.
    let mut h = ExpHarness::new("exp_audit", opts)
        .with_sampled_capture()
        .with_timeseries(audit::timeseries_config());
    let updates = h.opts.scaled(6_000, 50_000);
    let players = h.opts.scaled(100, 414);
    let cfg = FailoverConfig {
        workload: WorkloadParams {
            seed: h.opts.seed,
            updates,
            players,
            ..WorkloadParams::default()
        },
        ..FailoverConfig::default()
    };
    let out = audit::run(&cfg, h.cap());

    header(&format!(
        "Delivery audit — {updates} updates, {players} players, {} link flaps + RP crash/restart, loss {:?}",
        cfg.flaps, cfg.loss_rates
    ));
    let mut dirty = false;
    for r in &out.runs {
        let a = r.audit();
        header(&format!(
            "{} — {} spans, lineage fingerprint {:016x}",
            r.run.label, a.spans, a.fingerprint
        ));
        println!("{}", a.report.table());
        for e in &a.report.errors {
            println!("  ERROR: {e}");
        }
        dirty |= !a.report.is_clean();
    }

    h.finish();

    assert!(!dirty, "audit found unexplained losses or duplicates");
    println!("\nall runs clean: every owed pair accounted for");
}
