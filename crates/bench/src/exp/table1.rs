//! Table I: update latency and network load of G-COPSS (1/2/3/6/auto RPs)
//! vs the IP server (1/2/3/6 servers) over the first 100,000 trace updates
//! with 414 players.

use crate::{gb, header, per_link_byte_sum, print_splits, ExpHarness, ExpOptions};
use gcopss_core::experiments::rp_sweep::{self, RpSweepConfig};
use gcopss_core::experiments::WorkloadParams;

pub fn run(opts: ExpOptions) {
    // Nine full-trace runs: sample the journal so the merged telemetry
    // document stays a few MB (counters and histograms are unaffected).
    let mut h = ExpHarness::new("table1", opts).with_sampled_capture();
    let updates = h.opts.scaled(20_000, 100_000);
    let seed = h.opts.seed;
    let out = rp_sweep::run(
        &RpSweepConfig {
            workload: WorkloadParams {
                seed,
                updates,
                ..WorkloadParams::default()
            },
            fig5_detail: false,
            ..RpSweepConfig::default()
        },
        h.cap(),
    );

    header(&format!(
        "Table I — {updates} updates, 414 players (paper: 1-2 RPs congest, ≥3 fine, auto ≈ 3)"
    ));
    println!(
        "{:<28} {:>14} {:>12}",
        "configuration", "latency (ms)", "load (GB)"
    );
    for r in &out.gcopss_rows {
        println!("{}", r.row());
    }
    for r in &out.server_rows {
        println!("{}", r.row());
    }

    if !out.auto_splits.is_empty() {
        header("Automatic splits");
        print_splits(&out.auto_splits);
    }

    header("Shape check");
    let find = |label_part: &str| {
        out.gcopss_rows
            .iter()
            .find(|r| r.label.contains(label_part))
    };
    if let (Some(r1), Some(r3)) = (find("1 RP"), find("3 RP")) {
        println!(
            "G-COPSS 1RP/3RP latency ratio = {:.0}x (paper: ~3 orders of magnitude)",
            r1.mean_latency.as_millis_f64() / r3.mean_latency.as_millis_f64().max(1e-9)
        );
    }
    if let (Some(g3), Some(s3)) = (
        find("3 RP"),
        out.server_rows.iter().find(|r| r.label.contains("x3")),
    ) {
        println!(
            "IP(3)/G-COPSS(3) latency ratio = {:.1}x, load ratio = {:.2}x (paper: load ~2x)",
            s3.mean_latency.as_millis_f64() / g3.mean_latency.as_millis_f64().max(1e-9),
            s3.network_gb() / g3.network_gb().max(1e-12)
        );
    }

    // Telemetry keeps its own per-directed-link byte counters; their sum
    // must reconcile exactly with the engine's aggregate-load number that
    // fills the table above.
    header("Telemetry reconciliation (per-link byte sum vs aggregate load)");
    let rows = out.gcopss_rows.iter().chain(&out.server_rows);
    for (report, row) in h.cap().reports.iter().zip(rows) {
        let link_sum = per_link_byte_sum(report).expect("run summary has a link table");
        assert_eq!(
            link_sum, row.network_bytes,
            "{}: per-link telemetry bytes disagree with aggregate load",
            report.label
        );
        println!(
            "{:<14} per-link sum {:.4} GB == aggregate load {:.4} GB",
            report.label,
            gb(link_sum),
            gb(row.network_bytes)
        );
    }

    h.finish();
}
