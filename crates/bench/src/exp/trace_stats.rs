//! Fig. 3c / Fig. 3d: trace characterization of the synthetic
//! Counter-Strike workload.

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::trace_stats;
use gcopss_core::experiments::WorkloadParams;

pub fn run(opts: ExpOptions) {
    let mut h = ExpHarness::new("trace_stats", opts);
    let updates = h.opts.scaled(100_000, 1_686_905);
    let params = WorkloadParams {
        seed: h.opts.seed,
        updates,
        ..WorkloadParams::default()
    };
    let out = {
        // No DES loop here: the characterization pass is the measured
        // "hot loop" for this binary's profile.
        let _p = gcopss_sim::prof::scope("trace_stats/run");
        trace_stats::run(&params)
    };

    header("Workload (paper: 414 players, 1,686,905 updates, 3,197 objects)");
    println!(
        "players = {}   updates = {}   objects = {}",
        out.players, out.total_updates, out.objects
    );

    header("Fig. 3c — updates per player (CDF, downsampled)");
    println!("{:>10} {:>8}", "updates", "CDF");
    let step = (out.updates_cdf.len() / 20).max(1);
    for (u, f) in out.updates_cdf.iter().step_by(step) {
        println!("{u:>10} {f:>8.3}");
    }
    if let Some((u, f)) = out.updates_cdf.last() {
        println!("{u:>10} {f:>8.3}");
    }

    header("Fig. 3d — players and objects per area");
    println!("{:<10} {:>8} {:>8} {:>10}", "area", "players", "objects", "updates");
    for a in &out.per_area {
        println!(
            "{:<10} {:>8} {:>8} {:>10}",
            a.cd.to_string(),
            a.players,
            a.objects,
            a.updates
        );
    }

    header("Shape check");
    let max = out.updates_cdf.last().map_or(0, |x| x.0);
    let median = out.updates_cdf[out.updates_cdf.len() / 2].0;
    println!("heavy tail: max/median updates per player = {:.1}", max as f64 / median.max(1) as f64);

    // No simulator runs here — the telemetry report characterizes the
    // workload itself with log-scale histograms.
    h.push_report(trace_stats::telemetry_report(&params, &out));
    h.finish();
}
