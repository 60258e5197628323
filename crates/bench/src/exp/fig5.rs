//! Fig. 5: per-publication update-latency timelines — 3 RPs (no
//! congestion), 2 RPs (congestion partway through the trace), and automatic
//! RP balancing (splits bring latency back down).

use crate::{header, print_splits, ExpHarness, ExpOptions};
use gcopss_core::experiments::rp_sweep::{self, RpSweepConfig};
use gcopss_core::experiments::WorkloadParams;
use gcopss_sim::{SimDuration, TimeSeriesConfig};

pub fn run(opts: ExpOptions) {
    // The per-RP load breakdown over time is the congestion story of
    // Fig. 5 told as a time series: watch rp-served concentrate, then
    // rebalance after the automatic split.
    let mut h = ExpHarness::new("fig5", opts)
        .with_sampled_capture()
        .with_timeseries(TimeSeriesConfig {
            tick: SimDuration::from_millis(500),
            counters: vec!["delivered", "drop", "rp-served"],
            gauges: vec!["st-entries"],
            per_node: vec!["rp-served"],
            ..TimeSeriesConfig::default()
        });
    let updates = h.opts.scaled(20_000, 100_000);
    let seed = h.opts.seed;
    let out = rp_sweep::run(
        &RpSweepConfig {
            workload: WorkloadParams {
                seed,
                updates,
                ..WorkloadParams::default()
            },
            rp_counts: vec![2, 3],
            include_auto: true,
            server_counts: vec![],
            fig5_detail: true,
            fig5_points: 60,
        },
        h.cap(),
    );

    for series in &out.fig5 {
        header(&format!(
            "Fig. 5 series: {} (publication id -> min/mean/max latency ms)",
            series.label
        ));
        println!("{:>10} {:>10} {:>10} {:>10}", "pub id", "min", "mean", "max");
        for (id, min, mean, max) in &series.points {
            println!("{id:>10} {min:>10.2} {mean:>10.2} {max:>10.2}");
        }
    }

    header("Automatic splits (paper Fig. 5c: the router split CDs twice)");
    if out.auto_splits.is_empty() {
        println!("(no splits occurred at this scale)");
    }
    print_splits(&out.auto_splits);

    header("Shape check");
    for series in &out.fig5 {
        let first_q: f64 = {
            let k = series.points.len() / 4;
            series.points[..k.max(1)].iter().map(|p| p.2).sum::<f64>() / k.max(1) as f64
        };
        let last_q: f64 = {
            let k = series.points.len() / 4;
            series.points[series.points.len() - k.max(1)..]
                .iter()
                .map(|p| p.2)
                .sum::<f64>()
                / k.max(1) as f64
        };
        println!(
            "{}: mean latency first-quarter {first_q:.1} ms -> last-quarter {last_q:.1} ms",
            series.label
        );
    }

    h.finish();
}
