//! Table III: snapshot convergence time per movement type, comparing the
//! query/response (windows 5 and 15) and cyclic-multicast dissemination
//! modes with 3 brokers.
//!
//! Paper shape: convergence grows (sub)linearly with the number of leaf CDs
//! downloaded; QR window 15 beats window 5; cyclic multicast has the best
//! average; QR carries roughly 2x the snapshot traffic of cyclic.

use crate::{gb, header, ExpHarness, ExpOptions};
use gcopss_core::experiments::movement::{self, MovementConfig};
use gcopss_core::experiments::WorkloadParams;
use gcopss_sim::SimDuration;

pub fn run(opts: ExpOptions) {
    let mut h = ExpHarness::new("table3", opts).with_sampled_capture();
    let updates = h.opts.scaled(15_000, 200_000);
    // Keep the network-wide move *rate* near the paper's (~0.35–2 moves/s)
    // at every scale: fewer movers with shorter intervals on short traces.
    let (lo, hi, movers) = if h.opts.full {
        (
            SimDuration::from_secs(60),
            SimDuration::from_secs(420),
            414,
        )
    } else {
        (SimDuration::from_secs(15), SimDuration::from_secs(45), 60)
    };
    let cfg = MovementConfig {
        workload: WorkloadParams {
            seed: h.opts.seed,
            updates,
            ..WorkloadParams::default()
        },
        move_interval: (lo, hi),
        mover_count: movers,
        drain: SimDuration::from_secs(120),
    };
    let outputs = movement::run_all(&cfg, h.cap());

    for out in &outputs {
        header(&format!(
            "Table III — {} ({} moves, {} broker objects served)",
            out.label, out.moves, out.broker_served
        ));
        println!(
            "{:<36} {:>7} {:>9} {:>12} {:>10}",
            "move type", "count", "leaf CDs", "conv (ms)", "±95% (ms)"
        );
        for r in &out.rows {
            println!(
                "{:<36} {:>7} {:>9.1} {:>12.1} {:>10.1}",
                r.move_type.label(),
                r.count,
                r.leaf_cds,
                r.mean.as_millis_f64(),
                r.ci95.as_millis_f64()
            );
        }
        println!(
            "{:<36} {:>7} {:>9} {:>12.1} {:>10.1}",
            "total (snapshot-requiring)",
            "",
            "",
            out.total_mean.as_millis_f64(),
            out.total_ci95.as_millis_f64()
        );
        println!(
            "snapshot bytes to movers = {:.4} GB; total network load = {:.4} GB",
            gb(out.snapshot_bytes),
            gb(out.network_bytes)
        );
    }

    header("Shape check");
    if outputs.len() == 3 {
        let qr5 = &outputs[0];
        let qr15 = &outputs[1];
        let cyc = &outputs[2];
        println!(
            "QR5 {:.0} ms > QR15 {:.0} ms : {}",
            qr5.total_mean.as_millis_f64(),
            qr15.total_mean.as_millis_f64(),
            qr5.total_mean > qr15.total_mean
        );
        println!(
            "cyclic mean {:.0} ms (paper: best on average at 851 ms vs QR 2,600 ms)",
            cyc.total_mean.as_millis_f64()
        );
        println!(
            "QR15/cyclic network-load ratio = {:.2}x (paper snapshot traffic ~26GB/14GB = 1.9x)",
            qr15.network_bytes as f64 / cyc.network_bytes.max(1) as f64
        );
    }

    h.finish();
}
