//! Design-choice ablations: hybrid group density, RP split threshold, NDN
//! accumulation interval, QR pipelining window.

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::ablation;
use gcopss_core::experiments::movement::MovementConfig;
use gcopss_core::experiments::WorkloadParams;
use gcopss_sim::SimDuration;

pub fn run(opts: ExpOptions) {
    // One capture across all four sweeps: every run lands in the same
    // merged telemetry document, one trace process per run label.
    let mut h = ExpHarness::new("ablation", opts).with_sampled_capture();
    let updates = h.opts.scaled(8_000, 50_000);
    let seed = h.opts.seed;

    header("Ablation 1 — hybrid-G-COPSS: IP multicast group count (§III-D)");
    println!(
        "{:>8} {:>14} {:>12}",
        "groups", "latency (ms)", "load (GB)"
    );
    let wl = WorkloadParams {
        seed,
        updates,
        ..WorkloadParams::default()
    };
    for (g, s) in ablation::hybrid_group_sweep(&wl, 7, &[1, 2, 4, 6, 12, 31], h.cap()) {
        println!(
            "{:>8} {:>14.2} {:>12.4}",
            g,
            s.mean_latency.as_millis_f64(),
            s.network_gb()
        );
    }

    header("Ablation 2 — automatic RP split threshold (§IV-B)");
    println!(
        "{:>10} {:>8} {:>14} {:>12}",
        "threshold", "splits", "latency (ms)", "load (GB)"
    );
    for (t, splits, s) in ablation::split_threshold_sweep(&wl, 7, &[20, 50, 100, 250], h.cap()) {
        println!(
            "{:>10} {:>8} {:>14.2} {:>12.4}",
            t,
            splits,
            s.mean_latency.as_millis_f64(),
            s.network_gb()
        );
    }

    header("Ablation 3 — NDN baseline accumulation interval t (§V-A trade-off)");
    println!(
        "{:>8} {:>14} {:>12}",
        "t (ms)", "latency (ms)", "load (GB)"
    );
    let dur = SimDuration::from_secs(h.opts.scaled(6, 30) as u64);
    for (t, s) in ablation::ndn_accumulation_sweep(
        seed,
        dur,
        &[
            SimDuration::from_millis(20),
            SimDuration::from_millis(50),
            SimDuration::from_millis(100),
            SimDuration::from_millis(250),
            SimDuration::from_millis(500),
        ],
        h.cap(),
    ) {
        println!(
            "{:>8.0} {:>14.1} {:>12.5}",
            t.as_millis_f64(),
            s.mean_latency.as_millis_f64(),
            s.network_gb()
        );
    }

    header("Ablation 4 — QR pipelining window (§V-B: saturates near 15)");
    println!("{:>8} {:>16}", "window", "convergence (ms)");
    let mcfg = MovementConfig {
        workload: WorkloadParams {
            seed,
            updates,
            players: 150,
            ..WorkloadParams::default()
        },
        // ~19 s trace: 12 movers, one move each every 4-10 s.
        move_interval: (SimDuration::from_secs(4), SimDuration::from_secs(10)),
        mover_count: 12,
        drain: SimDuration::from_secs(120),
    };
    for (w, mean) in ablation::qr_window_sweep(&mcfg, &[1, 5, 10, 15, 20, 30], h.cap()) {
        println!("{:>8} {:>16.1}", w, mean.as_millis_f64());
    }

    h.finish();
}
