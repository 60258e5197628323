//! Failure sweep: delivery ratio and recovery time of G-COPSS (with
//! failure-aware routing, soft-state repair, and RP failover) vs the IP
//! and NDN baselines under random link flaps, one infrastructure crash,
//! and swept packet loss.

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::failover::{self, FailoverConfig};
use gcopss_core::experiments::{audit, WorkloadParams};

pub fn run(opts: ExpOptions) {
    // Nine chaotic runs; sample the journal to bound the merged document.
    let mut h = ExpHarness::new("exp_failover", opts)
        .with_sampled_capture()
        .with_timeseries(audit::timeseries_config());
    let updates = h.opts.scaled(10_000, 50_000);
    let players = h.opts.scaled(120, 414);
    let cfg = FailoverConfig {
        workload: WorkloadParams {
            seed: h.opts.seed,
            updates,
            players,
            ..WorkloadParams::default()
        },
        ..FailoverConfig::default()
    };
    let out = failover::run(&cfg, h.cap());

    header(&format!(
        "Failure sweep — {updates} updates, {players} players, {} link flaps + RP crash/restart, loss {:?}",
        cfg.flaps, cfg.loss_rates
    ));
    println!(
        "{:<18} {:>6} {:>9} {:>11} {:>9} {:>10} {:>7} {:>12}",
        "run", "loss", "ratio", "post-repair", "recovery", "lost", "resubs", "latency (ms)"
    );
    for r in &out.rows {
        println!("{}", r.row());
    }

    header("Shape check");
    if let Some(g0) = out
        .rows
        .iter()
        .find(|r| r.label.starts_with("gcopss") && r.loss == 0.0)
    {
        println!(
            "gcopss loss-free: post-repair ratio {:.4} (expect 1.0), {} RP failover(s), {} resubscribe(s)",
            g0.post_repair_ratio, g0.rp_failovers, g0.resubscribes
        );
    }
    for sys in ["gcopss", "ip", "ndn"] {
        let mut prev = f64::INFINITY;
        for r in out.rows.iter().filter(|r| r.label.starts_with(sys)) {
            assert!(
                r.delivery_ratio <= prev + 0.05,
                "{}: delivery ratio should not rise with loss",
                r.label
            );
            prev = r.delivery_ratio;
        }
    }

    h.finish();
}
