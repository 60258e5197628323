//! Overload sweep: offered load 0.5×–4× of aggregate RP service capacity
//! across G-COPSS (unbounded / drop-tail / AQM+priority queues with
//! congestion-feedback rate adaptation) and the IP and NDN baselines,
//! with per-class drop accounting and a delivery audit on the managed
//! G-COPSS runs.

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::drops;
use gcopss_core::experiments::overload::{self, OverloadSweepConfig, QueueRegime};
use gcopss_core::experiments::WorkloadParams;
use gcopss_sim::{SimDuration, TimeSeriesConfig};

pub fn run(opts: ExpOptions) {
    // Twenty runs (4 loads × 5 system/regime combinations); sample the
    // journal to bound the merged document.
    let mut h = ExpHarness::new("exp_overload", opts)
        .with_sampled_capture()
        .with_timeseries(TimeSeriesConfig {
            tick: SimDuration::from_millis(500),
            counters: vec![
                "delivered",
                "drop",
                drops::QUEUE_FULL,
                drops::AQM_SHED,
                drops::STALE_SUPERSEDED,
                drops::RATE_LIMITED,
                "mark",
            ],
            ..TimeSeriesConfig::default()
        });
    let updates = h.opts.scaled(6_000, 20_000);
    let players = h.opts.scaled(80, 120);
    let cfg = OverloadSweepConfig {
        workload: WorkloadParams {
            seed: h.opts.seed,
            updates,
            players,
            ..WorkloadParams::default()
        },
        ..OverloadSweepConfig::default()
    };
    let out = overload::run(&cfg, h.cap());

    header(&format!(
        "Overload sweep — {updates} updates, {players} players, loads {:?} × capacity ({} µs interarrival at 1×)",
        cfg.loads,
        overload::CAPACITY_INTERARRIVAL.as_nanos() / 1_000
    ));
    println!(
        "{:<22} {:>4} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>7} {:>8} {:>7}",
        "run", "load", "ratio", "ctl", "p50 (ms)", "p99 (ms)", "qfull", "aqm", "stale", "paced", "marks"
    );
    for r in &out.rows {
        println!("{}", r.row());
    }
    for r in &out.rows {
        if let Some((_, fp)) = &r.audit {
            println!("audit {:<22} clean={:?} span-fingerprint {fp:016x}", r.label, r.audit_clean);
        }
    }

    header("Shape check");
    let top = cfg.loads.iter().copied().fold(f64::MIN, f64::max);
    let find = |regime: QueueRegime| {
        out.rows
            .iter()
            .find(|r| r.system == "gcopss" && r.regime == regime && r.load == top)
            .expect("top-load gcopss row")
    };
    let aqm = find(QueueRegime::Aqm);
    let tail = find(QueueRegime::DropTail);
    println!(
        "gcopss at {top}x: ctl survival aqm {:.4} vs droptail {:.4}; sheds aqm {} / droptail {}",
        aqm.ctl_ratio,
        tail.ctl_ratio,
        aqm.queue_full + aqm.aqm_shed + aqm.stale_superseded + aqm.rate_limited,
        tail.queue_full,
    );
    assert!(
        aqm.ctl_ratio >= 0.99,
        "AQM+priority control survival {} < 0.99 at {top}x",
        aqm.ctl_ratio
    );
    assert!(
        aqm.ctl_ratio >= tail.ctl_ratio,
        "priority shedding did not protect control: {} < {}",
        aqm.ctl_ratio,
        tail.ctl_ratio
    );
    for r in &out.rows {
        if r.regime == QueueRegime::Unbounded {
            assert_eq!(
                r.queue_full + r.aqm_shed + r.stale_superseded + r.marks,
                0,
                "{}: unbounded regime shed or marked",
                r.label
            );
        }
        if let Some(clean) = r.audit_clean {
            assert!(clean, "{}: delivery audit not clean", r.label);
        }
    }

    h.finish();
}
