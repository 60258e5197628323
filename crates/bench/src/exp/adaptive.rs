//! Adaptive-control sweep: the streaming metric pipeline drives RP
//! balancing and cache-class selection inside the simulation, ablated
//! against the static policies it replaces — a hotspot trace for the RP
//! arm (off / static threshold / stream-triggered) and a flash crowd for
//! the cache arm (fixed freshness / popularity-promoted).

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::drops;
use gcopss_core::experiments::adaptive::{self, AdaptiveSweepConfig, RpPolicy};
use gcopss_core::experiments::WorkloadParams;
use gcopss_sim::{SimDuration, TimeSeriesConfig};

pub fn run(opts: ExpOptions) {
    // Five runs (3 RP policies + 2 cache policies), all same-seed. The
    // time-series frames carry the new stream values ("streams" key) on
    // the adaptive runs, plus per-RP served counts for the skew plots.
    let mut h = ExpHarness::new("exp_adaptive", opts)
        .with_sampled_capture()
        .with_timeseries(TimeSeriesConfig {
            tick: SimDuration::from_millis(250),
            counters: vec![
                "delivered",
                "drop",
                drops::QUEUE_FULL,
                "cs-hit",
                "cs-miss",
                "rp-move-triggered",
                "cache-class-promotions",
                "broker-qr-served",
            ],
            per_node: vec!["rp-served"],
            ..TimeSeriesConfig::default()
        });
    let updates = h.opts.scaled(8_000, 20_000);
    let players = h.opts.scaled(80, 150);
    let crowd = h.opts.scaled(16, 36);
    let cfg = AdaptiveSweepConfig {
        workload: WorkloadParams {
            seed: h.opts.seed,
            updates,
            players,
            ..WorkloadParams::default()
        },
        crowd_size: crowd,
        drain: if h.opts.full {
            SimDuration::from_secs(15)
        } else {
            SimDuration::from_secs(10)
        },
    };
    let out = adaptive::run(&cfg, h.cap());

    header(&format!(
        "Adaptive RP balancing — {updates} updates, {players} players, hotspot {}/{} of load onto zone {} after {}/{} of the trace, queue cap {}",
        adaptive::HOT_SHARE.0, adaptive::HOT_SHARE.1, adaptive::HOT_TOP, adaptive::HOT_ONSET.0, adaptive::HOT_ONSET.1, adaptive::QUEUE_CAPACITY
    ));
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>8} {:>4} {:>4}",
        "run", "ratio", "p50 (ms)", "p99 (ms)", "qfull", "spl", "trig"
    );
    for r in &out.rp_rows {
        println!("{}", r.row());
        let times: Vec<String> = r
            .split_times
            .iter()
            .map(|t| format!("{:.2}s", t.as_nanos() as f64 / 1e9))
            .collect();
        if !times.is_empty() {
            println!("  splits at {}", times.join(", "));
        }
    }
    for r in &out.rp_rows {
        if let Some((audit, fp)) = &r.audit {
            println!(
                "audit {:<14} clean={:?} span-fingerprint {fp:016x}",
                r.label, r.audit_clean
            );
            if r.audit_clean == Some(false) {
                println!("  {audit}");
            }
        }
    }

    header(&format!(
        "Adaptive cache classes — flash crowd of {crowd} movers into the hot area, QR window {}",
        adaptive::QR_WINDOW
    ));
    println!(
        "{:<16} {:>5} {:>9} {:>8} {:>8} {:>8} {:>4} {:>4}",
        "run", "moves", "conv (ms)", "hitrate", "cs-hit", "broker", "pro", "dem"
    );
    for r in &out.cache_rows {
        println!("{}", r.row());
        if let Some(hot) = r.hot_hit_rate {
            println!("  hot-prefix hit rate (live sketch): {hot:.4}");
        }
    }

    header("Shape check");
    let rp = |p: RpPolicy| {
        out.rp_rows
            .iter()
            .find(|r| r.policy == p)
            .expect("rp row")
    };
    let off = rp(RpPolicy::Off);
    let stat = rp(RpPolicy::Static);
    let adap = rp(RpPolicy::Adaptive);
    let cstat = &out.cache_rows[0];
    let cadap = &out.cache_rows[1];
    println!(
        "rp: delivery {:.4} (adaptive) vs {:.4} (static) vs {:.4} (off); drops {} vs {} vs {}; {} stream-triggered moves",
        adap.delivery_ratio, stat.delivery_ratio, off.delivery_ratio,
        adap.queue_full, stat.queue_full, off.queue_full, adap.triggered
    );
    println!(
        "cache: hit rate {:.4} (adaptive) vs {:.4} (static); broker load {} vs {}; convergence {:.2} ms vs {:.2} ms",
        cadap.hit_rate, cstat.hit_rate, cadap.broker_served, cstat.broker_served,
        cadap.mean_convergence.as_millis_f64(), cstat.mean_convergence.as_millis_f64()
    );
    for r in &out.rp_rows {
        if let Some(clean) = r.audit_clean {
            assert!(clean, "{}: delivery audit not clean", r.label);
        }
    }
    // The headline gates hold at the calibrated scale (and at --full);
    // tiny --scale runs may not saturate the hotspot, so only the audit
    // invariants are asserted there.
    if h.opts.full || h.opts.scale >= 1.0 {
        assert!(adap.triggered > 0, "no stream-triggered move recorded");
        assert!(
            adap.delivery_ratio > stat.delivery_ratio
                && stat.delivery_ratio > off.delivery_ratio,
            "delivery ratios not ordered: adaptive {} / static {} / off {}",
            adap.delivery_ratio,
            stat.delivery_ratio,
            off.delivery_ratio
        );
        assert!(
            adap.queue_full < stat.queue_full,
            "adaptive ({}) did not beat static ({}) on drops",
            adap.queue_full,
            stat.queue_full
        );
        assert!(cadap.promotions > 0, "no cache-class promotion");
        assert!(
            cadap.hit_rate > cstat.hit_rate && cadap.broker_served < cstat.broker_served,
            "adaptive cache did not absorb the crowd: hit {} vs {}, broker {} vs {}",
            cadap.hit_rate,
            cstat.hit_rate,
            cadap.broker_served,
            cstat.broker_served
        );
    }

    h.finish();
}
