//! ST match + FIB LPM scaling sweep: per-lookup cost from 1k to 1M
//! subscriptions (10M under `--full`) on the stride-based tree-bitmap
//! paths, against the Bloom-scan baseline.
//!
//! Writes `results/exp_scale.json` (the sweep points). `--full` adds the
//! 10M point — budget several GB of RAM for it.

use crate::{header, write_doc, ExpHarness, ExpOptions};
use gcopss_core::experiments::scale::{self, ScaleParams};
use gcopss_sim::json::{results_doc, Json};

pub fn run(opts: ExpOptions) {
    let h = ExpHarness::new("exp_scale", opts);
    let mut sizes: Vec<usize> = [1_000usize, 10_000, 100_000, 1_000_000]
        .iter()
        .map(|&s| h.opts.scaled(s, s))
        .collect();
    if h.opts.full {
        sizes.push(10_000_000);
    }
    sizes.dedup();
    let params = ScaleParams {
        seed: h.opts.seed,
        sizes,
        ..ScaleParams::default()
    };

    header("ST match + FIB LPM scaling (median ns per lookup)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "entries", "st_match", "st_bloom", "fib_lpm", "st_build", "fib_build"
    );
    let points = scale::run(&params);
    for pt in &points {
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>12.1} {:>9.0}ms {:>9.0}ms",
            pt.entries,
            pt.st_match_ns,
            pt.st_bloom_ns,
            pt.fib_lpm_ns,
            pt.st_build_ms,
            pt.fib_build_ms
        );
    }

    header("Flatness (cost growth across the sweep)");
    let ratio = |f: fn(&scale::ScalePoint) -> f64| {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for pt in &points {
            lo = lo.min(f(pt));
            hi = hi.max(f(pt));
        }
        hi / lo
    };
    let st_ratio = ratio(|p| p.st_match_ns);
    let fib_ratio = ratio(|p| p.fib_lpm_ns);
    println!("st_match  max/min = {st_ratio:.2}x over {}x size growth", size_growth(&points));
    println!("fib_lpm   max/min = {fib_ratio:.2}x over {}x size growth", size_growth(&points));

    let doc = results_doc(
        "gcopss-scale-v2",
        "scale",
        h.opts.seed,
        [(
            "points",
            Json::arr(points.iter().map(|pt| {
                Json::obj([
                    ("entries", Json::UInt(pt.entries as u64)),
                    ("st_match_ns", Json::Float(pt.st_match_ns)),
                    ("st_bloom_ns", Json::Float(pt.st_bloom_ns)),
                    ("fib_lpm_ns", Json::Float(pt.fib_lpm_ns)),
                    ("st_build_ms", Json::Float(pt.st_build_ms)),
                    ("fib_build_ms", Json::Float(pt.fib_build_ms)),
                ])
            })),
        )],
    );
    let path = write_doc(&h.opts.out_dir, "exp_scale.json", &doc).expect("write scale results");
    println!("\nscale sweep written to {path}");
    h.finish();
}

fn size_growth(points: &[scale::ScalePoint]) -> usize {
    let lo = points.iter().map(|p| p.entries).min().unwrap_or(1);
    let hi = points.iter().map(|p| p.entries).max().unwrap_or(1);
    hi / lo.max(1)
}
