//! Fig. 4: microbenchmark update-latency CDFs of G-COPSS, NDN and the IP
//! server on the 6-router testbed.
//!
//! Paper reference points: G-COPSS mean 8.51 ms (all < 55 ms); IP server
//! mean 25.52 ms with a tail beyond 55 ms; NDN mean > 12 s.

use crate::{gb, header, ExpHarness, ExpOptions};
use gcopss_core::experiments::microbench::{self, MicrobenchConfig};
use gcopss_sim::{SimDuration, TelemetryConfig};

pub fn run(opts: ExpOptions) {
    let mut h = ExpHarness::new("fig4", opts).with_capture(TelemetryConfig::default());
    let secs = h.opts.scaled(10, 60) as u64;
    let seed = h.opts.seed;
    let out = microbench::run(
        &MicrobenchConfig {
            seed,
            duration: SimDuration::from_secs(secs),
        },
        h.cap(),
    );

    header(&format!(
        "Fig. 4 — update latency (testbed, 62 players, {secs}s trace)"
    ));
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "system", "mean (ms)", "max (ms)", ">55ms", "delivered", "load (GB)"
    );
    for s in [&out.gcopss, &out.ip, &out.ndn] {
        println!(
            "{:<10} {:>12.2} {:>12.1} {:>9.1}% {:>10} {:>10.4}",
            s.run.label,
            s.run.mean_latency.as_millis_f64(),
            s.run.max_latency.as_millis_f64(),
            s.frac_over_55ms * 100.0,
            s.run.delivered,
            gb(s.run.network_bytes),
        );
    }

    header("CDF (latency ms @ cumulative fraction)");
    println!("{:>6} {:>12} {:>12} {:>12}", "frac", "G-COPSS", "IP", "NDN");
    let idx = |c: &[(f64, f64)], f: f64| {
        c.iter()
            .find(|(_, frac)| *frac >= f)
            .map_or(f64::NAN, |(ms, _)| *ms)
    };
    for f in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        println!(
            "{:>6.2} {:>12.2} {:>12.2} {:>12.2}",
            f,
            idx(&out.gcopss.cdf, f),
            idx(&out.ip.cdf, f),
            idx(&out.ndn.cdf, f),
        );
    }

    header("Shape check (paper: G-COPSS ~3x better than IP; NDN ~3 orders worse)");
    let g = out.gcopss.run.mean_latency.as_millis_f64();
    let i = out.ip.run.mean_latency.as_millis_f64();
    let n = out.ndn.run.mean_latency.as_millis_f64();
    println!("IP/G-COPSS mean ratio  = {:.2}x (paper ~3x)", i / g);
    println!("NDN/G-COPSS mean ratio = {:.0}x (paper ~1400x)", n / g);

    h.finish();
}
