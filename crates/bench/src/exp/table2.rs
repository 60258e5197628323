//! Table II: the full event trace on IP (6 servers), G-COPSS (6 RPs) and
//! hybrid-G-COPSS (6 IP multicast groups).
//!
//! Paper shape: hybrid has the best latency; load ordering is
//! G-COPSS < hybrid < IP server (IP roughly 2x G-COPSS).

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::full_trace;
use gcopss_core::experiments::WorkloadParams;

pub fn run(opts: ExpOptions) {
    let mut h = ExpHarness::new("table2", opts).with_sampled_capture();
    let updates = h.opts.scaled(60_000, 1_686_905);
    let seed = h.opts.seed;
    let out = full_trace::run(
        &WorkloadParams {
            seed,
            updates,
            ..WorkloadParams::default()
        },
        h.cap(),
    );

    header(&format!(
        "Table II — {updates} updates, 414 players, 6 servers/RPs/groups"
    ));
    println!(
        "{:<28} {:>14} {:>12}",
        "system", "latency (ms)", "load (GB)"
    );
    for r in [&out.ip, &out.gcopss, &out.hybrid] {
        println!("{}", r.row());
    }

    header("Shape check");
    println!(
        "latency: hybrid {:.2} <= gcopss {:.2} < ip {:.2} : {}",
        out.hybrid.mean_latency.as_millis_f64(),
        out.gcopss.mean_latency.as_millis_f64(),
        out.ip.mean_latency.as_millis_f64(),
        out.hybrid.mean_latency <= out.gcopss.mean_latency
            && out.gcopss.mean_latency < out.ip.mean_latency
    );
    println!(
        "load: gcopss {:.3} < hybrid {:.3} < ip {:.3} : {}",
        out.gcopss.network_gb(),
        out.hybrid.network_gb(),
        out.ip.network_gb(),
        out.gcopss.network_bytes < out.hybrid.network_bytes
            && out.hybrid.network_bytes < out.ip.network_bytes
    );
    println!(
        "IP/G-COPSS load ratio = {:.2}x (paper ~2x)",
        out.ip.network_gb() / out.gcopss.network_gb().max(1e-12)
    );

    h.finish();
}
