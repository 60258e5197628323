//! A Counter-Strike-like session at scale: 414 players on a Rocketfuel-like
//! backbone, comparing G-COPSS (3 RPs) against the IP client/server
//! baseline on the same trace — a miniature of the paper's §V-B headline.
//!
//! ```text
//! cargo run --release --example counterstrike_sim [updates]
//! ```

use gcopss::core::experiments::rp_sweep::run_once;
use gcopss::core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss::core::scenario::{GcopssConfig, IpConfig, NetworkSpec, Protocol};

fn main() {
    let updates: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    println!("generating a {updates}-update Counter-Strike-like trace (414 players)...");
    let w = Workload::counter_strike(&WorkloadParams {
        updates,
        ..WorkloadParams::default()
    });
    let span = w.span().as_secs_f64();
    println!(
        "trace spans {span:.1}s of game time; mean inter-arrival {:.2} ms",
        span * 1e3 / updates as f64
    );

    let net = NetworkSpec::default_backbone(7);
    let off = &mut TelemetryCapture::off();

    println!("\nrunning G-COPSS with 3 RPs...");
    let gcopss = Protocol::Gcopss(GcopssConfig {
        rp_count: 3,
        ..GcopssConfig::default()
    });
    let sim = run_once(&w, &net, gcopss, off, "");
    let (world, bytes) = (sim.world(), sim.total_link_bytes());
    println!(
        "  G-COPSS : mean latency {:>10.2} ms, load {:>8.3} GB, {} deliveries",
        world.metrics.stats().mean().as_millis_f64(),
        bytes as f64 / 1e9,
        world.metrics.delivered()
    );
    let g_lat = world.metrics.stats().mean();
    let g_load = bytes;

    println!("running the IP server baseline with 3 servers...");
    let ip = Protocol::IpServer(IpConfig {
        server_count: 3,
        ..IpConfig::default()
    });
    let sim = run_once(&w, &net, ip, off, "");
    let (world, bytes) = (sim.world(), sim.total_link_bytes());
    println!(
        "  IP x3   : mean latency {:>10.2} ms, load {:>8.3} GB, {} deliveries",
        world.metrics.stats().mean().as_millis_f64(),
        bytes as f64 / 1e9,
        world.metrics.delivered()
    );

    println!(
        "\nG-COPSS advantage: {:.1}x lower latency, {:.2}x lower network load",
        world.metrics.stats().mean().as_millis_f64() / g_lat.as_millis_f64().max(1e-9),
        bytes as f64 / g_load.max(1) as f64
    );
}
