//! A Counter-Strike-like session at scale: 414 players on a Rocketfuel-like
//! backbone, comparing G-COPSS (3 RPs) against the IP client/server
//! baseline on the same trace — a miniature of the paper's §V-B headline.
//!
//! ```text
//! cargo run --release --example counterstrike_sim [updates]
//! ```

use gcopss::core::experiments::{RunSummary, TelemetryCapture, Workload, WorkloadParams};
use gcopss::core::scenario::{GcopssConfig, IpConfig, NetworkSpec, Protocol};
use gcopss::sim::Simulator;

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
    let run = |protocol| {
        let sim = TelemetryCapture::off().run("", w.spec(&net).protocol(protocol), Simulator::run);
        RunSummary::of(String::new(), &sim, &w)
    };
    let print = |name: &str, r: &RunSummary| {
        println!(
            "  {name:<8}: mean latency {:>10.2} ms, load {:>8.3} GB, {} deliveries",
            r.mean_latency.as_millis_f64(),
            r.network_gb(),
            r.delivered
        );
    };

    println!("\nrunning G-COPSS with 3 RPs...");
    let g = run(Protocol::Gcopss(GcopssConfig {
        rp_count: 3,
        ..GcopssConfig::default()
    }));
    print("G-COPSS", &g);

    println!("running the IP server baseline with 3 servers...");
    let i = run(Protocol::IpServer(IpConfig {
        server_count: 3,
        ..IpConfig::default()
    }));
    print("IP x3", &i);

    println!(
        "\nG-COPSS advantage: {:.1}x lower latency, {:.2}x lower network load",
        i.mean_latency.as_millis_f64() / g.mean_latency.as_millis_f64().max(1e-9),
        i.network_bytes as f64 / g.network_bytes.max(1) as f64
    );
}
