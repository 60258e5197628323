//! Hot spots and automatic RP balancing (§IV-B): start with a single
//! overloaded Rendezvous Point and watch G-COPSS split its CDs onto new
//! RPs until the queueing clears — the paper's Fig. 5c in miniature.
//!
//! ```text
//! cargo run --release --example hotspot_rebalancing
//! ```

use gcopss::core::experiments::rp_sweep::run_once;
use gcopss::core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss::core::scenario::{GcopssConfig, NetworkSpec, Protocol};
use gcopss::core::SimParams;

fn main() {
    let w = Workload::counter_strike(&WorkloadParams {
        updates: 12_000,
        ..WorkloadParams::default()
    });
    let net = NetworkSpec::default_backbone(7);
    let off = &mut TelemetryCapture::off();
    let gcopss = |rp_count, params| {
        Protocol::Gcopss(GcopssConfig {
            params,
            rp_count,
            ..GcopssConfig::default()
        })
    };

    println!("one RP, no balancing: every publication funnels through a single core router...");
    let sim = run_once(&w, &net, gcopss(1, SimParams::default()), off, "");
    let world = sim.world();
    println!(
        "  mean latency {:.0} ms, max {:.0} ms  <- traffic concentration",
        world.metrics.stats().mean().as_millis_f64(),
        world
            .metrics
            .stats()
            .max()
            .map_or(0.0, |d| d.as_millis_f64())
    );

    println!("\nsame workload with automatic balancing (queue threshold 50):");
    let balanced = SimParams::default().with_auto_balancing(50);
    let sim = run_once(&w, &net, gcopss(1, balanced), off, "");
    let world = sim.world();
    println!(
        "  mean latency {:.0} ms, max {:.0} ms",
        world.metrics.stats().mean().as_millis_f64(),
        world
            .metrics
            .stats()
            .max()
            .map_or(0.0, |d| d.as_millis_f64())
    );
    println!("  splits performed: {}", world.splits.len());
    for s in &world.splits {
        println!(
            "    t={:.2}s rp{} -> new rp{} moved {:?}",
            s.at.as_secs_f64(),
            s.from_rp,
            s.to_rp,
            s.moved.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    println!("\nfor comparison, a manually provisioned 3-RP deployment:");
    let sim = run_once(&w, &net, gcopss(3, SimParams::default()), off, "");
    let world = sim.world();
    println!(
        "  mean latency {:.0} ms (the paper: auto-balancing converges close to this)",
        world.metrics.stats().mean().as_millis_f64()
    );
}
