//! Hot spots and automatic RP balancing (§IV-B): start with a single
//! overloaded Rendezvous Point and watch G-COPSS split its CDs onto new
//! RPs until the queueing clears — the paper's Fig. 5c in miniature.
//!
//! ```text
//! cargo run --release --example hotspot_rebalancing
//! ```

use gcopss::core::experiments::{RunSummary, TelemetryCapture, Workload, WorkloadParams};
use gcopss::core::scenario::{GcopssConfig, NetworkSpec};
use gcopss::core::SimParams;
use gcopss::sim::Simulator;

fn main() {
    let w = Workload::counter_strike(&WorkloadParams {
        updates: 12_000,
        ..WorkloadParams::default()
    });
    let net = NetworkSpec::default_backbone(7);
    let gcopss = |rp_count, params| {
        let spec = w.spec(&net).gcopss(GcopssConfig {
            params,
            rp_count,
            ..GcopssConfig::default()
        });
        let sim = TelemetryCapture::off().run("", spec, Simulator::run);
        let run = RunSummary::of(String::new(), &sim, &w);
        (run, sim.world().splits.clone())
    };

    println!("one RP, no balancing: every publication funnels through a single core router...");
    let (run, _) = gcopss(1, SimParams::default());
    println!(
        "  mean latency {:.0} ms, max {:.0} ms  <- traffic concentration",
        run.mean_latency.as_millis_f64(),
        run.max_latency.as_millis_f64()
    );

    println!("\nsame workload with automatic balancing (queue threshold 50):");
    let balanced = SimParams::default().with_auto_balancing(50);
    let (run, splits) = gcopss(1, balanced);
    println!(
        "  mean latency {:.0} ms, max {:.0} ms",
        run.mean_latency.as_millis_f64(),
        run.max_latency.as_millis_f64()
    );
    println!("  splits performed: {}", splits.len());
    for s in &splits {
        println!(
            "    t={:.2}s rp{} -> new rp{} moved {:?}",
            s.at.as_secs_f64(),
            s.from_rp,
            s.to_rp,
            s.moved.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    println!("\nfor comparison, a manually provisioned 3-RP deployment:");
    let (run, _) = gcopss(3, SimParams::default());
    println!(
        "  mean latency {:.0} ms (the paper: auto-balancing converges close to this)",
        run.mean_latency.as_millis_f64()
    );
}
