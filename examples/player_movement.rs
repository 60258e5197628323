//! Player movement and snapshot dissemination (§IV-A): players teleport
//! between areas; brokers ship them the snapshot of everything that just
//! became visible, via query/response or cyclic multicast.
//!
//! ```text
//! cargo run --release --example player_movement
//! ```

use gcopss::core::broker::SnapshotMode;
use gcopss::core::experiments::movement::{run_mode, MovementConfig};
use gcopss::core::experiments::{TelemetryCapture, Workload, WorkloadParams};
use gcopss::sim::SimDuration;

fn main() {
    let cfg = MovementConfig {
        workload: WorkloadParams {
            updates: 8_000,
            players: 150,
            ..WorkloadParams::default()
        },
        move_interval: (SimDuration::from_secs(8), SimDuration::from_secs(20)),
        mover_count: 25,
        drain: SimDuration::from_secs(120),
    };

    // One workload (and its end-of-trace object sizes) under every mode.
    let w = Workload::counter_strike(&cfg.workload);
    let objects = w.converged_objects();

    for mode in [
        SnapshotMode::QueryResponse { window: 5 },
        SnapshotMode::QueryResponse { window: 15 },
        SnapshotMode::CyclicMulticast,
    ] {
        let out = run_mode(&cfg, &w, &objects, mode, &mut TelemetryCapture::off());
        println!("\n--- {} ---", out.label);
        println!(
            "{} moves completed; broker served {} snapshot objects",
            out.moves, out.broker_served
        );
        for r in &out.rows {
            if r.count == 0 {
                continue;
            }
            println!(
                "  {:<36} n={:<4} {:>5.1} leaf CDs  conv {:>8.1} ms (+/-{:.1})",
                r.move_type.label(),
                r.count,
                r.leaf_cds,
                r.mean.as_millis_f64(),
                r.ci95.as_millis_f64()
            );
        }
        println!(
            "  total convergence {:.1} ms; snapshot payload {:.2} MB; network {:.2} MB",
            out.total_mean.as_millis_f64(),
            out.snapshot_bytes as f64 / 1e6,
            out.network_bytes as f64 / 1e6
        );
    }
}
