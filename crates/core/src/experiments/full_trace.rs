//! Table II: the whole event trace on IP (6 servers), G-COPSS (6 RPs) and
//! hybrid-G-COPSS (6 IP multicast groups), when there is no congestion.

use gcopss_sim::Simulator;

use crate::scenario::{HybridConfig, NetworkSpec, ScenarioSpec};
use crate::MetricsMode;

use super::rp_sweep::{run_gcopss_once, run_ip_once, summarize};
use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// RPs / servers / IP multicast groups (paper: 6 of each).
const CORES: usize = 6;

/// Table II output: one row per system.
#[derive(Debug, Clone)]
pub struct FullTraceOutput {
    /// `IP Server` row.
    pub ip: RunSummary,
    /// `G-COPSS` row.
    pub gcopss: RunSummary,
    /// `hybrid-G-COPSS` row.
    pub hybrid: RunSummary,
}

/// Runs the three systems over the same workload; the paper uses the full
/// 1,686,905-update trace — set `updates` accordingly, or smaller for quick
/// runs. Harvests one telemetry report per system run when `cap` is on.
#[must_use]
pub fn run(workload: &WorkloadParams, cap: &mut TelemetryCapture) -> FullTraceOutput {
    let w = Workload::counter_strike(workload);
    let net = NetworkSpec::default_backbone(NET_SEED);

    let (world, bytes) = run_ip_once(&w, &net, CORES, MetricsMode::StatsOnly, cap, "ip");
    let ip = summarize(format!("IP server x{CORES}"), &world, bytes);

    let (world, bytes) =
        run_gcopss_once(&w, &net, CORES, None, MetricsMode::StatsOnly, cap, "gcopss");
    let gcopss = summarize(format!("G-COPSS {CORES} RPs"), &world, bytes);

    let hybrid = {
        let c = HybridConfig {
            metrics_mode: MetricsMode::StatsOnly,
            group_count: CORES as u32,
            ..HybridConfig::default()
        };
        let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
            .hybrid(c)
            .build()
            .into_hybrid();
        cap.observe(&mut built.sim, "hybrid", Simulator::run);
        let bytes = built.sim.total_link_bytes();
        summarize(
            format!("hybrid-G-COPSS {CORES} groups"),
            &built.sim.into_world(),
            bytes,
        )
    };

    FullTraceOutput { ip, gcopss, hybrid }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature Table II: the paper's two orderings must hold —
    /// latency: hybrid ≤ G-COPSS < IP; load: G-COPSS < hybrid < IP.
    #[test]
    fn mini_full_trace_orderings() {
        let workload = WorkloadParams {
            updates: 6_000,
            players: 150,
            ..WorkloadParams::default()
        };
        let out = run(&workload, &mut TelemetryCapture::off());
        // Latency: hybrid best (fast IP core, no RP detour), IP worst.
        assert!(
            out.hybrid.mean_latency <= out.gcopss.mean_latency,
            "hybrid {} vs gcopss {}",
            out.hybrid.mean_latency,
            out.gcopss.mean_latency
        );
        assert!(
            out.gcopss.mean_latency < out.ip.mean_latency,
            "gcopss {} vs ip {}",
            out.gcopss.mean_latency,
            out.ip.mean_latency
        );
        // Network load: G-COPSS least, hybrid in between, IP most.
        assert!(
            out.gcopss.network_bytes < out.hybrid.network_bytes,
            "gcopss {} vs hybrid {}",
            out.gcopss.network_bytes,
            out.hybrid.network_bytes
        );
        assert!(
            out.hybrid.network_bytes < out.ip.network_bytes,
            "hybrid {} vs ip {}",
            out.hybrid.network_bytes,
            out.ip.network_bytes
        );
    }
}
