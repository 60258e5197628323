//! Table II: the whole event trace on IP (6 servers), G-COPSS (6 RPs) and
//! hybrid-G-COPSS (6 IP multicast groups), when there is no congestion.

use crate::scenario::{HybridConfig, NetworkSpec, Protocol};
use crate::MetricsMode;

use super::rp_sweep::{self, ip_servers, run_once, summarize};
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

    let hybrid = Protocol::Hybrid(HybridConfig {
        group_count: CORES as u32,
        ..HybridConfig::default()
    });
    let [ip, gcopss, hybrid] = [
        ("ip", format!("IP server x{CORES}"), ip_servers(CORES)),
        (
            "gcopss",
            format!("G-COPSS {CORES} RPs"),
            rp_sweep::gcopss(CORES, None, MetricsMode::StatsOnly),
        ),
        ("hybrid", format!("hybrid-G-COPSS {CORES} groups"), hybrid),
    ]
    .map(|(label, row, protocol)| summarize(row, &run_once(&w, &net, protocol, cap, label)));

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
