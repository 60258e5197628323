//! Ablations of the design choices the paper discusses qualitatively:
//!
//! * the hybrid CD→IP-multicast-group mapping density (§III-D trade-off),
//! * the RP split queue threshold (§IV-B trigger),
//! * the NDN baseline's accumulation interval `t` (§V-A: "if we set t
//!   large enough … saves some bandwidth, but the update latency will be
//!   longer"),
//! * the QR pipelining window (§V-B: "no further benefit for a higher
//!   window size beyond 15").
//!
//! Every sweep harvests one telemetry report per run when its `cap` is on.

use gcopss_sim::{SimDuration, SimTime, Simulator};

use crate::broker::SnapshotMode;
use crate::ndn_baseline::NdnClientConfig;
use crate::scenario::{HybridConfig, NdnBaselineConfig, NetworkSpec, ScenarioSpec, WARMUP};
use crate::{MetricsMode, SimParams};

use super::movement::{run_mode, MovementConfig};
use super::rp_sweep::{run_gcopss_once, summarize};
use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams};

/// Hybrid group-count sweep: fewer groups = more CD sharing = more
/// filtered (wasted) traffic.
#[must_use]
pub fn hybrid_group_sweep(
    workload: &WorkloadParams,
    net_seed: u64,
    group_counts: &[u32],
    cap: &mut TelemetryCapture,
) -> Vec<(u32, RunSummary)> {
    let w = Workload::counter_strike(workload);
    let net = NetworkSpec::default_backbone(net_seed);
    group_counts
        .iter()
        .map(|&g| {
            let cfg = HybridConfig {
                metrics_mode: MetricsMode::StatsOnly,
                group_count: g,
                ..HybridConfig::default()
            };
            let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
                .hybrid(cfg)
                .build()
                .into_hybrid();
            cap.observe(&mut built.sim, &format!("hybrid-{g}g"), Simulator::run);
            let bytes = built.sim.total_link_bytes();
            (
                g,
                summarize(format!("hybrid {g} groups"), &built.sim.into_world(), bytes),
            )
        })
        .collect()
}

/// RP split-threshold sweep under a single initially-overloaded RP:
/// smaller thresholds split earlier (more splits, quicker recovery).
#[must_use]
pub fn split_threshold_sweep(
    workload: &WorkloadParams,
    net_seed: u64,
    thresholds: &[usize],
    cap: &mut TelemetryCapture,
) -> Vec<(usize, usize, RunSummary)> {
    let w = Workload::counter_strike(workload);
    let net = NetworkSpec::default_backbone(net_seed);
    thresholds
        .iter()
        .map(|&t| {
            let label = format!("auto-thr{t}");
            let (world, bytes) =
                run_gcopss_once(&w, &net, 1, Some(t), MetricsMode::StatsOnly, cap, &label);
            let splits = world.splits.len();
            (
                t,
                splits,
                summarize(format!("auto thr={t}"), &world, bytes),
            )
        })
        .collect()
}

/// NDN accumulation-interval sweep: latency/bandwidth trade-off of the
/// VoCCN-style baseline.
#[must_use]
pub fn ndn_accumulation_sweep(
    seed: u64,
    duration: SimDuration,
    intervals: &[SimDuration],
    cap: &mut TelemetryCapture,
) -> Vec<(SimDuration, RunSummary)> {
    let w = Workload::microbenchmark(seed, duration);
    let net = NetworkSpec::Testbed;
    intervals
        .iter()
        .map(|&t| {
            let cfg = NdnBaselineConfig {
                params: SimParams::microbenchmark(),
                metrics_mode: MetricsMode::StatsOnly,
                client: NdnClientConfig {
                    accum_interval: t,
                    ..NdnClientConfig::default()
                },
                ..NdnBaselineConfig::default()
            };
            let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
                .ndn_baseline(cfg)
                .build()
                .into_ndn_baseline();
            let horizon = SimTime::ZERO + WARMUP + duration + SimDuration::from_secs(120);
            let label = format!("ndn-t{:.0}ms", t.as_millis_f64());
            cap.observe(&mut built.sim, &label, |sim| sim.run_until(horizon));
            let bytes = built.sim.total_link_bytes();
            (
                t,
                summarize(
                    format!("ndn t={}ms", t.as_millis_f64()),
                    &built.sim.into_world(),
                    bytes,
                ),
            )
        })
        .collect()
}

/// QR window sweep for snapshot retrieval: converges by window ≈ 15.
#[must_use]
pub fn qr_window_sweep(
    base: &MovementConfig,
    windows: &[u32],
    cap: &mut TelemetryCapture,
) -> Vec<(u32, SimDuration)> {
    windows
        .iter()
        .map(|&win| {
            let out = run_mode(base, SnapshotMode::QueryResponse { window: win }, cap);
            (win, out.total_mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_sweep_monotone_load() {
        let rows = hybrid_group_sweep(
            &WorkloadParams {
                updates: 1_500,
                players: 80,
                ..WorkloadParams::default()
            },
            5,
            &[1, 6],
            &mut TelemetryCapture::off(),
        );
        assert_eq!(rows.len(), 2);
        // 1 group must carry at least as much traffic as 6 groups.
        assert!(rows[0].1.network_bytes > rows[1].1.network_bytes);
    }

    #[test]
    fn split_threshold_sweep_fires() {
        let rows = split_threshold_sweep(
            &WorkloadParams {
                updates: 2_000,
                players: 100,
                ..WorkloadParams::default()
            },
            5,
            &[30],
            &mut TelemetryCapture::off(),
        );
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1 >= 1, "a low threshold must trigger a split");
    }
}
