//! Ablations of the design choices the paper discusses qualitatively:
//!
//! * the hybrid CD→IP-multicast-group mapping density (§III-D trade-off),
//! * the RP split queue threshold (§IV-B trigger),
//! * the NDN baseline's accumulation interval `t` (§V-A: "if we set t
//!   large enough … saves some bandwidth, but the update latency will be
//!   longer"),
//! * the QR pipelining window (§V-B: "no further benefit for a higher
//!   window size beyond 15").

use gcopss_sim::{SimDuration, SimTime, Simulator};

use crate::broker::SnapshotMode;
use crate::ndn_baseline::NdnClientConfig;
use crate::scenario::{HybridConfig, NdnBaselineConfig, NetworkSpec, ScenarioSpec, WARMUP};
use crate::{MetricsMode, SimParams};

use super::movement::{run_mode_with, MovementConfig};
use super::rp_sweep::{run_gcopss_once_with, summarize};
use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams};

/// Hybrid group-count sweep: fewer groups = more CD sharing = more
/// filtered (wasted) traffic.
#[must_use]
pub fn hybrid_group_sweep(
    workload: &WorkloadParams,
    net_seed: u64,
    group_counts: &[u32],
) -> Vec<(u32, RunSummary)> {
    hybrid_group_sweep_with(workload, net_seed, group_counts, None)
}

/// [`hybrid_group_sweep`] with optional telemetry capture.
#[must_use]
pub fn hybrid_group_sweep_with(
    workload: &WorkloadParams,
    net_seed: u64,
    group_counts: &[u32],
    mut telemetry: Option<&mut TelemetryCapture>,
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
            let (cap, label) = (telemetry.as_deref_mut(), format!("hybrid-{g}g"));
            TelemetryCapture::observe(cap, &mut built.sim, &label, Simulator::run);
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
) -> Vec<(usize, usize, RunSummary)> {
    split_threshold_sweep_with(workload, net_seed, thresholds, None)
}

/// [`split_threshold_sweep`] with optional telemetry capture.
#[must_use]
pub fn split_threshold_sweep_with(
    workload: &WorkloadParams,
    net_seed: u64,
    thresholds: &[usize],
    mut telemetry: Option<&mut TelemetryCapture>,
) -> Vec<(usize, usize, RunSummary)> {
    let w = Workload::counter_strike(workload);
    let net = NetworkSpec::default_backbone(net_seed);
    thresholds
        .iter()
        .map(|&t| {
            let label = format!("auto-thr{t}");
            let cap = telemetry.as_mut().map(|c| (&mut **c, label.as_str()));
            let (world, bytes) =
                run_gcopss_once_with(&w, &net, 1, Some(t), MetricsMode::StatsOnly, cap);
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
) -> Vec<(SimDuration, RunSummary)> {
    ndn_accumulation_sweep_with(seed, duration, intervals, None)
}

/// [`ndn_accumulation_sweep`] with optional telemetry capture.
#[must_use]
pub fn ndn_accumulation_sweep_with(
    seed: u64,
    duration: SimDuration,
    intervals: &[SimDuration],
    mut telemetry: Option<&mut TelemetryCapture>,
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
            TelemetryCapture::observe(telemetry.as_deref_mut(), &mut built.sim, &label, |sim| {
                sim.run_until(horizon);
            });
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
) -> Vec<(u32, SimDuration)> {
    qr_window_sweep_with(base, windows, None)
}

/// [`qr_window_sweep`] with optional telemetry capture.
#[must_use]
pub fn qr_window_sweep_with(
    base: &MovementConfig,
    windows: &[u32],
    mut telemetry: Option<&mut TelemetryCapture>,
) -> Vec<(u32, SimDuration)> {
    windows
        .iter()
        .map(|&win| {
            let out = run_mode_with(
                base,
                SnapshotMode::QueryResponse { window: win },
                telemetry.as_deref_mut(),
            );
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
        );
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1 >= 1, "a low threshold must trigger a split");
    }
}
