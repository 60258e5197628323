//! Table I and Fig. 5: update latency and network load with different
//! numbers of RPs/servers, congestion timelines, and automatic RP
//! balancing.

use gcopss_sim::{SimDuration, Simulator};

use crate::scenario::{GcopssConfig, IpConfig, NetworkSpec, Protocol};
use crate::{GPacket, GameWorld, MetricsMode, SimParams, SplitRecord};

use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// RP queue-length threshold that triggers a split in the auto row.
const AUTO_THRESHOLD: usize = 50;

/// Configuration of the RP/server sweep.
#[derive(Debug, Clone)]
pub struct RpSweepConfig {
    /// Workload (Table I uses the first 100,000 trace updates).
    pub workload: WorkloadParams,
    /// RP counts for the G-COPSS rows (paper: 1, 2, 3, 6).
    pub rp_counts: Vec<usize>,
    /// Include the automatic-balancing row (starts from 1 RP).
    pub include_auto: bool,
    /// Server counts for the IP rows (paper: 1, 2, 3, 6).
    pub server_counts: Vec<usize>,
    /// Capture downsampled per-publication latency series (Fig. 5) for the
    /// interesting G-COPSS runs (2 RPs, 3 RPs, auto).
    pub fig5_detail: bool,
    /// Max points per Fig. 5 series after downsampling.
    pub fig5_points: usize,
}

impl Default for RpSweepConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadParams::default(),
            rp_counts: vec![1, 2, 3, 6],
            include_auto: true,
            server_counts: vec![1, 2, 3, 6],
            fig5_detail: true,
            fig5_points: 400,
        }
    }
}

/// One Fig. 5 series: per-publication (id, min, mean, max) latency in ms.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Series {
    /// Run label (e.g. `gcopss-2rp`).
    pub label: String,
    /// Downsampled `(publication id, min ms, mean ms, max ms)` points.
    pub points: Vec<(u64, f64, f64, f64)>,
}

/// The sweep's full output.
#[derive(Debug, Clone)]
pub struct RpSweepOutput {
    /// G-COPSS rows of Table I (one per RP count, plus `auto`).
    pub gcopss_rows: Vec<RunSummary>,
    /// IP-server rows of Table I.
    pub server_rows: Vec<RunSummary>,
    /// Fig. 5 latency timelines.
    pub fig5: Vec<Fig5Series>,
    /// The automatic splits that occurred in the auto run (Fig. 5c shows
    /// two).
    pub auto_splits: Vec<SplitRecord>,
}

/// Every `⌈len / max⌉`-th row, row 0 first: at most `max` points.
fn downsample(
    rows: &[(u64, SimDuration, SimDuration, SimDuration)],
    max: usize,
) -> Vec<(u64, f64, f64, f64)> {
    let step = rows.len().div_ceil(max.max(1)).max(1);
    rows.iter()
        .step_by(step)
        .map(|&(id, min, mean, max)| {
            (
                id,
                min.as_millis_f64(),
                mean.as_millis_f64(),
                max.as_millis_f64(),
            )
        })
        .collect()
}

/// G-COPSS with `rp_count` initial RPs, splitting automatically past
/// `auto_threshold` queued packets when one is given.
pub(crate) fn gcopss(rp_count: usize, auto_threshold: Option<usize>) -> Protocol {
    let mut params = SimParams::default();
    if let Some(t) = auto_threshold {
        params = params.with_auto_balancing(t);
    }
    Protocol::Gcopss(GcopssConfig {
        params,
        rp_count,
        ..GcopssConfig::default()
    })
}

/// The IP baseline with `server_count` game servers.
pub(crate) fn ip_servers(server_count: usize) -> Protocol {
    Protocol::IpServer(IpConfig {
        server_count,
        ..IpConfig::default()
    })
}

/// Runs the full sweep, harvesting one telemetry report per run when `cap`
/// is on.
#[must_use]
pub fn run(cfg: &RpSweepConfig, cap: &mut TelemetryCapture) -> RpSweepOutput {
    let w = Workload::counter_strike(&cfg.workload);
    let net = NetworkSpec::default_backbone(NET_SEED);
    let fig5_series = |label: &str, sim: &Simulator<GPacket, GameWorld>| Fig5Series {
        label: label.to_string(),
        points: downsample(&sim.world().metrics.per_publication_rows(), cfg.fig5_points),
    };
    // A G-COPSS run with a Fig. 5 series keeps per-publication latencies.
    let gcopss_spec = |rp_count, auto_threshold, detail: bool| {
        let mode = if detail {
            MetricsMode::PerPublication
        } else {
            MetricsMode::StatsOnly
        };
        w.spec(&net)
            .protocol(gcopss(rp_count, auto_threshold))
            .metrics_mode(mode)
    };

    let mut gcopss_rows = Vec::new();
    let mut fig5 = Vec::new();
    for &n in &cfg.rp_counts {
        let want_detail = cfg.fig5_detail && (n == 2 || n == 3);
        let label = format!("gcopss-{n}rp");
        let sim = cap.run(&label, gcopss_spec(n, None, want_detail), Simulator::run);
        gcopss_rows.push(RunSummary::of(format!("G-COPSS {n} RP"), &sim, &w));
        if want_detail {
            fig5.push(fig5_series(&label, &sim));
        }
    }

    let mut auto_splits = Vec::new();
    if cfg.include_auto {
        let label = "gcopss-auto";
        let spec = gcopss_spec(1, Some(AUTO_THRESHOLD), cfg.fig5_detail);
        let sim = cap.run(label, spec, Simulator::run);
        auto_splits = sim.world().splits.clone();
        gcopss_rows.push(RunSummary::of(
            format!("G-COPSS auto ({} splits)", auto_splits.len()),
            &sim,
            &w,
        ));
        if cfg.fig5_detail {
            fig5.push(fig5_series(label, &sim));
        }
    }

    let mut server_rows = Vec::new();
    for &n in &cfg.server_counts {
        let spec = w.spec(&net).protocol(ip_servers(n));
        let sim = cap.run(&format!("ip-{n}srv"), spec, Simulator::run);
        server_rows.push(RunSummary::of(format!("IP server x{n}"), &sim, &w));
    }

    RpSweepOutput {
        gcopss_rows,
        server_rows,
        fig5,
        auto_splits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature Table I: congestion ordering must hold.
    #[test]
    fn mini_sweep_shows_congestion_ordering() {
        let cfg = RpSweepConfig {
            workload: WorkloadParams {
                updates: 4_000,
                players: 120,
                ..WorkloadParams::default()
            },
            rp_counts: vec![1, 3],
            include_auto: false,
            server_counts: vec![1],
            fig5_detail: false,
            ..RpSweepConfig::default()
        };
        let out = run(&cfg, &mut TelemetryCapture::off());
        assert_eq!(out.gcopss_rows.len(), 2);
        assert_eq!(out.server_rows.len(), 1);
        let rp1 = &out.gcopss_rows[0];
        let rp3 = &out.gcopss_rows[1];
        // 1 RP congests under the 2.4 ms inter-arrival (3.3 ms service);
        // 3 RPs must be far faster.
        assert!(
            rp1.mean_latency > rp3.mean_latency * 3,
            "1 RP {} vs 3 RP {}",
            rp1.mean_latency,
            rp3.mean_latency
        );
        // All rows delivered something and moved bytes.
        for r in out.gcopss_rows.iter().chain(&out.server_rows) {
            assert!(r.delivered > 0, "{}", r.label);
            assert!(r.network_bytes > 0, "{}", r.label);
        }
    }

    #[test]
    fn downsample_keeps_at_most_max_points_from_row_zero() {
        let rows = |n: u64| -> Vec<_> {
            let d = SimDuration::from_millis;
            (0..n).map(|id| (id, d(id), d(id), d(id))).collect()
        };
        for (len, max) in [(1_000, 400), (1_000, 60), (61, 60), (60, 60), (7, 400)] {
            let points = downsample(&rows(len), max);
            assert!(
                points.len() <= max,
                "{len} rows at max {max}: {}",
                points.len()
            );
            assert_eq!(points[0].0, 0, "{len} rows at max {max}: row 0 dropped");
        }
        assert_eq!(downsample(&rows(1_000), 400).len(), 334);
        assert!(downsample(&[], 60).is_empty());
    }
}
