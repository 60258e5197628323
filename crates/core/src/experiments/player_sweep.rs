//! Fig. 6: response latency and aggregate network load as the number of
//! players grows, with 3 RPs vs 3 servers.

use gcopss_sim::{SimDuration, Simulator};

use crate::scenario::NetworkSpec;

use super::rp_sweep::{self, ip_servers};
use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// Mean inter-arrival at the 414-player reference point; scaled inversely
/// with the player count so the per-player rate is constant.
const REFERENCE_INTERARRIVAL: SimDuration = SimDuration::from_micros(2_400);
/// RPs for the G-COPSS series / servers for the IP series (paper: 3).
const CORES: usize = 3;

/// Configuration of the player sweep.
#[derive(Debug, Clone)]
pub struct PlayerSweepConfig {
    /// Master seed.
    pub seed: u64,
    /// Player counts to evaluate (paper: 50 … 400).
    pub player_counts: Vec<usize>,
    /// Updates generated per player (total updates scale with players, so
    /// the aggregate rate grows — the source of the server knee).
    pub updates_per_player: usize,
}

impl Default for PlayerSweepConfig {
    fn default() -> Self {
        Self {
            seed: 3,
            player_counts: vec![50, 100, 150, 200, 250, 300, 350, 400],
            updates_per_player: 120,
        }
    }
}

/// One point of the Fig. 6 series.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Number of players.
    pub players: usize,
    /// The run.
    pub run: RunSummary,
}

/// The sweep output: one series per system.
#[derive(Debug, Clone)]
pub struct PlayerSweepOutput {
    /// G-COPSS (3 RPs) points.
    pub gcopss: Vec<SweepPoint>,
    /// IP server (3 servers) points.
    pub ip: Vec<SweepPoint>,
}

/// Runs the sweep, harvesting one telemetry report per run when `cap` is
/// on.
#[must_use]
pub fn run(cfg: &PlayerSweepConfig, cap: &mut TelemetryCapture) -> PlayerSweepOutput {
    let net = NetworkSpec::default_backbone(NET_SEED);
    let mut gcopss = Vec::new();
    let mut ip = Vec::new();
    for &n in &cfg.player_counts {
        // Constant per-player rate: aggregate inter-arrival shrinks as the
        // population grows.
        let interarrival =
            SimDuration::from_nanos(REFERENCE_INTERARRIVAL.as_nanos() * 414 / n.max(1) as u64);
        let w = Workload::counter_strike(&WorkloadParams {
            seed: cfg.seed,
            players: n,
            updates: cfg.updates_per_player * n,
            mean_interarrival: interarrival,
        });
        let spec = w.spec(&net).protocol(rp_sweep::gcopss(CORES, None));
        let sim = cap.run(&format!("gcopss-{n}p"), spec, Simulator::run);
        gcopss.push(SweepPoint {
            players: n,
            run: RunSummary::of(format!("G-COPSS {n}p"), &sim, &w),
        });
        let spec = w.spec(&net).protocol(ip_servers(CORES));
        let sim = cap.run(&format!("ip-{n}p"), spec, Simulator::run);
        ip.push(SweepPoint {
            players: n,
            run: RunSummary::of(format!("IP {n}p"), &sim, &w),
        });
    }
    PlayerSweepOutput { gcopss, ip }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature Fig. 6: the server latency must blow past G-COPSS at the
    /// high end while G-COPSS stays flat-ish.
    #[test]
    fn mini_sweep_shows_server_knee() {
        let cfg = PlayerSweepConfig {
            player_counts: vec![60, 300],
            updates_per_player: 25,
            ..PlayerSweepConfig::default()
        };
        let out = run(&cfg, &mut TelemetryCapture::off());
        assert_eq!(out.gcopss.len(), 2);
        assert_eq!(out.ip.len(), 2);

        let g_low = out.gcopss[0].run.mean_latency;
        let g_high = out.gcopss[1].run.mean_latency;
        let i_high = out.ip[1].run.mean_latency;

        // At 300 players (per-player rate constant, so ~5x the load of 60),
        // the 3 servers are past their knee while G-COPSS is not.
        assert!(
            i_high > g_high * 2,
            "servers ({i_high}) should trail G-COPSS ({g_high})"
        );
        // G-COPSS latency grows sub-linearly with players.
        assert!(
            g_high < g_low * 20,
            "G-COPSS should stay in the same regime ({g_low} -> {g_high})"
        );
    }
}
