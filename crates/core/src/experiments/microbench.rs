//! Fig. 4: microbenchmark latency CDFs of G-COPSS, the NDN baseline, and
//! the IP server, on the 6-router testbed with 62 players.

use gcopss_sim::{SimDuration, SimTime, Simulator};

use crate::scenario::{GcopssConfig, IpConfig, NdnBaselineConfig, NetworkSpec, Protocol, WARMUP};
use crate::{GPacket, GameWorld, MetricsMode, SimParams};

use super::{RunSummary, TelemetryCapture, Workload};

/// Configuration of the microbenchmark (paper defaults: 1 minute, 12,440
/// events; scale `duration` down for quick runs).
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// Workload seed.
    pub seed: u64,
    /// Trace duration (paper: 60 s).
    pub duration: SimDuration,
}

/// CDF resolution.
const CDF_POINTS: usize = 100;

impl Default for MicrobenchConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            duration: SimDuration::from_secs(60),
        }
    }
}

/// One system's microbenchmark result.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// The run.
    pub run: RunSummary,
    /// Latency CDF `(ms, cumulative fraction)`.
    pub cdf: Vec<(f64, f64)>,
    /// Fraction of deliveries above 55 ms (the paper's tail remark).
    pub frac_over_55ms: f64,
}

/// The full Fig. 4 output.
#[derive(Debug, Clone)]
pub struct MicrobenchOutput {
    /// G-COPSS on the testbed (1 RP at R1).
    pub gcopss: SystemResult,
    /// The IP server baseline (1 server at R1).
    pub ip: SystemResult,
    /// The VoCCN-style NDN baseline.
    pub ndn: SystemResult,
}

fn system_result(label: &str, sim: Simulator<GPacket, GameWorld>, w: &Workload) -> SystemResult {
    let run = RunSummary::of(label.to_string(), &sim, w);
    let mut world = sim.into_world();
    let over = 1.0
        - world
            .metrics
            .samples_mut()
            .fraction_at_most(SimDuration::from_millis(55));
    let cdf = world
        .metrics
        .samples_mut()
        .cdf(CDF_POINTS)
        .into_iter()
        .map(|(d, f)| (d.as_millis_f64(), f))
        .collect();
    SystemResult {
        run,
        cdf,
        frac_over_55ms: over,
    }
}

/// Runs all three systems on the testbed and returns their CDFs,
/// harvesting one telemetry report per system run when `cap` is on.
#[must_use]
pub fn run(cfg: &MicrobenchConfig, cap: &mut TelemetryCapture) -> MicrobenchOutput {
    let w = Workload::microbenchmark(cfg.seed, cfg.duration);
    let net = NetworkSpec::Testbed;
    let params = SimParams::microbenchmark();
    // One RP and one server, both at R1 as in the paper's testbed; the NDN
    // baseline keeps the paper's pipelining window of 3 and 100 ms
    // accumulation interval.
    let gcopss = GcopssConfig {
        params: params.clone(),
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let ip = IpConfig {
        params: params.clone(),
        server_count: 1,
        ..IpConfig::default()
    };
    let ndn = NdnBaselineConfig {
        params,
        ..NdnBaselineConfig::default()
    };
    let horizon = SimTime::ZERO + WARMUP + cfg.duration + SimDuration::from_secs(120);

    let [gcopss, ip, ndn] = [
        ("gcopss", "G-COPSS", Protocol::Gcopss(gcopss)),
        ("ip", "IP server", Protocol::IpServer(ip)),
        ("ndn", "NDN", Protocol::NdnBaseline(ndn)),
    ]
    .map(|(label, row, protocol)| {
        // NDN consumers poll forever, so that run stops at a horizon; the
        // other two run to quiescence.
        let polls = matches!(protocol, Protocol::NdnBaseline(_));
        // Every system keeps every latency sample: the CDFs need them.
        let spec = w
            .spec(&net)
            .protocol(protocol)
            .metrics_mode(MetricsMode::Full);
        let sim = cap.run(label, spec, |sim| {
            if polls {
                sim.run_until(horizon);
            } else {
                sim.run();
            }
        });
        system_result(row, sim, &w)
    });
    MicrobenchOutput { gcopss, ip, ndn }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature Fig. 4: the qualitative ordering must hold.
    #[test]
    fn mini_microbench_ordering() {
        let cfg = MicrobenchConfig {
            duration: SimDuration::from_secs(4),
            ..MicrobenchConfig::default()
        };
        let out = run(&cfg, &mut TelemetryCapture::off());
        let g = out.gcopss.run.mean_latency;
        let i = out.ip.run.mean_latency;
        let n = out.ndn.run.mean_latency;
        assert!(g < i, "G-COPSS ({g}) must beat IP ({i})");
        assert!(i < n, "IP ({i}) must beat NDN ({n})");
        // Queueing at the melted-down NDN routers builds with trace length;
        // even this short run must show an order of magnitude vs G-COPSS.
        assert!(n > g * 10, "NDN should melt down ({n} vs G-COPSS {g})");
        // CDFs are monotone and end at 1.0.
        for s in [&out.gcopss, &out.ip, &out.ndn] {
            assert!(!s.cdf.is_empty(), "{}", s.run.label);
            assert!((s.cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
        // G-COPSS delivered everything it should.
        assert!(out.gcopss.run.delivered > 0);
    }
}
