//! Overload sweep (`exp_overload`): graceful degradation under offered
//! loads from 0.5× to 4× the infrastructure's service capacity.
//!
//! Every run drives the same synthetic workload shape at a scaled update
//! rate (offered load × the aggregate RP service rate) through one of the
//! evaluated systems, under one of three queue regimes:
//!
//! * **unbounded** — the pre-overload engine: queues grow without limit,
//!   nothing is dropped, latency diverges. The control arm.
//! * **droptail** — bounded FIFO queues with tail rejection and no
//!   priority: overload drops whatever arrives last, control plane
//!   included, so recovery traffic dies exactly when it is needed.
//! * **aqm** — bounded queues with the CoDel-style sojourn AQM, priority
//!   classes (control preempts bulk, stale position updates shed first),
//!   sojourn marking, and client-side multiplicative rate adaptation.
//!
//! The headline numbers are the control-plane survival ratio (the
//! fraction of control-class queue admissions not matched by a
//! control-class overload drop — the AQM+priority regime must hold it at
//! ≈1.0 while drop-tail degrades), the data-plane delivery ratio against
//! the AoI model, latency percentiles, and the per-class drop accounting
//! (`queue-full` / `aqm-shed` / `stale-superseded` / `rate-limited`).
//! G-COPSS AQM runs can additionally be audited end-to-end: with every
//! overload drop recorded on the packet's lineage (source sheds included:
//! `Ctx::shed` gives an unsent publish a root-level drop record), the
//! delivery auditor must explain 100 % of the owed pairs with zero
//! unexplained losses — overload degrades *gracefully*, never *silently*.
//! Every drop count of a row is read off the simulator's one drop ledger.

use gcopss_sim::{AdmissionPolicy, OverloadConfig, SimDuration, SimTime, TelemetryConfig};

use crate::scenario::{GcopssConfig, IpConfig, NdnBaselineConfig, NetworkSpec, Protocol, WARMUP};
use crate::{drops, RecoveryConfig};

use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// The queue regime of one run arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRegime {
    /// Unbounded queues, no overload control (the pre-overload engine).
    Unbounded,
    /// Bounded queues, tail rejection, no priorities, no marking.
    DropTail,
    /// Bounded queues, CoDel-style AQM, priority classes, sojourn marks,
    /// and client rate adaptation where the system's clients support it.
    Aqm,
}

impl QueueRegime {
    /// Stable label fragment.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Unbounded => "unbounded",
            Self::DropTail => "droptail",
            Self::Aqm => "aqm",
        }
    }
}

/// Initial RPs (G-COPSS) and game servers (IP baseline).
const RP_COUNT: usize = 3;
/// The network-wide mean update inter-arrival that saturates the aggregate
/// RP service rate — offered load 1×. From the §V-B calibration,
/// `rp_proc / RP_COUNT`: 3.3 ms RP service / 3 RPs.
pub const CAPACITY_INTERARRIVAL: SimDuration = SimDuration::from_micros(1_100);
/// Bounded queue depth (waiting packets) of the droptail and aqm regimes.
const QUEUE_CAPACITY: usize = 64;
/// CoDel target sojourn (aqm regime). ≈4.5 RP service times: transient
/// bursts at ρ≤0.5 stay under it, a standing queue (ρ>1 pins sojourn at
/// cap × service ≈ 210 ms) overruns it immediately.
const CODEL_TARGET: SimDuration = SimDuration::from_millis(15);
/// CoDel control interval (aqm regime).
const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Sojourn above which delivered packets carry a congestion mark (aqm
/// regime). ≈9 service times: essentially never reached below capacity,
/// saturated above it — marks are an overload signal, not a burst detector.
const MARK_SOJOURN: SimDuration = SimDuration::from_millis(30);
/// Soft-state Subscribe refresh of every system's recovery: real control
/// traffic keeps contending with bulk data *during* overload — which is
/// exactly what the priority lattice must protect (and what plain drop-tail
/// loses).
const SUBSCRIBE_REFRESH: SimDuration = SimDuration::from_millis(200);

/// Configuration of the overload sweep.
#[derive(Debug, Clone)]
pub struct OverloadSweepConfig {
    /// Workload shape (players, updates, seed). `mean_interarrival` is
    /// overridden per run: [`CAPACITY_INTERARRIVAL`] / offered load.
    pub workload: WorkloadParams,
    /// Offered loads as multiples of service capacity (paper-style sweep:
    /// 0.5×, 1×, 2×, 4×).
    pub loads: Vec<f64>,
    /// Extra simulated time after the last trace event before the horizon.
    pub drain: SimDuration,
}

impl Default for OverloadSweepConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadParams {
                players: 120,
                updates: 10_000,
                ..WorkloadParams::default()
            },
            loads: vec![0.5, 1.0, 2.0, 4.0],
            drain: SimDuration::from_secs(10),
        }
    }
}

/// The per-run mean inter-arrival at offered load `load`.
fn interarrival_at(load: f64) -> SimDuration {
    let ns = (CAPACITY_INTERARRIVAL.as_nanos() as f64 / load).round() as u64;
    SimDuration::from_nanos(ns.max(1))
}

/// The engine overload config of one regime: the vacuous default, which
/// installs nothing, for unbounded.
fn engine_config(regime: QueueRegime) -> OverloadConfig {
    match regime {
        QueueRegime::Unbounded => OverloadConfig::default(),
        QueueRegime::DropTail => OverloadConfig {
            queue_capacity: Some(QUEUE_CAPACITY),
            policy: AdmissionPolicy::DropTail,
            priority: false,
            mark_sojourn: None,
        },
        QueueRegime::Aqm => OverloadConfig {
            queue_capacity: Some(QUEUE_CAPACITY),
            policy: AdmissionPolicy::CoDel {
                target: CODEL_TARGET,
                interval: CODEL_INTERVAL,
            },
            priority: true,
            mark_sojourn: Some(MARK_SOJOURN),
        },
    }
}

/// One run's outcome. The per-class drop counts (`queue-full` /
/// `aqm-shed` / `stale-superseded` / `rate-limited`) are the run's
/// [`RunSummary::dropped`].
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// System under test (`"gcopss"`, `"ip"`, `"ndn"`).
    pub system: &'static str,
    /// Queue regime of the run.
    pub regime: QueueRegime,
    /// Offered load as a multiple of service capacity.
    pub load: f64,
    /// Control-class queue admissions, summed over all nodes.
    pub ctl_in: u64,
    /// Control-class overload drops (rejections + evictions).
    pub ctl_drop: u64,
    /// Congestion marks applied at dequeue.
    pub marks: u64,
    /// The run, labelled `gcopss-aqm-x4.0`, …; audited for the managed
    /// G-COPSS runs.
    pub run: RunSummary,
}

impl OverloadRow {
    /// `1 − ctl_drop / (ctl_in + ctl_drop)`: the fraction of control
    /// traffic surviving the queues. ≈1.0 under AQM+priority.
    #[must_use]
    pub fn ctl_ratio(&self) -> f64 {
        let offered = self.ctl_in + self.ctl_drop;
        if offered == 0 {
            1.0
        } else {
            1.0 - self.ctl_drop as f64 / offered as f64
        }
    }

    /// Packets shed by the overload machinery, all three engine reasons.
    #[must_use]
    pub fn shed(&self) -> u64 {
        [drops::QUEUE_FULL, drops::AQM_SHED, drops::STALE_SUPERSEDED]
            .iter()
            .map(|why| self.run.dropped(why))
            .sum()
    }

    /// One formatted table row.
    #[must_use]
    pub fn row(&self) -> String {
        let r = &self.run;
        format!(
            "{:<22} {:>4.1} {:>8.4} {:>8.4} {:>9.2} {:>9.2} {:>8} {:>8} {:>7} {:>8} {:>7}",
            r.label,
            self.load,
            r.delivery_ratio(),
            self.ctl_ratio(),
            r.p50.as_millis_f64(),
            r.p99.as_millis_f64(),
            r.dropped(drops::QUEUE_FULL),
            r.dropped(drops::AQM_SHED),
            r.dropped(drops::STALE_SUPERSEDED),
            r.dropped(drops::RATE_LIMITED),
            self.marks,
        )
    }
}

/// The sweep's full output: rows grouped by load, then
/// gcopss-{aqm,unbounded,droptail}, ip-aqm, ndn-aqm.
#[derive(Debug, Clone)]
pub struct OverloadOutput {
    /// Result rows in run order.
    pub rows: Vec<OverloadRow>,
}

/// Runs the full sweep, harvesting one telemetry report per run when `cap`
/// is on.
#[must_use]
pub fn run(cfg: &OverloadSweepConfig, cap: &mut TelemetryCapture) -> OverloadOutput {
    // The per-class control counters (`ctl-in` / `ctl-drop`) live in
    // telemetry, so a captureless sweep still counts them — under a
    // counters-only capture of its own that nobody reads.
    let mut counting = TelemetryCapture::new(TelemetryConfig::counters_only());
    let cap = if cap.is_on() { cap } else { &mut counting };

    let net = NetworkSpec::default_backbone(NET_SEED);
    let recovery = Some(RecoveryConfig {
        subscribe_refresh: Some(SUBSCRIBE_REFRESH),
        ..RecoveryConfig::default()
    });
    // G-COPSS under all three regimes; the baselines under AQM — IP with
    // rate adaptation, NDN without (pull-based: no client pacer).
    let gcopss = |regime| {
        let sys = GcopssConfig {
            rp_count: RP_COUNT,
            recovery: recovery.clone(),
            rate_adapt: regime == QueueRegime::Aqm,
            ..GcopssConfig::default()
        };
        ("gcopss", regime, Protocol::Gcopss(sys))
    };
    let ip = IpConfig {
        server_count: RP_COUNT,
        recovery: recovery.clone(),
        rate_adapt: true,
        ..IpConfig::default()
    };
    let ndn = NdnBaselineConfig {
        recovery: recovery.clone(),
        ..NdnBaselineConfig::default()
    };
    let systems = [
        gcopss(QueueRegime::Aqm),
        gcopss(QueueRegime::Unbounded),
        gcopss(QueueRegime::DropTail),
        ("ip", QueueRegime::Aqm, Protocol::IpServer(ip)),
        ("ndn", QueueRegime::Aqm, Protocol::NdnBaseline(ndn)),
    ];

    let mut rows = Vec::new();
    for &load in &cfg.loads {
        let w = Workload::counter_strike(&WorkloadParams {
            mean_interarrival: interarrival_at(load),
            ..cfg.workload.clone()
        });
        let horizon = SimTime::ZERO + WARMUP + w.span() + cfg.drain;
        for (system, regime, protocol) in &systems {
            let label = format!("{system}-{}-x{load:.1}", regime.as_str());
            let spec = w
                .spec(&net)
                .protocol(protocol.clone())
                .overload(engine_config(*regime));
            // The managed G-COPSS run replays under the lineage tracer: with
            // no fault injected every miss must be explained by a drop
            // record (overload drops and source sheds land on the lineage),
            // so no damage window is granted.
            let audited = *system == "gcopss" && *regime == QueueRegime::Aqm;
            let (sim, run) = if audited {
                cap.run_audited(&label, spec, &w, horizon, |_| None)
            } else {
                let sim = cap.run(&label, spec, |sim| sim.run_until(horizon));
                let run = RunSummary::of(label, &sim, &w);
                (sim, run)
            };
            rows.push(OverloadRow {
                system,
                regime: *regime,
                load,
                ctl_in: sim.telemetry().counter_total("ctl-in"),
                ctl_drop: sim.telemetry().counter_total("ctl-drop"),
                marks: sim.congestion_marks(),
                run,
            });
        }
    }

    OverloadOutput { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep at sub-capacity and heavy overload: the bounded
    /// regimes must shed under overload, AQM+priority must keep the
    /// control plane near-lossless where drop-tail degrades, and the
    /// audited run must explain every owed pair.
    #[test]
    fn mini_sweep_degrades_gracefully() {
        let cfg = OverloadSweepConfig {
            workload: WorkloadParams {
                players: 60,
                updates: 3_000,
                ..WorkloadParams::default()
            },
            loads: vec![0.5, 4.0],
            drain: SimDuration::from_secs(5),
        };
        let out = run(&cfg, &mut TelemetryCapture::off());
        assert_eq!(out.rows.len(), 10);
        let find = |label: &str| {
            out.rows
                .iter()
                .find(|r| r.run.label == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
        };

        for r in &out.rows {
            let label = &r.run.label;
            assert!(r.run.delivered > 0, "{label}: nothing delivered");
            let ratio = r.run.delivery_ratio();
            assert!((0.0..=1.0).contains(&ratio), "{label}: ratio {ratio}");
            if r.regime == QueueRegime::Unbounded {
                assert_eq!(
                    r.shed() + r.marks,
                    0,
                    "{label}: unbounded regime must not shed or mark"
                );
            }
        }

        // Heavy overload bites the bounded regimes.
        let aqm4 = find("gcopss-aqm-x4.0");
        let tail4 = find("gcopss-droptail-x4.0");
        assert!(aqm4.shed() > 0, "aqm at 4x shed nothing");
        assert!(aqm4.marks > 0, "aqm at 4x marked nothing");
        assert!(
            tail4.run.dropped(drops::QUEUE_FULL) > 0,
            "droptail at 4x dropped nothing"
        );

        // The priority lattice protects the control plane: the refresh
        // keeps Subscribes contending with bulk, drop-tail loses some of
        // them, AQM+priority keeps ≥99 %.
        assert!(
            tail4.ctl_drop > 0,
            "droptail at 4x never dropped control — the comparison is vacuous"
        );
        let (aqm_ctl, tail_ctl) = (aqm4.ctl_ratio(), tail4.ctl_ratio());
        assert!(aqm_ctl >= 0.99, "aqm control survival {aqm_ctl} < 0.99");
        assert!(
            aqm_ctl > tail_ctl,
            "priority did not beat droptail: {aqm_ctl} <= {tail_ctl}"
        );

        // Rate adaptation responded to marks.
        assert!(
            aqm4.run.dropped(drops::RATE_LIMITED) > 0,
            "no source sheds at 4x"
        );

        // The audited runs explain every pair.
        for r in &out.rows {
            if let Some(a) = &r.run.audit {
                assert!(
                    a.report.is_clean(),
                    "{}: audit not clean: {:?}",
                    r.run.label,
                    a.report
                );
            }
        }
        assert!(
            out.rows.iter().any(|r| r.run.audit.is_some()),
            "no run was audited"
        );

        // Below aggregate capacity the AQM regime is near-benign. It is not
        // lossless: per-player rates are heavy-tailed, so one RP can run
        // locally hot at aggregate ρ = 0.5 and pace its publishers a little.
        let ratio = find("gcopss-aqm-x0.5").run.delivery_ratio();
        assert!(ratio > 0.90, "sub-capacity delivery ratio {ratio}");
    }

    /// Equal seeds must produce byte-identical telemetry and audit
    /// exports, shed-heavy policies included.
    #[test]
    fn sweep_is_same_seed_deterministic() {
        let cfg = OverloadSweepConfig {
            workload: WorkloadParams {
                players: 40,
                updates: 1_500,
                ..WorkloadParams::default()
            },
            loads: vec![4.0],
            drain: SimDuration::from_secs(5),
        };
        let a = run(&cfg, &mut TelemetryCapture::off());
        let b = run(&cfg, &mut TelemetryCapture::off());
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            let label = &x.run.label;
            assert_eq!(label, &y.run.label);
            assert_eq!(x.run.published, y.run.published, "{label}");
            assert_eq!(x.run.delivered, y.run.delivered, "{label}");
            for why in drops::ALL {
                assert_eq!(x.run.dropped(why), y.run.dropped(why), "{label}: {why}");
            }
            assert_eq!(x.marks, y.marks, "{label}");
            assert_eq!(x.run.network_bytes, y.run.network_bytes, "{label}");
            match (&x.run.audit, &y.run.audit) {
                (Some(ax), Some(ay)) => {
                    assert_eq!(
                        ax.fingerprint, ay.fingerprint,
                        "{label}: lineage fingerprints differ"
                    );
                    assert_eq!(
                        ax.report.to_json().to_string(),
                        ay.report.to_json().to_string(),
                        "{label}: audit documents differ"
                    );
                }
                (None, None) => {}
                _ => panic!("{label}: audit presence differs"),
            }
        }
    }
}
