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
//! overload drop recorded on the packet's lineage (source sheds included,
//! via `Ctx::lineage_shed`), the delivery auditor must explain 100 % of
//! the owed pairs with zero unexplained losses — overload degrades
//! *gracefully*, never *silently*.

use gcopss_sim::{
    AdmissionPolicy, AuditReport, EngineDrop, OverloadConfig, SimDuration, SimTime, Simulator,
    TelemetryConfig,
};

use crate::scenario::{
    expected_deliveries, GcopssConfig, IpConfig, NdnBaselineConfig, NetworkSpec, Protocol, WARMUP,
};
use crate::{GPacket, GameWorld, RateAdaptConfig, RecoveryConfig};

use super::{TelemetryCapture, Workload, WorkloadParams, NET_SEED};

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

/// The engine overload config of one regime, or `None` for unbounded.
fn engine_config(regime: QueueRegime) -> Option<OverloadConfig> {
    match regime {
        QueueRegime::Unbounded => None,
        QueueRegime::DropTail => Some(OverloadConfig {
            queue_capacity: Some(QUEUE_CAPACITY),
            policy: AdmissionPolicy::DropTail,
            priority: false,
            mark_sojourn: None,
        }),
        QueueRegime::Aqm => Some(OverloadConfig {
            queue_capacity: Some(QUEUE_CAPACITY),
            policy: AdmissionPolicy::CoDel {
                target: CODEL_TARGET,
                interval: CODEL_INTERVAL,
            },
            priority: true,
            mark_sojourn: Some(MARK_SOJOURN),
        }),
    }
}

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Run label (`gcopss-aqm-x4.0`, …).
    pub label: String,
    /// System under test (`"gcopss"`, `"ip"`, `"ndn"`).
    pub system: &'static str,
    /// Queue regime of the run.
    pub regime: QueueRegime,
    /// Offered load as a multiple of service capacity.
    pub load: f64,
    /// Updates published (rate-limited source sheds never publish).
    pub published: u64,
    /// Non-self deliveries recorded.
    pub delivered: u64,
    /// Deliveries the AoI model expects for the full trace.
    pub expected: u64,
    /// `delivered / expected` — the data-plane delivery ratio.
    pub delivery_ratio: f64,
    /// Median delivery latency (log-histogram bucket bound).
    pub p50: SimDuration,
    /// 95th-percentile delivery latency.
    pub p95: SimDuration,
    /// 99th-percentile delivery latency.
    pub p99: SimDuration,
    /// Mean delivery latency.
    pub mean_latency: SimDuration,
    /// Control-class queue admissions, summed over all nodes.
    pub ctl_in: u64,
    /// Control-class overload drops (rejections + evictions).
    pub ctl_drop: u64,
    /// `1 − ctl_drop / (ctl_in + ctl_drop)` — the fraction of control
    /// traffic surviving the queues. ≈1.0 under AQM+priority.
    pub ctl_ratio: f64,
    /// Arrivals rejected (or victims evicted) at full queues.
    pub queue_full: u64,
    /// Packets shed by the sojourn AQM.
    pub aqm_shed: u64,
    /// Stale position updates evicted by a fresher same-key arrival.
    pub stale_superseded: u64,
    /// Publishes shed at the source by client rate adaptation.
    pub rate_limited: u64,
    /// Congestion marks applied at dequeue.
    pub marks: u64,
    /// Aggregate network load in bytes.
    pub network_bytes: u64,
    /// Lineage audit of the run, when the tracer was armed: the auditor's
    /// per-class accounting JSON and the span-log fingerprint.
    pub audit: Option<(gcopss_sim::json::Json, u64)>,
    /// Whether the armed audit explained every owed pair.
    pub audit_clean: Option<bool>,
}

impl OverloadRow {
    /// One formatted table row.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<22} {:>4.1} {:>8.4} {:>8.4} {:>9.2} {:>9.2} {:>8} {:>8} {:>7} {:>8} {:>7}",
            self.label,
            self.load,
            self.delivery_ratio,
            self.ctl_ratio,
            self.p50.as_millis_f64(),
            self.p99.as_millis_f64(),
            self.queue_full,
            self.aqm_shed,
            self.stale_superseded,
            self.rate_limited,
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

/// Reads one finished run's row off its simulator (and its audit, when
/// the run was audited).
fn make_row(
    label: String,
    system: &'static str,
    regime: QueueRegime,
    load: f64,
    sim: &Simulator<GPacket, GameWorld>,
    audit: Option<AuditReport>,
    w: &Workload,
) -> OverloadRow {
    let world = sim.world();
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let delivered = world.metrics.delivered();
    let hist = world.metrics.latency_hist();
    let q = |p: f64| SimDuration::from_nanos(hist.quantile(p));
    let ctl_in = sim.telemetry().counter_total("ctl-in");
    let ctl_drop = sim.telemetry().counter_total("ctl-drop");
    let offered_ctl = ctl_in + ctl_drop;
    OverloadRow {
        label,
        system,
        regime,
        load,
        published: world.metrics.published(),
        delivered,
        expected,
        delivery_ratio: if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        },
        p50: q(0.50),
        p95: q(0.95),
        p99: q(0.99),
        mean_latency: world.metrics.stats().mean(),
        ctl_in,
        ctl_drop,
        ctl_ratio: if offered_ctl == 0 {
            1.0
        } else {
            1.0 - ctl_drop as f64 / offered_ctl as f64
        },
        queue_full: sim.dropped(EngineDrop::QueueFull),
        aqm_shed: sim.dropped(EngineDrop::AqmShed),
        stale_superseded: sim.dropped(EngineDrop::StaleSuperseded),
        rate_limited: world.counter("rate-limited"),
        marks: sim.congestion_marks(),
        network_bytes: sim.total_link_bytes(),
        audit_clean: audit.as_ref().map(AuditReport::is_clean),
        audit: audit.map(|a| (a.to_json(), sim.lineage().fingerprint())),
    }
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
            overload: engine_config(regime),
            rate_adapt: (regime == QueueRegime::Aqm).then(RateAdaptConfig::default),
            ..GcopssConfig::default()
        };
        ("gcopss", regime, Protocol::Gcopss(sys))
    };
    let ip = IpConfig {
        server_count: RP_COUNT,
        recovery: recovery.clone(),
        overload: engine_config(QueueRegime::Aqm),
        rate_adapt: Some(RateAdaptConfig::default()),
        ..IpConfig::default()
    };
    let ndn = NdnBaselineConfig {
        recovery: recovery.clone(),
        overload: engine_config(QueueRegime::Aqm),
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
            let spec = w.spec(&net).protocol(protocol.clone());
            // The managed G-COPSS run replays under the lineage tracer: with
            // no fault injected every miss must be explained by a drop
            // record (overload drops and source sheds land on the lineage),
            // so no damage window is granted.
            let audited = *system == "gcopss" && *regime == QueueRegime::Aqm;
            let (sim, audit) = if audited {
                let (sim, report) = cap.run_audited(&label, spec, &w, horizon, |_| None);
                (sim, Some(report))
            } else {
                (cap.run(&label, spec, |sim| sim.run_until(horizon)), None)
            };
            rows.push(make_row(label, system, *regime, load, &sim, audit, &w));
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
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
        };

        for r in &out.rows {
            assert!(r.delivered > 0, "{}: nothing delivered", r.label);
            assert!(
                (0.0..=1.0).contains(&r.delivery_ratio),
                "{}: ratio {}",
                r.label,
                r.delivery_ratio
            );
            if r.regime == QueueRegime::Unbounded {
                assert_eq!(
                    r.queue_full + r.aqm_shed + r.stale_superseded + r.marks,
                    0,
                    "{}: unbounded regime must not shed or mark",
                    r.label
                );
            }
        }

        // Heavy overload bites the bounded regimes.
        let aqm4 = find("gcopss-aqm-x4.0");
        let tail4 = find("gcopss-droptail-x4.0");
        assert!(
            aqm4.aqm_shed + aqm4.queue_full + aqm4.stale_superseded > 0,
            "aqm at 4x shed nothing"
        );
        assert!(aqm4.marks > 0, "aqm at 4x marked nothing");
        assert!(tail4.queue_full > 0, "droptail at 4x dropped nothing");

        // The priority lattice protects the control plane: the refresh
        // keeps Subscribes contending with bulk, drop-tail loses some of
        // them, AQM+priority keeps ≥99 %.
        assert!(
            tail4.ctl_drop > 0,
            "droptail at 4x never dropped control — the comparison is vacuous"
        );
        assert!(
            aqm4.ctl_ratio >= 0.99,
            "aqm control survival {} < 0.99",
            aqm4.ctl_ratio
        );
        assert!(
            aqm4.ctl_ratio > tail4.ctl_ratio,
            "priority did not beat droptail: {} <= {}",
            aqm4.ctl_ratio,
            tail4.ctl_ratio
        );

        // Rate adaptation responded to marks.
        assert!(aqm4.rate_limited > 0, "no source sheds at 4x");

        // The audited runs explain every pair.
        for r in &out.rows {
            if let Some(clean) = r.audit_clean {
                assert!(clean, "{}: audit not clean: {:?}", r.label, r.audit);
            }
        }
        assert!(
            out.rows.iter().any(|r| r.audit_clean.is_some()),
            "no run was audited"
        );

        // Below aggregate capacity the AQM regime is near-benign. It is not
        // lossless: per-player rates are heavy-tailed, so one RP can run
        // locally hot at aggregate ρ = 0.5 and pace its publishers a little.
        let aqm05 = find("gcopss-aqm-x0.5");
        assert!(
            aqm05.delivery_ratio > 0.90,
            "sub-capacity delivery ratio {}",
            aqm05.delivery_ratio
        );
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
            assert_eq!(x.label, y.label);
            assert_eq!(x.published, y.published, "{}", x.label);
            assert_eq!(x.delivered, y.delivered, "{}", x.label);
            assert_eq!(
                (x.queue_full, x.aqm_shed, x.stale_superseded, x.rate_limited, x.marks),
                (y.queue_full, y.aqm_shed, y.stale_superseded, y.rate_limited, y.marks),
                "{}",
                x.label
            );
            assert_eq!(x.network_bytes, y.network_bytes, "{}", x.label);
            match (&x.audit, &y.audit) {
                (Some((ja, fa)), Some((jb, fb))) => {
                    assert_eq!(fa, fb, "{}: lineage fingerprints differ", x.label);
                    assert_eq!(
                        ja.to_string(),
                        jb.to_string(),
                        "{}: audit documents differ",
                        x.label
                    );
                }
                (None, None) => {}
                _ => panic!("{}: audit presence differs", x.label),
            }
        }
    }
}
