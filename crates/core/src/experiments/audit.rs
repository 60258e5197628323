//! Delivery audit (`exp_audit`): end-to-end causal accounting of every
//! publication on the chaos scenario.
//!
//! The failure sweep (`exp_failover`) reports delivery *ratios*; this
//! driver replays the same G-COPSS chaos runs under the lineage tracer
//! and demands a stronger property: every `(publication, owed subscriber)`
//! pair must be **explained** — delivered exactly once, dropped with a
//! recorded reason (dead link, dead node, Bernoulli loss, purged soft
//! state), lost to a subscription-tree gap inside the damage window, or
//! still in flight at the horizon. Duplicates and unexplained losses are
//! hard errors: a ratio can hide a duplicate cancelling a loss, the audit
//! cannot.
//!
//! The owed-subscriber set of a publication is its AoI viewer set at
//! publish time (players do not move in the chaos scenario), minus the
//! publisher. The damage window runs from the first scheduled fault to
//! the last repair plus the settle margin — the same window in which the
//! failure sweep tolerates under-delivery; with Bernoulli loss the whole
//! run is damaged, because loss draws are not confined to a window.

use gcopss_sim::json::Json;
use gcopss_sim::{
    AuditReport, LineageConfig, SimDuration, SimTime, Simulator, TelemetryConfig,
    TimeSeriesConfig,
};

use crate::scenario::{viewers_by_cd, GcopssConfig, NetworkSpec, ScenarioSpec, WARMUP};
use crate::{GPacket, GameWorld, MetricsMode, RecoveryConfig};

use super::failover::{chaos_plan, FailoverConfig, RP_COUNT};
use super::{Workload, NET_SEED};

/// The periodic time-series sampler armed on every audited run (and by the
/// runner on the failure sweep's captured runs, which replay the same
/// chaos scenario).
#[must_use]
pub fn timeseries_config() -> TimeSeriesConfig {
    TimeSeriesConfig {
        tick: SimDuration::from_millis(500),
        counters: vec!["delivered", "drop", "rp-failovers", "st-purged"],
        gauges: vec!["st-entries"],
        per_node: vec!["rp-served"],
        ..TimeSeriesConfig::default()
    }
}

/// One audited run.
#[derive(Debug, Clone)]
pub struct AuditRun {
    /// Run label (`gcopss-loss0.01`, …).
    pub label: String,
    /// The swept loss rate.
    pub loss: f64,
    /// The auditor's per-class accounting.
    pub report: AuditReport,
    /// FNV-1a fingerprint over all span records (determinism witness:
    /// equal seeds must produce equal fingerprints).
    pub fingerprint: u64,
    /// Span records captured.
    pub spans: usize,
    /// Captured time-series frames.
    pub timeseries: Option<Json>,
}

/// The audit's full output, one run per swept loss rate.
#[derive(Debug, Clone)]
pub struct AuditOutput {
    /// Audited runs in sweep order.
    pub runs: Vec<AuditRun>,
}

/// Registers one delivery expectation per trace event with the lineage
/// log: publication id `i` owes one copy to every AoI viewer of its CD
/// except the publisher. Must be called after [`Simulator::enable_lineage`]
/// and before the run.
pub fn register_expectations(
    sim: &mut Simulator<GPacket, GameWorld>,
    w: &Workload,
    warmup: SimDuration,
) {
    let viewers = viewers_by_cd(&w.map, &w.population);
    for (i, e) in w.trace.iter().enumerate() {
        let t_publish = SimTime::ZERO + warmup + SimDuration::from_nanos(e.time_ns);
        let entities: Vec<u32> = viewers
            .get(&e.cd)
            .map(|v| v.iter().filter(|&&p| p != e.player).map(|p| p.0).collect())
            .unwrap_or_default();
        sim.lineage_mut()
            .expect(i as u64, t_publish, e.player.0, &entities);
    }
}

/// What the fault-free sweeps (`overload`, `adaptive`) export of an audited
/// run: `(report JSON, span fingerprint, clean?)`. With no fault injected
/// every miss must be explained by a drop record (overload drops and source
/// sheds land on the lineage), so no damage window is granted.
#[must_use]
pub fn audit_without_damage(
    sim: &Simulator<GPacket, GameWorld>,
    horizon: SimTime,
) -> (Json, u64, bool) {
    let report = sim.lineage().audit(horizon, None);
    (
        report.to_json(),
        sim.lineage().fingerprint(),
        report.is_clean(),
    )
}

/// The fault damage window for a loss-free chaos plan: from just before
/// the first scheduled fault to the last repair plus the settle margin.
/// The window opens one second *before* the first fault because a message
/// published shortly before it can still be in flight when the damage
/// lands — a crash purges subscription-tree branches at the neighbors,
/// and an in-flight copy then vanishes into the gap without a drop
/// record. One second is far above any end-to-end delivery latency the
/// scenario produces.
#[must_use]
pub fn damage_window(
    first_fault: Option<SimTime>,
    last_repair: Option<SimTime>,
    settle: SimDuration,
) -> Option<(SimTime, SimTime)> {
    let (start, repair) = (first_fault?, last_repair?);
    let margin = SimDuration::from_secs(1);
    let open = SimTime::ZERO + start.saturating_duration_since(SimTime::ZERO + margin);
    Some((open, repair + settle))
}

/// Runs the audited sweep over the chaos scenario `f` (same knobs as the
/// failure sweep; only the G-COPSS runs are audited — the baselines have no
/// span hooks for their server/producer application state). The lineage
/// tracer keeps every span: an audit over a sampled trace would only
/// account for the sampled lineages.
#[must_use]
pub fn run(f: &FailoverConfig) -> AuditOutput {
    let w = Workload::counter_strike(&f.workload);
    let net = NetworkSpec::default_backbone(NET_SEED);
    let links = net.core_links_preview();
    let pool = net.rp_pool_preview();
    let crash = pool[(RP_COUNT - 1) % pool.len()];
    let span = w.span();
    let horizon = SimTime::ZERO + WARMUP + span + f.drain;

    let mut runs = Vec::new();
    for &loss in &f.loss_rates {
        let plan = chaos_plan(f, loss, &links, crash, span);
        let first_fault = plan.schedule().iter().map(|&(t, _)| t).min();
        let sys = GcopssConfig {
            metrics_mode: MetricsMode::StatsOnly,
            rp_count: RP_COUNT,
            recovery: Some(RecoveryConfig::default()),
            ..GcopssConfig::default()
        };
        let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
            .gcopss(sys)
            .build()
            .into_gcopss();
        built.sim.enable_lineage(LineageConfig::default());
        register_expectations(&mut built.sim, &w, WARMUP);
        // The sampler reads the metrics registry, so telemetry must be on;
        // the journal is not needed here.
        built.sim.enable_telemetry(TelemetryConfig::counters_only());
        built.sim.enable_timeseries(timeseries_config());
        built.sim.install_faults(plan);
        built.sim.run_until(horizon);

        let damage = if loss > 0.0 {
            // Loss draws hit every transmission: the whole run is damaged.
            Some((SimTime::ZERO, horizon))
        } else {
            damage_window(first_fault, built.sim.last_repair_time(), f.settle)
        };
        let report = built.sim.lineage().audit(horizon, damage);
        runs.push(AuditRun {
            label: format!("gcopss-loss{loss:.2}"),
            loss,
            fingerprint: built.sim.lineage().fingerprint(),
            spans: built.sim.lineage().spans().len(),
            timeseries: built.sim.timeseries_json(),
            report,
        });
    }
    AuditOutput { runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature audited chaos run must account for 100 % of the owed
    /// pairs with zero duplicates and zero unexplained losses, and the
    /// span log must be same-seed reproducible.
    #[test]
    fn mini_audit_is_clean_and_reproducible() {
        let cfg = FailoverConfig {
            workload: super::super::WorkloadParams {
                players: 60,
                updates: 3_000,
                ..super::super::WorkloadParams::default()
            },
            loss_rates: vec![0.0, 0.02],
            flaps: 2,
            outage: SimDuration::from_millis(500),
            settle: SimDuration::from_secs(2),
            drain: SimDuration::from_secs(10),
        };
        let out = run(&cfg);
        assert_eq!(out.runs.len(), 2);
        for r in &out.runs {
            assert!(r.spans > 0, "{}: no spans captured", r.label);
            assert!(
                r.report.is_clean(),
                "{}: audit not clean:\n{}\nerrors: {:?}",
                r.label,
                r.report.table(),
                r.report.errors
            );
            assert!(r.report.delivered > 0, "{}: nothing delivered", r.label);
            let ts = r.timeseries.as_ref().expect("sampler was armed");
            assert!(ts.to_string().contains("\"frames\""));
        }
        // The lossy run must have charged something to the fault machinery.
        let lossy = &out.runs[1];
        assert!(
            lossy.report.dropped_total() > 0,
            "lossy run recorded no drops:\n{}",
            lossy.report.table()
        );

        let again = run(&cfg);
        for (a, b) in out.runs.iter().zip(&again.runs) {
            assert_eq!(a.fingerprint, b.fingerprint, "{}: spans differ", a.label);
            assert_eq!(
                a.report.to_json().to_string(),
                b.report.to_json().to_string(),
                "{}: audit differs",
                a.label
            );
            assert_eq!(
                a.timeseries.as_ref().map(ToString::to_string),
                b.timeseries.as_ref().map(ToString::to_string),
                "{}: time series differ",
                a.label
            );
        }
    }
}
