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

use gcopss_game::trace::TraceEvent;
use gcopss_sim::{SimDuration, SimTime, Simulator, TimeSeriesConfig};

use crate::scenario::{viewers_by_cd, GcopssConfig, NetworkSpec, WARMUP};
use crate::{GPacket, GameWorld, RecoveryConfig};

use super::failover::{chaos_plan, FailoverConfig, RP_COUNT};
use super::{RunAudit, RunSummary, TelemetryCapture, Workload, NET_SEED};

/// The periodic time-series sampler the runner arms on the audited runs and
/// on the failure sweep's, which replay the same chaos scenario.
#[must_use]
pub fn timeseries_config() -> TimeSeriesConfig {
    TimeSeriesConfig {
        tick: SimDuration::from_millis(500),
        counters: vec!["delivered", "drop", "rp-failovers", "st-purged"],
        gauges: vec!["st-entries"],
        per_node: vec!["rp-served"],
    }
}

/// One audited run.
#[derive(Debug, Clone)]
pub struct AuditRun {
    /// The swept loss rate.
    pub loss: f64,
    /// The run, labelled `gcopss-loss0.01`, …, with its audit.
    pub run: RunSummary,
}

impl AuditRun {
    /// The run's audit.
    #[must_use]
    pub fn audit(&self) -> &RunAudit {
        self.run
            .audit
            .as_ref()
            .expect("every run of the sweep is audited")
    }
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
/// and before the run; [`TelemetryCapture::run_audited`] does both.
///
/// The books are reserved first, exactly, for the publications the log
/// samples, and every owed list is built in one reused buffer.
pub fn register_expectations(
    sim: &mut Simulator<GPacket, GameWorld>,
    w: &Workload,
    warmup: SimDuration,
) {
    let viewers = viewers_by_cd(&w.map, &w.population);
    let owed = |e: &TraceEvent| {
        let (who, publisher) = (viewers.get(&e.cd).map_or(&[][..], Vec::as_slice), e.player);
        who.iter().filter(move |&&p| p != publisher).map(|p| p.0)
    };
    let log = sim.lineage_mut();
    let (lineages, pairs) = (0u64..)
        .zip(w.trace.iter())
        .filter(|&(i, _)| log.sampled(i))
        .fold((0, 0), |(n, pairs), (_, e)| {
            (n + 1, pairs + owed(e).count())
        });
    log.reserve_expectations(lineages, pairs);
    let mut entities = Vec::with_capacity(viewers.values().map(Vec::len).max().unwrap_or(0));
    for (i, e) in (0u64..).zip(w.trace.iter()) {
        let t_publish = SimTime::ZERO + warmup + SimDuration::from_nanos(e.time_ns);
        entities.clear();
        entities.extend(owed(e));
        log.expect(i, t_publish, e.player.0, &entities);
    }
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
/// span hooks for their server/producer application state), harvesting one
/// telemetry report per run when `cap` is on.
#[must_use]
pub fn run(f: &FailoverConfig, cap: &mut TelemetryCapture) -> AuditOutput {
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
            rp_count: RP_COUNT,
            recovery: Some(RecoveryConfig::default()),
            ..GcopssConfig::default()
        };
        let label = format!("gcopss-loss{loss:.2}");
        let spec = w.spec(&net).gcopss(sys).fault_plan(plan);
        let (_, run) = cap.run_audited(&label, spec, &w, horizon, |sim| {
            if loss > 0.0 {
                // Loss draws hit every transmission: the whole run is damaged.
                Some((SimTime::ZERO, horizon))
            } else {
                damage_window(first_fault, sim.last_repair_time(), f.settle)
            }
        });
        runs.push(AuditRun { loss, run });
    }
    AuditOutput { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_sim::TelemetryConfig;

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
        // Captured as the runner does: counters feed the frame sampler.
        let captured = || {
            let mut cap = TelemetryCapture::new(TelemetryConfig::counters_only())
                .with_timeseries(timeseries_config());
            (run(&cfg, &mut cap), cap)
        };
        let (out, cap) = captured();
        assert_eq!(out.runs.len(), 2);
        assert_eq!(cap.series.len(), 2, "sampler was armed on every run");
        assert_eq!(cap.audits.len(), 2, "every audit is queued on the capture");
        for (label, frames) in &cap.series {
            assert!(frames.to_string().contains("\"frames\""), "{label}");
        }
        for r in &out.runs {
            let (label, a) = (&r.run.label, r.audit());
            assert!(a.spans > 0, "{label}: no spans captured");
            assert!(
                a.report.is_clean(),
                "{label}: audit not clean:\n{}\nerrors: {:?}",
                a.report.table(),
                a.report.errors
            );
            assert!(a.report.delivered > 0, "{label}: nothing delivered");
        }
        // The lossy run must have charged something to the fault machinery.
        let lossy = &out.runs[1].audit().report;
        assert!(
            lossy.dropped_total() > 0,
            "lossy run recorded no drops:\n{}",
            lossy.table()
        );

        let (again, cap_again) = captured();
        let render = |docs: &[(String, gcopss_sim::json::Json)]| -> Vec<String> {
            docs.iter()
                .map(|(label, doc)| format!("{label}: {doc}"))
                .collect()
        };
        assert_eq!(
            render(&cap.series),
            render(&cap_again.series),
            "time series differ"
        );
        assert_eq!(
            render(&cap.audits),
            render(&cap_again.audits),
            "queued audits differ"
        );
        for (x, y) in out.runs.iter().zip(&again.runs) {
            let (label, a, b) = (&x.run.label, x.audit(), y.audit());
            assert_eq!(a.fingerprint, b.fingerprint, "{label}: spans differ");
            assert_eq!(
                a.report.to_json().to_string(),
                b.report.to_json().to_string(),
                "{label}: audit differs"
            );
        }
    }
}
