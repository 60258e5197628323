//! Failure sweep (`exp_failover`): delivery ratio and recovery time under
//! injected faults for G-COPSS vs the IP-server and NDN baselines.
//!
//! Every run plays the same seeded chaos schedule — random core-link flaps
//! plus one infrastructure-node crash/restart — while the per-transmission
//! Bernoulli loss rate is swept. The crashed router hosts the
//! highest-numbered RP in the G-COPSS runs, so the sweep also exercises RP
//! failover; in the IP baseline the same router is the junction of a game
//! server, and in the NDN baseline it is a plain core router, so all three
//! systems face identical chaos.
//!
//! Because publication ids are dense trace-event indexes, the exact
//! delivery log supports per-publication accounting: the sweep reports the
//! overall delivery ratio, the ratio restricted to publications sent after
//! the last repair (which must return to 1.0 for a system that truly
//! recovers, absent residual loss), and the time from the last repair to
//! the last under-delivered publication.

use gcopss_game::PlayerId;
use gcopss_sim::{EngineDrop, FaultPlan, NodeId, SimDuration, SimTime, Simulator};

use crate::scenario::{
    viewers_by_cd, GcopssConfig, IpConfig, NdnBaselineConfig, NetworkSpec, Protocol, WARMUP,
};
use crate::{GPacket, GameWorld, RecoveryConfig};

use super::{TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// Chaos-schedule seed (flap times and loss draws).
const CHAOS_SEED: u64 = 0x00c4_a055;
/// Initial RPs (G-COPSS) and game servers (IP baseline). The router hosting
/// the last RP crashes at 30 % of the trace span and restarts at 50 %.
pub(crate) const RP_COUNT: usize = 3;

/// Configuration of the failure sweep.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Workload (smaller than Table I by default: chaos runs use
    /// [`Simulator::run_until`] horizons, so event counts matter).
    pub workload: WorkloadParams,
    /// Per-transmission Bernoulli loss rates to sweep.
    pub loss_rates: Vec<f64>,
    /// Random core-link flaps per run, drawn in the 20–60 % window of the
    /// trace span.
    pub flaps: usize,
    /// Outage length of each link flap.
    pub outage: SimDuration,
    /// Margin after the last repair before the post-repair window opens:
    /// publications racing the join/reconnect re-propagation right after a
    /// repair are charged to the outage, not to steady state. Must cover
    /// the recovery watchdog period.
    pub settle: SimDuration,
    /// Extra simulated time after the last trace event before the horizon.
    pub drain: SimDuration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadParams {
                players: 120,
                updates: 10_000,
                ..WorkloadParams::default()
            },
            loss_rates: vec![0.0, 0.01, 0.05],
            flaps: 6,
            outage: SimDuration::from_secs(2),
            settle: SimDuration::from_secs(5),
            drain: SimDuration::from_secs(30),
        }
    }
}

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct FailoverRow {
    /// Run label (`gcopss-loss0.01`, …).
    pub label: String,
    /// The swept loss rate.
    pub loss: f64,
    /// Publications registered.
    pub published: u64,
    /// Deliveries the AoI model expects over the whole trace.
    pub expected: u64,
    /// Distinct non-self deliveries recorded (capped per publication at the
    /// expected fan-out).
    pub delivered: u64,
    /// `delivered / expected`.
    pub delivery_ratio: f64,
    /// The same ratio restricted to publications sent after
    /// `last_repair + settle` — 1.0 means the system fully recovered.
    /// 1.0 trivially when the window is empty (chaos outlived the trace).
    pub post_repair_ratio: f64,
    /// Expected deliveries inside the post-repair window (0 means the
    /// window was empty and `post_repair_ratio` is vacuous).
    pub post_expected: u64,
    /// Time from the last repair to the last under-delivered publication:
    /// `Some(ZERO)` when nothing was ever lost, `None` when under-delivery
    /// persisted to the end of the trace (no settling observed — e.g.
    /// multicast under residual loss, which has no retransmission).
    pub recovery: Option<SimDuration>,
    /// When the last repair event was applied (`None` for vacuous plans).
    pub last_repair: Option<SimTime>,
    /// Packets dropped crossing dead links.
    pub link_lost: u64,
    /// Packets dropped at dead nodes.
    pub node_lost: u64,
    /// RP failovers executed (G-COPSS runs only).
    pub rp_failovers: u64,
    /// Client re-subscribes (G-COPSS) or server reconnects (IP).
    pub resubscribes: u64,
    /// Mean delivery latency.
    pub mean_latency: SimDuration,
    /// Aggregate network load in bytes.
    pub network_bytes: u64,
}

impl FailoverRow {
    /// One formatted table row.
    #[must_use]
    pub fn row(&self) -> String {
        let recovery = match self.recovery {
            Some(d) => format!("{:.2}s", d.as_millis_f64() / 1e3),
            None => "never".into(),
        };
        format!(
            "{:<18} {:>6.2} {:>9.4} {:>11.4} {:>9} {:>10} {:>7} {:>12.2}",
            self.label,
            self.loss,
            self.delivery_ratio,
            self.post_repair_ratio,
            recovery,
            self.link_lost + self.node_lost,
            self.resubscribes,
            self.mean_latency.as_millis_f64(),
        )
    }
}

/// The sweep's full output: one row per `(system, loss rate)` run, all
/// G-COPSS rows first, then IP, then NDN.
#[derive(Debug, Clone)]
pub struct FailoverOutput {
    /// Result rows in run order.
    pub rows: Vec<FailoverRow>,
}

/// The shared chaos schedule at one loss rate: flaps in the 20–60 % window
/// of the span, the infrastructure crash at 30 % with restart at 50 %.
/// Shared with the delivery audit (`exp_audit`), which replays the same
/// chaos under the lineage tracer.
pub(crate) fn chaos_plan(
    cfg: &FailoverConfig,
    loss: f64,
    links: &[gcopss_sim::LinkId],
    crash: NodeId,
    span: SimDuration,
) -> FaultPlan {
    let at = |num: u64, den: u64| {
        SimTime::ZERO + WARMUP + SimDuration::from_nanos(span.as_nanos() * num / den)
    };
    let mut plan = FaultPlan::new(CHAOS_SEED).with_loss(loss);
    if cfg.flaps > 0 && !links.is_empty() && span > SimDuration::ZERO {
        plan = plan.random_link_flaps(links, cfg.flaps, at(2, 10), at(6, 10), cfg.outage);
    }
    plan.node_down(at(3, 10), crash).node_up(at(5, 10), crash)
}

struct Deliverability {
    expected: u64,
    delivered: u64,
    ratio: f64,
    post_ratio: f64,
    post_expected: u64,
    recovery: Option<SimDuration>,
}

/// Per-publication delivery accounting against the AoI model.
fn deliverability(
    world: &GameWorld,
    last_repair: Option<SimTime>,
    w: &Workload,
    settle: SimDuration,
) -> Deliverability {
    let viewers = viewers_by_cd(&w.map, &w.population);
    let log = world
        .delivery_log
        .as_ref()
        .expect("chaos runs keep a delivery log");
    let mut per_id = vec![0u64; w.trace.len()];
    for &(id, receiver) in log {
        // The log also records the publisher's own copy; `expected` follows
        // the `expected_deliveries` convention of excluding it.
        if world.metrics.publisher_of(id) == Some(PlayerId(receiver)) {
            continue;
        }
        if let Some(slot) = per_id.get_mut(id as usize) {
            *slot += 1;
        }
    }
    let (mut expected, mut delivered) = (0u64, 0u64);
    let (mut post_expected, mut post_delivered) = (0u64, 0u64);
    let mut last_bad: Option<usize> = None;
    let mut last_with_fanout: Option<usize> = None;
    for (i, e) in w.trace.iter().enumerate() {
        let want = (viewers.get(&e.cd).map_or(0, Vec::len) as u64).saturating_sub(1);
        let got = per_id[i].min(want);
        expected += want;
        delivered += got;
        if want > 0 {
            last_with_fanout = Some(i);
            if got < want {
                last_bad = Some(i);
            }
        }
        let sent = SimTime::ZERO + WARMUP + SimDuration::from_nanos(e.time_ns);
        if last_repair.is_none_or(|r| sent > r + settle) {
            post_expected += want;
            post_delivered += got;
        }
    }
    let ratio = |d: u64, e: u64| if e == 0 { 1.0 } else { d as f64 / e as f64 };
    let recovery = match (last_bad, last_repair) {
        (None, _) => Some(SimDuration::ZERO),
        // Settled only if some later publication did reach full fan-out.
        (Some(i), Some(repair)) if last_bad != last_with_fanout => {
            let sent = SimTime::ZERO + WARMUP + SimDuration::from_nanos(w.trace[i].time_ns);
            Some(sent.saturating_duration_since(repair))
        }
        _ => None,
    };
    Deliverability {
        expected,
        delivered,
        ratio: ratio(delivered, expected),
        post_ratio: ratio(post_delivered, post_expected),
        post_expected,
        recovery,
    }
}

/// Reads one finished chaotic run's row off its simulator.
fn make_row(
    label: String,
    loss: f64,
    sim: &Simulator<GPacket, GameWorld>,
    w: &Workload,
    cfg: &FailoverConfig,
) -> FailoverRow {
    let world = sim.world();
    let last_repair = sim.last_repair_time();
    let d = deliverability(world, last_repair, w, cfg.settle);
    FailoverRow {
        label,
        loss,
        published: world.metrics.published(),
        expected: d.expected,
        delivered: d.delivered,
        delivery_ratio: d.ratio,
        post_repair_ratio: d.post_ratio,
        post_expected: d.post_expected,
        recovery: d.recovery,
        last_repair,
        link_lost: sim.dropped(EngineDrop::LinkLost),
        node_lost: sim.dropped(EngineDrop::NodeLost),
        rp_failovers: world.counter("rp-failovers"),
        resubscribes: world.counter("client-resubscribes") + world.counter("client-reconnects"),
        mean_latency: world.metrics.stats().mean(),
        network_bytes: sim.total_link_bytes(),
    }
}

/// Runs the full sweep, harvesting one telemetry report per run when `cap`
/// is on.
#[must_use]
pub fn run(cfg: &FailoverConfig, cap: &mut TelemetryCapture) -> FailoverOutput {
    let w = Workload::counter_strike(&cfg.workload);
    let net = NetworkSpec::default_backbone(NET_SEED);
    let links = net.core_links_preview();
    let pool = net.rp_pool_preview();
    let crash = pool[(RP_COUNT - 1) % pool.len()];
    let span = w.span();
    let horizon = SimTime::ZERO + WARMUP + span + cfg.drain;

    let recovery = Some(RecoveryConfig::default());
    let systems = [
        (
            "gcopss",
            Protocol::Gcopss(GcopssConfig {
                delivery_log: true,
                rp_count: RP_COUNT,
                recovery: recovery.clone(),
                ..GcopssConfig::default()
            }),
        ),
        (
            "ip",
            Protocol::IpServer(IpConfig {
                delivery_log: true,
                server_count: RP_COUNT,
                recovery: recovery.clone(),
                ..IpConfig::default()
            }),
        ),
        (
            "ndn",
            Protocol::NdnBaseline(NdnBaselineConfig {
                delivery_log: true,
                recovery,
                ..NdnBaselineConfig::default()
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (system, protocol) in systems {
        for &loss in &cfg.loss_rates {
            let label = format!("{system}-loss{loss:.2}");
            let spec = w
                .spec(&net)
                .protocol(protocol.clone())
                .fault_plan(chaos_plan(cfg, loss, &links, crash, span));
            let sim = cap.run(&label, spec, |sim| sim.run_until(horizon));
            rows.push(make_row(label, loss, &sim, &w, cfg));
        }
    }

    FailoverOutput { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature failure sweep: the chaos must bite (drops observed, RP
    /// failover fires) and loss-free G-COPSS must fully recover after the
    /// last repair.
    #[test]
    fn mini_sweep_recovers_when_lossless() {
        // Span ≈ 9.6 s: the chaos window ([20 %, 60 %] plus a 0.5 s outage)
        // ends around t = 8.3 s, leaving a non-vacuous post-repair window
        // after the 2 s settle margin.
        let cfg = FailoverConfig {
            workload: WorkloadParams {
                players: 60,
                updates: 4_000,
                ..WorkloadParams::default()
            },
            loss_rates: vec![0.0],
            flaps: 2,
            outage: SimDuration::from_millis(500),
            settle: SimDuration::from_secs(2),
            drain: SimDuration::from_secs(10),
        };
        let out = run(&cfg, &mut TelemetryCapture::off());
        assert_eq!(out.rows.len(), 3);
        for r in &out.rows {
            assert!(r.delivered > 0, "{}: nothing delivered", r.label);
            assert!(
                (0.0..=1.0).contains(&r.delivery_ratio),
                "{}: ratio {}",
                r.label,
                r.delivery_ratio
            );
            assert!(r.last_repair.is_some(), "{}: chaos never played", r.label);
        }
        let g = &out.rows[0];
        assert!(g.label.starts_with("gcopss"));
        assert!(
            g.link_lost + g.node_lost > 0,
            "chaos drew no blood ({} link, {} node)",
            g.link_lost,
            g.node_lost
        );
        assert!(g.rp_failovers >= 1, "RP crash did not trigger failover");
        assert!(g.post_expected > 0, "post-repair window is vacuous");
        assert!(
            (g.post_repair_ratio - 1.0).abs() < 1e-9,
            "G-COPSS did not fully recover: post-repair ratio {} over {} expected",
            g.post_repair_ratio,
            g.post_expected
        );
    }
}
