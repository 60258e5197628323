//! Adaptive-control sweep (`exp_adaptive`): closing the observability
//! loop — the streaming metric pipeline drives control decisions inside
//! the simulation, ablated against the static policies it replaces.
//!
//! Two adaptive consumers are exercised, each under a scenario engineered
//! to defeat its static counterpart:
//!
//! * **RP auto-balancing** under a mid-trace *hotspot*: a fraction of all
//!   updates is remapped onto the leaf CDs of one level-1 zone, so one RP's
//!   queue saturates while the others idle. The static policy splits when
//!   the instantaneous queue length crosses a hand-tuned threshold; the
//!   adaptive policy ([`crate::params::adaptive_rp`]) watches the queue-depth
//!   EWMA and the per-RP served-rate skew from the metric streams and fires
//!   with hysteresis — earlier, and only when the load is actually
//!   *skewed* (a uniformly overloaded system gains nothing from moving
//!   CDs). Headline: bounded-queue overflow drops and p99 latency,
//!   adaptive < static < off.
//! * **Cache-class selection** under a *flash crowd*: a burst of movers
//!   enters the same area and fetches its snapshot via QR. Statically,
//!   snapshot Data carries a short freshness (mutable state must not
//!   linger), so concurrent movers stampede the broker. Adaptively, the
//!   broker watches the live per-prefix popularity sketch and promotes the
//!   crowd's prefix to a long-freshness cache class
//!   ([`crate::params::adaptive_cache`]), letting on-path content stores
//!   absorb the crowd. Headline: router CS hit-rate and broker load,
//!   adaptive ≫ static.
//!
//! Both arms run the same seed for every policy, so differences are
//! attributable to the policy alone; the RP arm replays under the lineage
//! tracer and the delivery auditor must explain every owed pair (overload
//! sheds included) — adaptation must not *silently* lose traffic.

use std::sync::Arc;

use gcopss_game::{MoveEvent, PlayerId};
use gcopss_names::Name;
use gcopss_sim::{AdmissionPolicy, OverloadConfig, SimDuration, SimTime, StreamConfig};

use crate::broker::{partition_cds_to_brokers, SnapshotBroker, SnapshotMode};
use crate::router::cs_prefix_key;
use crate::scenario::{viewers_by_cd, GcopssConfig, NetworkSpec, WARMUP};
use crate::{drops, SimParams, SnapName};

use super::{RunSummary, TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// RP-balancing policy of one run arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpPolicy {
    /// No balancing at all: the hot RP keeps everything (control arm).
    Off,
    /// The fixed queue-length threshold of §IV-B
    /// ([`SimParams::rp_split_queue_threshold`]).
    Static,
    /// Telemetry-driven trigger: queue EWMA + served-rate skew with
    /// hysteresis ([`crate::params::adaptive_rp`]).
    Adaptive,
}

impl RpPolicy {
    /// Stable label fragment.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Static => "static",
            Self::Adaptive => "adaptive",
        }
    }
}

/// Cache-class policy of one run arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// One fixed short freshness for all snapshot Data.
    Static,
    /// Popularity-driven per-prefix promotion
    /// ([`crate::params::adaptive_cache`]).
    Adaptive,
}

impl CachePolicy {
    /// Stable label fragment.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::Adaptive => "adaptive",
        }
    }
}

/// Initial RPs.
const RP_COUNT: usize = 3;
/// Index of the hot level-1 zone (into the sorted level-1 prefixes).
pub const HOT_TOP: usize = 1;
/// Hotspot onset as a fraction (num, den) of the trace span.
pub const HOT_ONSET: (u64, u64) = (1, 4);
/// Fraction (num, den) of post-onset events remapped onto the hot zone's
/// leaf CDs.
pub const HOT_SHARE: (u32, u32) = (3, 4);
/// Network-wide mean update inter-arrival of the RP arm — fast enough that
/// the concentrated hotspot saturates one RP: with the 3.3 ms RP service,
/// concentrating 3/4 of this on one RP runs it at ρ ≈ 2 while the aggregate
/// stays near capacity.
const RP_INTERARRIVAL: SimDuration = SimDuration::from_micros(1_200);
/// Network-wide mean update inter-arrival of the cache arm — benign, so
/// snapshot traffic dominates the router content stores.
const CACHE_INTERARRIVAL: SimDuration = SimDuration::from_micros(2_400);
/// Bounded queue depth of the RP arm (drop-tail with control-class
/// priority: overflow sheds data, never the split protocol).
pub const QUEUE_CAPACITY: usize = 64;
/// The static policy's split threshold (instantaneous queue length). Below
/// the drop point but deep: the static trigger only fires once the queue is
/// already 3/4 full.
const STATIC_THRESHOLD: usize = 48;
/// Roll period of the adaptive arms' metric streams. 25 ms rolls: the EWMA
/// tracks a saturating queue within a few service times instead of lagging
/// a 50 ms grid.
const STREAM_TICK: SimDuration = SimDuration::from_millis(25);
/// Spacing between consecutive crowd arrivals.
const CROWD_GAP: SimDuration = SimDuration::from_millis(150);
/// QR pipelining window of the movers.
pub const QR_WINDOW: u32 = 5;

/// Configuration of the adaptive-control sweep.
#[derive(Debug, Clone)]
pub struct AdaptiveSweepConfig {
    /// Workload shape (players, updates, seed). `mean_interarrival` is
    /// overridden per arm.
    pub workload: WorkloadParams,
    /// Flash-crowd size (movers entering the hot area).
    pub crowd_size: usize,
    /// Extra simulated time after the last trace event.
    pub drain: SimDuration,
}

impl Default for AdaptiveSweepConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadParams {
                players: 150,
                updates: 20_000,
                ..WorkloadParams::default()
            },
            crowd_size: 36,
            drain: SimDuration::from_secs(15),
        }
    }
}

/// One RP-arm run's outcome.
#[derive(Debug, Clone)]
pub struct RpRow {
    /// Balancing policy of the run.
    pub policy: RpPolicy,
    /// When each RP split fired (simulated time), in order.
    pub splits: Vec<SimTime>,
    /// Splits fired by the adaptive trigger specifically.
    pub triggered: u64,
    /// The audited run, labelled `rp-adaptive`, ….
    pub run: RunSummary,
}

impl RpRow {
    /// One formatted table row.
    #[must_use]
    pub fn row(&self) -> String {
        let r = &self.run;
        format!(
            "{:<14} {:>8.4} {:>9.2} {:>9.2} {:>8} {:>4} {:>4}",
            r.label,
            r.delivery_ratio(),
            r.p50.as_millis_f64(),
            r.p99.as_millis_f64(),
            r.dropped(drops::QUEUE_FULL),
            self.splits.len(),
            self.triggered,
        )
    }
}

/// One cache-arm run's outcome.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Cache-class policy of the run.
    pub policy: CachePolicy,
    /// Moves completed (convergence records).
    pub moves: usize,
    /// Mean snapshot convergence time across completed moves.
    pub mean_convergence: SimDuration,
    /// Router content-store hits (all routers, all lookups).
    pub cs_hit: u64,
    /// Router content-store misses.
    pub cs_miss: u64,
    /// `cs_hit / (cs_hit + cs_miss)`.
    pub hit_rate: f64,
    /// Hit-rate on the hotspot prefix, from the live popularity sketches
    /// (`cs-hit-pop` / `cs-req-pop`), sampled at the crowd peak — the
    /// sketches are recency-biased and decay to empty by the horizon.
    /// `None` when streams are off.
    pub hot_hit_rate: Option<f64>,
    /// Snapshot objects served by brokers (QR responses).
    pub broker_served: u64,
    /// Cache-class promotions the broker executed.
    pub promotions: u64,
    /// Cache-class demotions.
    pub demotions: u64,
    /// The run, labelled `cache-adaptive`, ….
    pub run: RunSummary,
}

impl CacheRow {
    /// One formatted table row.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<16} {:>5} {:>9.2} {:>8.4} {:>8} {:>8} {:>4} {:>4}",
            self.run.label,
            self.moves,
            self.mean_convergence.as_millis_f64(),
            self.hit_rate,
            self.cs_hit,
            self.broker_served,
            self.promotions,
            self.demotions,
        )
    }
}

/// The sweep's full output.
#[derive(Debug, Clone)]
pub struct AdaptiveOutput {
    /// RP arm: off / static / adaptive, same seed.
    pub rp_rows: Vec<RpRow>,
    /// Cache arm: static / adaptive, same seed.
    pub cache_rows: Vec<CacheRow>,
}

/// The hot one ([`HOT_TOP`]) of the map's sorted level-1 prefixes.
fn hot_prefix(map: &gcopss_game::GameMap) -> Name {
    let mut tops: Vec<Name> = map.leaf_cds().iter().map(|cd| cd.prefix(1)).collect();
    tops.sort();
    tops.dedup();
    tops[HOT_TOP % tops.len()].clone()
}

/// Builds the RP arm's workload: a counter-strike trace whose post-onset
/// events are partially remapped onto the hot zone's leaf CDs (publishers
/// are remapped with them, onto viewers of the target CD, so the AoI
/// delivery model stays exact).
fn hotspot_workload(cfg: &AdaptiveSweepConfig) -> Workload {
    let mut w = Workload::counter_strike(&WorkloadParams {
        mean_interarrival: RP_INTERARRIVAL,
        ..cfg.workload.clone()
    });
    let hot = hot_prefix(&w.map);
    let viewers = viewers_by_cd(&w.map, &w.population);
    let hot_cds: Vec<(&Name, &Vec<PlayerId>)> = viewers
        .iter()
        .map(|(cd, who)| (*cd, who))
        .filter(|(cd, _)| hot.is_prefix_of(cd))
        .collect();
    let onset = w.span().as_nanos() / HOT_ONSET.1 * HOT_ONSET.0;
    let (num, den) = HOT_SHARE;
    let mut trace = (*w.trace).clone();
    for (i, e) in trace.iter_mut().enumerate() {
        if e.time_ns < onset || (i as u32) % den >= num {
            continue;
        }
        let (cd, who) = hot_cds[i % hot_cds.len()];
        if who.is_empty() {
            continue;
        }
        e.cd = cd.clone();
        e.player = who[i % who.len()];
    }
    w.trace = Arc::new(trace);
    w
}

/// Runs the full sweep, harvesting one telemetry report per run when `cap`
/// is on.
#[must_use]
pub fn run(cfg: &AdaptiveSweepConfig, cap: &mut TelemetryCapture) -> AdaptiveOutput {
    let rp_rows = run_rp_arm(cfg, cap);
    let cache_rows = run_cache_arm(cfg, cap);
    AdaptiveOutput {
        rp_rows,
        cache_rows,
    }
}

/// The RP arm: hotspot trace, bounded queues, three balancing policies.
fn run_rp_arm(cfg: &AdaptiveSweepConfig, cap: &mut TelemetryCapture) -> Vec<RpRow> {
    let w = hotspot_workload(cfg);
    let net = NetworkSpec::default_backbone(NET_SEED);
    let horizon = SimTime::ZERO + WARMUP + w.span() + cfg.drain;
    // Bounded queues with control-class priority: overflow sheds data
    // (recorded on the lineage), never the Subscribe/split protocol — so
    // the ablation compares balancing policies, not control-plane luck.
    let overload = OverloadConfig {
        queue_capacity: Some(QUEUE_CAPACITY),
        policy: AdmissionPolicy::DropTail,
        priority: true,
        mark_sojourn: None,
    };

    let mut rows = Vec::new();
    for policy in [RpPolicy::Off, RpPolicy::Static, RpPolicy::Adaptive] {
        let label = format!("rp-{}", policy.as_str());
        let mut params = SimParams::default();
        let mut stream = StreamConfig::default();
        match policy {
            RpPolicy::Off => {}
            RpPolicy::Static => params = params.with_auto_balancing(STATIC_THRESHOLD),
            RpPolicy::Adaptive => {
                params.rp_adaptive = true;
                stream = StreamConfig::every(STREAM_TICK);
            }
        }
        let sys = GcopssConfig {
            params,
            rp_count: RP_COUNT,
            stream,
            ..GcopssConfig::default()
        };
        // No fault is injected, so no damage window is granted: every miss
        // must be explained by a drop record.
        let spec = w.spec(&net).gcopss(sys).overload(overload.clone());
        let (sim, run) = cap.run_audited(&label, spec, &w, horizon, |_| None);
        let world = sim.world();
        rows.push(RpRow {
            policy,
            splits: world.splits.iter().map(|s| s.at).collect(),
            triggered: world.counter("rp-move-triggered"),
            run,
        });
    }
    rows
}

/// The cache arm: flash crowd into one area, QR snapshots, two cache
/// policies.
fn run_cache_arm(cfg: &AdaptiveSweepConfig, cap: &mut TelemetryCapture) -> Vec<CacheRow> {
    let w = Workload::counter_strike(&WorkloadParams {
        mean_interarrival: CACHE_INTERARRIVAL,
        ..cfg.workload.clone()
    });
    let net = NetworkSpec::default_backbone(NET_SEED);
    let span_ns = w.span().as_nanos();
    let hot = hot_prefix(&w.map);
    let hot_cd = w
        .map
        .leaf_cds()
        .iter()
        .find(|cd| hot.is_prefix_of(cd))
        .expect("hot zone has leaf CDs")
        .clone();
    let hot_area = w.map.area_of_leaf_cd(&hot_cd).expect("leaf CD");
    // The sketch key every `/snapshot` query of the hot CD is filed under.
    let cd = hot_cd.components();
    let hot_key = cs_prefix_key(&SnapName::Meta { cd }.prefix());

    // The flash crowd: `crowd_size` players (not already in the hot area,
    // spread over the population) move into it one `crowd_gap` apart,
    // starting a third into the trace.
    let mut moves: Vec<MoveEvent> = Vec::new();
    let mut t = span_ns / 3;
    for p in w.population.players() {
        if moves.len() == cfg.crowd_size {
            break;
        }
        let from = w.population.area_of(p);
        if from == hot_area {
            continue;
        }
        let Some(move_type) = w.map.classify_move(from, hot_area) else {
            continue;
        };
        let snapshot_cds = w.map.snapshot_cds_for_move(from, hot_area);
        if snapshot_cds.is_empty() {
            continue;
        }
        moves.push(MoveEvent {
            time_ns: t,
            player: p,
            from,
            to: hot_area,
            move_type,
            snapshot_cds,
        });
        t += CROWD_GAP.as_nanos();
    }
    let crowd_end = moves.last().map_or(span_ns, |m| m.time_ns);
    let horizon =
        SimTime::ZERO + WARMUP + SimDuration::from_nanos(span_ns.max(crowd_end)) + cfg.drain;
    // Brokers with prewarmed object models (snapshot sizes in the
    // end-of-trace regime from the first move).
    let broker_objects = w.converged_objects();
    let pool = net.rp_pool_preview();

    let mut rows = Vec::new();
    for policy in [CachePolicy::Static, CachePolicy::Adaptive] {
        let label = format!("cache-{}", policy.as_str());
        let adaptive = policy == CachePolicy::Adaptive;
        let params = SimParams {
            cache_adaptive: adaptive,
            ..SimParams::default()
        };
        let extra_hosts = SnapshotBroker::hosts(
            partition_cds_to_brokers(&w.map, 3),
            |i| pool[(RP_COUNT + i) % pool.len()],
            false,
            &params,
            &broker_objects,
            &w.trace,
        );
        let gcfg = GcopssConfig {
            params,
            rp_count: RP_COUNT,
            stream: if adaptive {
                StreamConfig::every(STREAM_TICK)
            } else {
                StreamConfig::default()
            },
            ..GcopssConfig::default()
        };
        let spec = w.spec(&net).gcopss(gcfg).extra_hosts(extra_hosts).moves(
            moves.clone(),
            SnapshotMode::QueryResponse { window: QR_WINDOW },
        );
        // Sample the live sketches at the crowd peak, not the horizon: the
        // space-saving sketches are recency-biased (halved every window),
        // so by the end of the drain the flash crowd has decayed out of
        // them — which is the point. Pausing to read them is pure.
        let peak = (SimTime::ZERO
            + WARMUP
            + SimDuration::from_nanos(crowd_end)
            + SimDuration::from_secs(2))
        .min(horizon);
        let mut hot_hit_rate = None;
        let sim = cap.run(&label, spec, |sim| {
            sim.run_until(peak);
            hot_hit_rate = sim.streams_active().then(|| {
                let pop = |sketch| {
                    sim.streams()
                        .sketch(sketch)
                        .and_then(|s| s.count_of(hot_key))
                        .map_or(0, |(c, _)| c)
                };
                match (pop("cs-req-pop"), pop("cs-hit-pop")) {
                    (0, _) => 0.0,
                    (req, hit) => hit as f64 / req as f64,
                }
            });
            sim.run_until(horizon);
        });
        let world = sim.world();
        let done: Vec<SimDuration> = world
            .convergence
            .iter()
            .filter(|r| !r.online_join)
            .map(|r| r.convergence)
            .collect();
        let mean_convergence = if done.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                done.iter().map(|d| d.as_nanos()).sum::<u64>() / done.len() as u64,
            )
        };
        let cs_hit = world.counter("cs-hit");
        let cs_miss = world.counter("cs-miss");
        rows.push(CacheRow {
            policy,
            moves: done.len(),
            mean_convergence,
            cs_hit,
            cs_miss,
            hit_rate: if cs_hit + cs_miss == 0 {
                0.0
            } else {
                cs_hit as f64 / (cs_hit + cs_miss) as f64
            },
            hot_hit_rate,
            broker_served: world.counter("broker-qr-served"),
            promotions: world.counter("cache-class-promotions"),
            demotions: world.counter("cache-class-demotions"),
            run: RunSummary::of(label, &sim, &w),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> AdaptiveSweepConfig {
        AdaptiveSweepConfig {
            workload: WorkloadParams {
                players: 80,
                updates: 8_000,
                ..WorkloadParams::default()
            },
            crowd_size: 16,
            drain: SimDuration::from_secs(10),
        }
    }

    /// The ablation's headline: under the same seed, the adaptive RP
    /// trigger splits earlier than the static threshold (fewer overflow
    /// drops, no worse p99), and the adaptive cache class absorbs the
    /// flash crowd in the routers' content stores.
    #[test]
    fn adaptive_beats_static_under_hotspot() {
        let out = run(&mini_cfg(), &mut TelemetryCapture::off());
        for r in &out.rp_rows {
            eprintln!("{} splits_at={:?}", r.row(), r.splits);
        }
        for r in &out.cache_rows {
            eprintln!("{}", r.row());
        }
        assert_eq!(out.rp_rows.len(), 3);
        assert_eq!(out.cache_rows.len(), 2);
        let rp = |p: RpPolicy| out.rp_rows.iter().find(|r| r.policy == p).expect("rp row");
        let off = rp(RpPolicy::Off);
        let stat = rp(RpPolicy::Static);
        let adap = rp(RpPolicy::Adaptive);

        let queue_full = |r: &RpRow| r.run.dropped(drops::QUEUE_FULL);
        // The hotspot actually bites: without balancing the bounded queue
        // overflows.
        assert!(queue_full(off) > 0, "hotspot never overflowed the queue");
        assert!(off.splits.is_empty());
        // Both balancing policies split; only the adaptive one is
        // stream-triggered.
        assert!(!stat.splits.is_empty(), "static threshold never fired");
        assert!(!adap.splits.is_empty(), "adaptive trigger never fired");
        assert_eq!(stat.triggered, 0);
        assert!(adap.triggered > 0, "no stream-triggered move recorded");
        // The win: strictly fewer overflow drops than the static trigger
        // (the `off` arm's raw drop count is not comparable — a publication
        // dropped at the saturated RP *before* fan-out silently suppresses
        // its whole multicast tree, which is exactly what its delivery
        // ratio shows).
        assert!(
            queue_full(adap) < queue_full(stat),
            "adaptive ({}) did not beat static ({}) on drops",
            queue_full(adap),
            queue_full(stat)
        );
        let ratio = |r: &RpRow| r.run.delivery_ratio();
        assert!(
            ratio(adap) > ratio(stat) && ratio(stat) > ratio(off),
            "delivery ratios not ordered: adaptive {} / static {} / off {}",
            ratio(adap),
            ratio(stat),
            ratio(off)
        );
        // Audited runs explain every owed pair.
        for r in &out.rp_rows {
            let clean = r.run.audit.as_ref().map(|a| a.report.is_clean());
            assert_eq!(clean, Some(true), "{}: audit not clean", r.run.label);
        }

        // Cache arm: promotion happened, and it paid.
        let cstat = &out.cache_rows[0];
        let cadap = &out.cache_rows[1];
        assert_eq!(cstat.policy, CachePolicy::Static);
        assert_eq!(cadap.policy, CachePolicy::Adaptive);
        assert!(cstat.moves > 0 && cadap.moves > 0, "no moves completed");
        assert!(cadap.promotions > 0, "no cache-class promotion");
        assert!(
            cadap.hit_rate > cstat.hit_rate,
            "adaptive hit rate {} <= static {}",
            cadap.hit_rate,
            cstat.hit_rate
        );
        assert!(
            cadap.broker_served < cstat.broker_served,
            "adaptive broker load {} >= static {}",
            cadap.broker_served,
            cstat.broker_served
        );
        assert!(cadap.hot_hit_rate.is_some());
        assert!(cstat.hot_hit_rate.is_none());
    }

    /// Equal seeds must produce byte-identical results, adaptive arms
    /// included — control decisions are made from deterministic streams.
    #[test]
    fn sweep_is_same_seed_deterministic() {
        let cfg = AdaptiveSweepConfig {
            workload: WorkloadParams {
                players: 50,
                updates: 4_000,
                ..WorkloadParams::default()
            },
            crowd_size: 10,
            drain: SimDuration::from_secs(8),
        };
        let a = run(&cfg, &mut TelemetryCapture::off());
        let b = run(&cfg, &mut TelemetryCapture::off());
        for (x, y) in a.rp_rows.iter().zip(&b.rp_rows) {
            let label = &x.run.label;
            assert_eq!(label, &y.run.label);
            assert_eq!(x.run.delivered, y.run.delivered, "{label}");
            assert_eq!(
                x.run.dropped(drops::QUEUE_FULL),
                y.run.dropped(drops::QUEUE_FULL),
                "{label}"
            );
            assert_eq!(x.splits, y.splits, "{label}");
            assert_eq!(x.triggered, y.triggered, "{label}");
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
                        "{label}"
                    );
                }
                (None, None) => {}
                _ => panic!("{label}: audit presence differs"),
            }
        }
        for (x, y) in a.cache_rows.iter().zip(&b.cache_rows) {
            let label = &x.run.label;
            assert_eq!(label, &y.run.label);
            assert_eq!(x.cs_hit, y.cs_hit, "{label}");
            assert_eq!(x.cs_miss, y.cs_miss, "{label}");
            assert_eq!(x.broker_served, y.broker_served, "{label}");
            assert_eq!(x.promotions, y.promotions, "{label}");
            assert_eq!(x.run.network_bytes, y.run.network_bytes, "{label}");
            assert_eq!(x.hot_hit_rate, y.hot_hit_rate, "{label}");
        }
    }
}
