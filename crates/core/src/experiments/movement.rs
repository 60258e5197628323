//! Table III: snapshot convergence time for moving players, comparing the
//! query/response (QR, windows 5 and 15) and cyclic-multicast dissemination
//! modes, with 3 brokers.

use gcopss_game::{MoveType, MovementModel, ObjectModel};
use gcopss_names::Name;
use gcopss_sim::{SimDuration, SimTime, Simulator};

use crate::broker::{partition_cds_to_brokers, snapcast_ns, SnapshotBroker, SnapshotMode};
use crate::scenario::{GcopssConfig, NetworkSpec, WARMUP};
use crate::{GPacket, GameWorld, MetricsMode, SimParams};

use super::{TelemetryCapture, Workload, WorkloadParams, NET_SEED};

/// RPs for the update plane (paper: 3).
const RP_COUNT: usize = 3;
/// Snapshot brokers (paper: 3).
const BROKER_COUNT: usize = 3;

/// Configuration of the movement experiment.
#[derive(Debug, Clone)]
pub struct MovementConfig {
    /// The update workload running underneath the movements.
    pub workload: WorkloadParams,
    /// Per-player interval between moves. The paper uses 5–35 min over a
    /// 7-hour trace; scale this with the trace length so every run sees
    /// enough moves.
    pub move_interval: (SimDuration, SimDuration),
    /// How many players execute movement schedules (the rest stay put).
    /// Scaled-down traces must also scale the *move rate* — the paper's
    /// 414 movers over 7 hours average ≈0.35 moves/s network-wide; pushing
    /// all 414 through a 40 s trace would melt the brokers' access links
    /// instead of measuring dissemination.
    pub mover_count: usize,
    /// Extra simulated time after the last trace event for fetches to
    /// finish.
    pub drain: SimDuration,
}

impl Default for MovementConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadParams::default(),
            move_interval: (
                SimDuration::from_secs(300),
                SimDuration::from_secs(2_100),
            ),
            mover_count: 80,
            drain: SimDuration::from_secs(60),
        }
    }
}

/// One Table III row: statistics of one movement type under one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveTypeRow {
    /// The movement classification.
    pub move_type: MoveType,
    /// Moves of this type observed.
    pub count: usize,
    /// Mean number of leaf-CD snapshots downloaded.
    pub leaf_cds: f64,
    /// Mean convergence time.
    pub mean: SimDuration,
    /// Half-width of the 95% confidence interval.
    pub ci95: SimDuration,
    /// Snapshot payload bytes received by the movers (sum).
    pub bytes: u64,
}

/// The result of one mode's run.
#[derive(Debug, Clone)]
pub struct MovementOutput {
    /// Mode label (`QR, window = 5` / `Cyclic-Multicast` …).
    pub label: String,
    /// Rows in Table III order.
    pub rows: Vec<MoveTypeRow>,
    /// Overall convergence mean across all snapshot-requiring moves.
    pub total_mean: SimDuration,
    /// Overall 95% CI half-width.
    pub total_ci95: SimDuration,
    /// Total moves completed.
    pub moves: usize,
    /// Total snapshot payload bytes received by movers.
    pub snapshot_bytes: u64,
    /// Aggregate network load of the whole run (updates + snapshots).
    pub network_bytes: u64,
    /// Snapshot objects served by brokers (QR responses or cyclic sends).
    pub broker_served: u64,
}

fn mean_ci(samples: &[SimDuration]) -> (SimDuration, SimDuration) {
    if samples.is_empty() {
        return (SimDuration::ZERO, SimDuration::ZERO);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().map(|d| d.as_secs_f64()).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|d| (d.as_secs_f64() - mean).powi(2))
        .sum::<f64>()
        / n.max(1.0);
    let ci = 1.96 * (var / n).sqrt();
    (
        SimDuration::from_secs_f64(mean),
        SimDuration::from_secs_f64(ci),
    )
}

/// Builds one snapshot mode's scenario over `w` — the workload of
/// `cfg.workload`, with `objects` its [`Workload::converged_objects`], both
/// built once per driver call — and runs it to the horizon (harvesting a
/// telemetry report when `cap` is on); returns the finished simulator.
fn simulate(
    cfg: &MovementConfig,
    w: &Workload,
    objects: &ObjectModel,
    mode: SnapshotMode,
    cap: &mut TelemetryCapture,
) -> Simulator<GPacket, GameWorld> {
    let net = NetworkSpec::default_backbone(NET_SEED);
    let trace_span = w.span();

    // Movement schedule for every player.
    let model = MovementModel::new((
        cfg.move_interval.0.as_nanos(),
        cfg.move_interval.1.as_nanos(),
    ));
    let mut moves =
        model.generate(cfg.workload.seed ^ 0x77, &w.map, &w.population, trace_span.as_nanos());
    // Spread the movers across the whole population (player ids are
    // assigned area by area, so a prefix would bias toward upper layers).
    let stride = (w.population.len() / cfg.mover_count.max(1)).max(1);
    moves.retain(|m| m.player.index() % stride == 0);

    // Brokers with prewarmed object models, offset past the game-RP
    // placements so they get their own cores. Each broker's /snapcast
    // groups are anchored at a dedicated RP on that same core: bulk
    // snapshot streams never queue behind the latency-critical game RPs.
    let serving = partition_cds_to_brokers(&w.map, BROKER_COUNT);
    let pool = net.rp_pool_preview();
    let attach_at = |i: usize| pool[(RP_COUNT + i) % pool.len()];
    let snapcast_rp = |(i, cds): (usize, &Vec<Name>)| {
        let prefixes = cds.iter().map(|cd| snapcast_ns().join(cd)).collect();
        (prefixes, attach_at(i))
    };
    let extra_rps = serving.iter().enumerate().map(snapcast_rp).collect();
    let params = SimParams::default();
    let extra_hosts = SnapshotBroker::hosts(
        serving,
        attach_at,
        false,
        &params,
        objects,
        &w.trace,
    );

    let gcfg = GcopssConfig {
        params,
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: RP_COUNT,
        extra_rps,
        ..GcopssConfig::default()
    };
    let spec = w
        .spec(&net)
        .gcopss(gcfg)
        .extra_hosts(extra_hosts)
        .moves(moves, mode);
    let horizon = SimTime::ZERO + WARMUP + trace_span + cfg.drain;
    let label = match mode {
        SnapshotMode::QueryResponse { window } => format!("qr-w{window}"),
        SnapshotMode::CyclicMulticast => "cyclic".to_string(),
    };
    cap.run(&label, spec, |sim| sim.run_until(horizon))
}

/// Runs one snapshot mode over `w` (with `objects` its
/// [`Workload::converged_objects`]) and tabulates its convergence records.
/// A caller comparing modes builds both once and passes them to every call.
#[must_use]
pub fn run_mode(
    cfg: &MovementConfig,
    w: &Workload,
    objects: &ObjectModel,
    mode: SnapshotMode,
    cap: &mut TelemetryCapture,
) -> MovementOutput {
    let sim = simulate(cfg, w, objects, mode, cap);
    let network_bytes = sim.total_link_bytes();
    let world = sim.into_world();
    // QR fetches run on the catch-up pipeline, so its exactly-once ledger
    // covers them: every Interest a mover sent was answered once, or
    // written off when the next move superseded its fetch — or is still owed
    // by a fetch the horizon cut short (QR window 1 needs minutes).
    let audit = world.catchup_ledger.audit();
    let fetched = world.convergence.iter().filter(|r| r.leaf_cds > 0).count() as u64;
    let cut_short =
        world.counter("mover-fetches-started") - fetched - world.counter("mover-fetch-superseded");
    assert!(
        audit.over_delivered == 0 && (audit.outstanding == 0 || cut_short > 0),
        "{mode:?}: fetch ledger dirty ({} outstanding, {} over-delivered, {cut_short} unfinished)",
        audit.outstanding,
        audit.over_delivered
    );

    // Group records by movement type.
    let mut rows = Vec::new();
    let mut all = Vec::new();
    let mut snapshot_bytes = 0u64;
    for t in MoveType::all() {
        let recs: Vec<_> = world
            .convergence
            .iter()
            .filter(|r| r.move_type == t && !r.online_join)
            .collect();
        let samples: Vec<SimDuration> = recs.iter().map(|r| r.convergence).collect();
        let bytes: u64 = recs.iter().map(|r| r.bytes).sum();
        snapshot_bytes += bytes;
        // Descending moves converge instantly and are excluded from the
        // total (the paper's total covers snapshot-requiring moves).
        if t != MoveType::ToLowerLayer {
            all.extend(samples.iter().copied());
        }
        let (mean, ci95) = mean_ci(&samples);
        rows.push(MoveTypeRow {
            move_type: t,
            count: recs.len(),
            leaf_cds: if recs.is_empty() {
                0.0
            } else {
                recs.iter().map(|r| r.leaf_cds as f64).sum::<f64>() / recs.len() as f64
            },
            mean,
            ci95,
            bytes,
        });
    }
    let (total_mean, total_ci95) = mean_ci(&all);
    let label = match mode {
        SnapshotMode::QueryResponse { window } => format!("QR, window = {window}"),
        SnapshotMode::CyclicMulticast => "Cyclic-Multicast".to_string(),
    };
    MovementOutput {
        label,
        rows,
        total_mean,
        total_ci95,
        moves: world.convergence.len(),
        snapshot_bytes,
        network_bytes,
        broker_served: world.counter("broker-qr-served") + world.counter("broker-cyclic-sent"),
    }
}

/// Runs the paper's three modes: QR window 5, QR window 15, cyclic (one
/// telemetry report per mode when `cap` is on).
#[must_use]
pub fn run_all(cfg: &MovementConfig, cap: &mut TelemetryCapture) -> Vec<MovementOutput> {
    let w = Workload::counter_strike(&cfg.workload);
    let objects = w.converged_objects();
    [
        SnapshotMode::QueryResponse { window: 5 },
        SnapshotMode::QueryResponse { window: 15 },
        SnapshotMode::CyclicMulticast,
    ]
    .into_iter()
    .map(|mode| run_mode(cfg, &w, &objects, mode, cap))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> MovementConfig {
        MovementConfig {
            workload: WorkloadParams {
                updates: 3_000,
                players: 100,
                ..WorkloadParams::default()
            },
            // Trace spans ~7.2 s; 12 movers, one move each every 2–4 s.
            move_interval: (SimDuration::from_secs(2), SimDuration::from_secs(4)),
            mover_count: 12,
            // Idle after the trace ends: cyclic in 3.5 s, QR w15 in 16 s,
            // QR w5 in 29 s.
            drain: SimDuration::from_secs(30),
        }
    }

    /// [`simulate`] over the mini workload, built here.
    fn simulate_mini(mode: SnapshotMode) -> Simulator<GPacket, GameWorld> {
        let cfg = mini_cfg();
        let w = Workload::counter_strike(&cfg.workload);
        simulate(&cfg, &w, &w.converged_objects(), mode, &mut TelemetryCapture::off())
    }

    /// Moves completed, some of them with a real download, and every fetch
    /// a mover started either finished or was superseded by its next move.
    fn assert_fetches_end(world: &GameWorld) {
        assert!(!world.convergence.is_empty(), "no moves completed");
        let fetched: Vec<_> = world.convergence.iter().filter(|r| r.leaf_cds > 0).collect();
        assert!(fetched.iter().any(|r| r.bytes > 0 && r.convergence > SimDuration::ZERO));
        assert_eq!(
            world.counter("mover-fetches-started"),
            fetched.len() as u64 + world.counter("mover-fetch-superseded"),
            "a fetch neither finished nor was superseded"
        );
    }

    /// QR mode completes its moves, and the books balance: every fetch
    /// ends, and every Interest a mover sent was answered exactly once or
    /// written off with its superseded fetch.
    #[test]
    fn qr_mode_completes_moves() {
        let sim = simulate_mini(SnapshotMode::QueryResponse { window: 15 });
        let world = sim.world();
        assert_fetches_end(world);
        let audit = world.catchup_ledger.audit();
        assert!(audit.clean(), "{audit:?}");
        assert!(audit.delivered > 0);
        assert_eq!(audit.written_off > 0, world.counter("mover-fetch-superseded") > 0);
    }

    /// Cyclic mode completes its moves, and the books balance: every join
    /// and leave a mover sends reaches a broker, every fetch ends, and the
    /// streams stop — the simulator is idle before the horizon.
    #[test]
    fn cyclic_mode_completes_moves() {
        let sim = simulate_mini(SnapshotMode::CyclicMulticast);
        let world = sim.world();
        assert_fetches_end(world);

        let joins = world.counter("mover-joins-sent");
        assert!(joins > 0, "no mover joined a stream");
        assert_eq!(world.counter("broker-cyclic-joins"), joins, "joins lost on the way");
        assert_eq!(
            world.counter("broker-cyclic-leaves"),
            world.counter("mover-leaves-sent"),
            "leaves lost on the way"
        );
        assert_eq!(joins, world.counter("mover-leaves-sent"), "a mover never left a group");
        // No stream outlives its last leave: nothing is pending any more.
        assert!(sim.is_idle(), "still multicasting at the horizon ({})", sim.now());
    }

    #[test]
    fn wider_qr_window_is_faster() {
        let cfg = mini_cfg();
        let w = Workload::counter_strike(&cfg.workload);
        let objects = w.converged_objects();
        let run = |window| {
            let mode = SnapshotMode::QueryResponse { window };
            run_mode(&cfg, &w, &objects, mode, &mut TelemetryCapture::off())
        };
        let (qr5, qr15) = (run(5), run(15));
        assert!(
            qr15.total_mean < qr5.total_mean,
            "window 15 ({}) should beat window 5 ({})",
            qr15.total_mean,
            qr5.total_mean
        );
    }
}
