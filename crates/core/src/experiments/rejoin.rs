//! Mass-reconnect (rejoin) storm: an RP crash takes part of the update
//! plane down and, at the same instant, half the players lose their access
//! links (the flash-crowd disconnect the crash models). RP failover repairs
//! the delivery plane while they are gone; when the access links return the
//! whole cohort rejoins at once and every member triggers a recovery
//! catch-up against the snapshot brokers.
//! The experiment plays the identical storm twice, once with the naive
//! [`CatchUpMode::FullSnapshot`] strategy (re-fetch every object) and once
//! with [`CatchUpMode::ChunkedDelta`] (fetch per-CD manifests, diff against
//! the client's persistent chunk store, fetch only the missing chunks), and
//! compares the catch-up bytes moved and the catch-up latency.
//!
//! Every run also closes the catch-up ledger: each owed
//! (manifest | chunk | snapshot-object, subscriber) pair must be delivered
//! exactly once per owe, with nothing over-delivered — the app-level
//! exactly-once guarantee the network-level lineage auditor cannot provide
//! for this path (Content-Store hits break causal lineage).

use gcopss_sim::{FaultPlan, SimDuration, SimTime};

use crate::broker::{partition_cds_to_brokers, SnapshotBroker};
use crate::scenario::{GcopssConfig, NetworkSpec};
use crate::{
    CatchUpAudit, CatchUpConfig, CatchUpMode, GameWorld, MetricsMode, RecoveryConfig, SimParams,
};

use super::{TelemetryCapture, Workload, WorkloadParams};

/// Configuration of the rejoin storm.
#[derive(Debug, Clone)]
pub struct RejoinConfig {
    /// Update workload running underneath the storm.
    pub workload: WorkloadParams,
    /// Topology seed.
    pub net_seed: u64,
    /// Chaos-schedule seed.
    pub chaos_seed: u64,
    /// Game RPs (at least 2). The crash takes out the router hosting the
    /// last one, silencing its share of the update plane until a surviving
    /// RP claims the orphaned prefixes — failover needs a survivor to hand
    /// them to, so a lone RP would leave the crash unrepairable.
    pub rp_count: usize,
    /// Snapshot brokers serving the chunk/manifest/snapshot namespaces.
    pub broker_count: usize,
    /// Catch-up fetch window (outstanding Interests).
    pub window: u32,
    /// Catch-up stall-retry interval.
    pub retry: SimDuration,
    /// Client recovery tunables. The primary storm trigger is the access
    /// link coming back (`LinkUp` → resubscribe + resync); the watchdog is
    /// the backstop that flags clients that went deaf without losing their
    /// link, so it must be shorter than the outage.
    pub recovery: RecoveryConfig,
    /// Settling period before the first trace event.
    pub warmup: SimDuration,
    /// Extra simulated time after the last trace event before the horizon
    /// (catch-ups must drain completely for the ledger to close).
    pub drain: SimDuration,
}

impl Default for RejoinConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadParams {
                players: 120,
                updates: 8_000,
                // A calm background rate, not the paper's 2.4 ms peak: the
                // storm measures the catch-up plane, and the update plane
                // must leave it the link capacity (at peak rate both
                // catch-up modes become bandwidth-bound and the comparison
                // collapses). The world still drifts ~400 events per 5 % of
                // the span — the dedup signal the chunk store is up against.
                mean_interarrival: SimDuration::from_secs(1),
                ..WorkloadParams::default()
            },
            net_seed: 7,
            chaos_seed: 0x0e01_d007,
            rp_count: 2,
            broker_count: 3,
            window: 15,
            retry: SimDuration::from_secs(2),
            recovery: RecoveryConfig {
                // Far above the ~1.3 s inter-delivery gap of the calm
                // update rate (so healthy clients never look deaf), far
                // below the access outage (so cut-off clients always do).
                watchdog: SimDuration::from_secs(10),
                ..RecoveryConfig::default()
            },
            warmup: SimDuration::from_secs(2),
            // Generous: the full-snapshot baseline re-fetches the whole
            // visible object universe per client and the routers (not the
            // brokers) are the bottleneck, so its catch-up marathon takes
            // hundreds of simulated seconds to drain. Idle tail time is
            // nearly free in an event-driven simulator.
            drain: SimDuration::from_secs(600),
        }
    }
}

/// One mode's outcome.
#[derive(Debug, Clone)]
pub struct RejoinRow {
    /// Run label (`chunked-delta` / `full-snapshot`).
    pub label: String,
    /// The catch-up strategy.
    pub mode: CatchUpMode,
    /// Initial (prewarm) catch-ups completed before the crash.
    pub initial_catchups: u64,
    /// Recovery catch-ups completed after the crash — the storm size.
    pub recovery_catchups: u64,
    /// Catch-up payload bytes moved by the prewarm phase.
    pub initial_bytes: u64,
    /// Catch-up payload bytes moved by the recovery storm (the headline
    /// number: chunked-delta must move far fewer than full-snapshot).
    pub recovery_bytes: u64,
    /// Mean recovery catch-up latency (trigger to last byte).
    pub mean_latency: SimDuration,
    /// Worst recovery catch-up latency.
    pub max_latency: SimDuration,
    /// Chunks fetched over the network during recovery (`ChunkedDelta`).
    pub chunks_fetched: u64,
    /// Manifest chunks already held locally during recovery — the dedup win
    /// (`ChunkedDelta`).
    pub chunks_held: u64,
    /// Catch-up stall retries across the run.
    pub retries: u64,
    /// RP failovers executed (the crash must trigger at least one).
    pub rp_failovers: u64,
    /// Manifests whose chunks reassembled to exactly the manifest's bytes.
    pub reassembly_ok: u64,
    /// Reassembly integrity failures (must be zero).
    pub reassembly_failed: u64,
    /// The closed catch-up ledger.
    pub audit: CatchUpAudit,
    /// Deterministic fingerprint of the full ledger table.
    pub ledger_fingerprint: u64,
    /// Aggregate network load of the whole run.
    pub network_bytes: u64,
}

impl RejoinRow {
    /// One formatted table row.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<14} {:>8} {:>8} {:>12.1} {:>12.1} {:>10.1} {:>9} {:>9} {:>8}",
            self.label,
            self.initial_catchups,
            self.recovery_catchups,
            self.initial_bytes as f64 / 1e3,
            self.recovery_bytes as f64 / 1e3,
            self.mean_latency.as_millis_f64(),
            self.chunks_fetched,
            self.chunks_held,
            self.retries,
        )
    }
}

/// Both modes' outcomes over the identical storm.
#[derive(Debug, Clone)]
pub struct RejoinOutput {
    /// The chunked-delta run.
    pub chunked: RejoinRow,
    /// The full-snapshot baseline run.
    pub full: RejoinRow,
}

impl RejoinOutput {
    /// How many times more catch-up bytes the naive baseline moved during
    /// the recovery storm.
    #[must_use]
    pub fn recovery_byte_ratio(&self) -> f64 {
        self.full.recovery_bytes as f64 / (self.chunked.recovery_bytes as f64).max(1.0)
    }
}

fn summarize_mode(label: &str, mode: CatchUpMode, world: &GameWorld, bytes: u64) -> RejoinRow {
    let counter = |k: &str| world.counters.get(k).copied().unwrap_or(0);
    let (mut initial_catchups, mut recovery_catchups) = (0u64, 0u64);
    let (mut initial_bytes, mut recovery_bytes) = (0u64, 0u64);
    let (mut chunks_fetched, mut chunks_held) = (0u64, 0u64);
    let (mut lat_sum, mut lat_max, mut lat_n) = (SimDuration::ZERO, SimDuration::ZERO, 0u64);
    for r in &world.catchups {
        if r.recovery {
            recovery_catchups += 1;
            recovery_bytes += r.bytes;
            chunks_fetched += r.chunks_fetched;
            chunks_held += r.chunks_held;
            lat_sum += r.latency;
            lat_max = lat_max.max(r.latency);
            lat_n += 1;
        } else {
            initial_catchups += 1;
            initial_bytes += r.bytes;
        }
    }
    RejoinRow {
        label: label.to_string(),
        mode,
        initial_catchups,
        recovery_catchups,
        initial_bytes,
        recovery_bytes,
        mean_latency: if lat_n == 0 {
            SimDuration::ZERO
        } else {
            lat_sum / lat_n
        },
        max_latency: lat_max,
        chunks_fetched,
        chunks_held,
        retries: counter("client-catchup-retries"),
        rp_failovers: counter("rp-failovers"),
        reassembly_ok: counter("catchup-reassembly-ok"),
        reassembly_failed: counter("catchup-reassembly-failed"),
        audit: world.catchup_ledger.audit(),
        ledger_fingerprint: world.catchup_ledger.fingerprint(),
        network_bytes: bytes,
    }
}

fn run_mode(
    cfg: &RejoinConfig,
    w: &Workload,
    net: &NetworkSpec,
    mode: CatchUpMode,
    label: &str,
    cap: &mut TelemetryCapture,
) -> RejoinRow {
    let span = w.span();
    let at = |num: u64, den: u64| {
        SimTime::ZERO + cfg.warmup + SimDuration::from_nanos(span.as_nanos() * num / den)
    };

    // Brokers with prewarmed object models on their own cores, past the
    // game-RP placements, routing the snapshot QR namespaces plus the
    // chunked-delta namespaces (`/snapmani/<cd>` per broker, `/chunk` to
    // every broker).
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let extra_hosts = SnapshotBroker::hosts(
        partition_cds_to_brokers(&w.map, cfg.broker_count),
        |i| pool[(cfg.rp_count + i) % pool.len()],
        true,
        &params,
        &w.converged_objects(),
        &w.trace,
    );

    // The crash node hosts the last RP (the failover target set is the same
    // preview pool the scenario allocates from). At the crash instant the
    // storm cohort — every other player — also loses its access link; the
    // links return at 35 % of the span, after failover has repaired the
    // delivery plane, so the whole cohort rejoins at once with the world
    // drift of the outage window accumulated against its chunk store.
    let crash = pool[(cfg.rp_count.max(1) - 1) % pool.len()];
    let mut plan = FaultPlan::new(cfg.chaos_seed)
        .node_down(at(30, 100), crash)
        .node_up(at(50, 100), crash);
    for l in net
        .player_access_links(w.population.len())
        .into_iter()
        .step_by(2)
    {
        plan = plan.link_down(at(30, 100), l).link_up(at(35, 100), l);
    }

    let gcfg = GcopssConfig {
        params,
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: cfg.rp_count,
        warmup: cfg.warmup,
        recovery: Some(cfg.recovery.clone()),
        ..GcopssConfig::default()
    };
    // Prewarm at 25 % of the span: every client completes an initial
    // catch-up (filling its chunk store in `ChunkedDelta` mode) before the
    // crash at 30 % cuts the storm cohort off. The dedup win scales with
    // how little the world moved between this fetch and the rejoin fetch,
    // so the prewarm sits close to the crash.
    let cu = CatchUpConfig {
        mode,
        window: cfg.window,
        initial_at: Some(at(25, 100)),
        retry: cfg.retry,
    };
    let spec = w
        .spec(net)
        .gcopss(gcfg)
        .extra_hosts(extra_hosts)
        .catch_up(cu)
        .fault_plan(plan);

    let horizon = SimTime::ZERO + cfg.warmup + span + cfg.drain;
    let sim = cap.run(label, spec, |sim| sim.run_until(horizon));
    summarize_mode(label, mode, sim.world(), sim.total_link_bytes())
}

/// Runs the storm under both strategies, uninstrumented. The one driver
/// that keeps a second entry point: the frozen `benchmark/` spells this
/// signature.
#[must_use]
pub fn run(cfg: &RejoinConfig) -> RejoinOutput {
    run_with(cfg, &mut TelemetryCapture::off())
}

/// Runs the storm under both strategies, harvesting one telemetry report
/// per run when `cap` is on.
#[must_use]
pub fn run_with(cfg: &RejoinConfig, cap: &mut TelemetryCapture) -> RejoinOutput {
    let w = Workload::counter_strike(&cfg.workload);
    let net = NetworkSpec::default_backbone(cfg.net_seed);
    let chunked = run_mode(cfg, &w, &net, CatchUpMode::ChunkedDelta, "chunked-delta", cap);
    let full = run_mode(cfg, &w, &net, CatchUpMode::FullSnapshot, "full-snapshot", cap);
    RejoinOutput { chunked, full }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature storm: both modes recover, books close, and the delta path
    /// moves strictly fewer recovery bytes than the naive baseline.
    #[test]
    fn mini_rejoin_storm_delta_beats_full() {
        let base = RejoinConfig::default();
        let cfg = RejoinConfig {
            workload: WorkloadParams {
                players: 60,
                updates: 4_000,
                ..base.workload
            },
            ..base
        };
        let out = run(&cfg);
        for r in [&out.chunked, &out.full] {
            assert!(r.initial_catchups > 0, "{}: no prewarm ran", r.label);
            assert!(r.recovery_catchups > 0, "{}: no storm", r.label);
            assert!(r.rp_failovers >= 1, "{}: crash did not fail over", r.label);
            assert!(
                r.audit.clean(),
                "{}: ledger dirty ({} outstanding, {} over-delivered)",
                r.label,
                r.audit.outstanding,
                r.audit.over_delivered
            );
        }
        assert_eq!(out.chunked.reassembly_failed, 0, "chunk integrity broke");
        assert!(out.chunked.reassembly_ok > 0, "no manifest reassembled");
        assert!(
            out.chunked.chunks_held > out.chunked.chunks_fetched,
            "warm store held {} vs fetched {} — the delta path isn't deduping",
            out.chunked.chunks_held,
            out.chunked.chunks_fetched
        );
        assert!(
            out.recovery_byte_ratio() > 2.0,
            "delta moved {} recovery bytes vs full {} (ratio {:.2})",
            out.chunked.recovery_bytes,
            out.full.recovery_bytes,
            out.recovery_byte_ratio()
        );
    }
}

#[cfg(test)]
mod content_model {
    use super::*;
    use crate::broker::cd_snapshot_content;
    use gcopss_names::chunk::{ChunkStore, Chunker};

    /// The chunk-level stability contract the delta path depends on: with a
    /// storm-sized slice of the trace (10 % of the events) applied between
    /// two snapshots of the whole map, well over half of the chunks keep
    /// their content-addressed ids. If this regresses (e.g. the synthetic
    /// object content starts rewriting whole objects per version, or the
    /// chunk grain creeps above the object size), the rejoin experiment's
    /// dedup win silently disappears.
    #[test]
    fn storm_window_drift_keeps_most_chunks() {
        let w = Workload::counter_strike(&WorkloadParams {
            players: 60,
            updates: 4_000,
            ..WorkloadParams::default()
        });
        // Broker state model: full trace pre-applied (converged sizes),
        // then live events re-applied — exactly what run_mode sets up.
        let mut objects = w.converged_objects();
        let n25 = w.trace.len() * 25 / 100;
        let n35 = w.trace.len() * 35 / 100;
        for e in w.trace.iter().take(n25) {
            objects.apply_update(e.object, e.size);
        }
        let chunker = Chunker;
        let cds = w.map.leaf_cds();
        let mut store = ChunkStore::new();
        for cd in cds {
            let (_, blob) = cd_snapshot_content(&objects, cd);
            for c in chunker.chunks(&blob) {
                store.insert(c);
            }
        }
        // An unchanged world re-chunks to zero missing: the warm store
        // fully covers a re-fetch.
        for cd in cds {
            let (ep, blob) = cd_snapshot_content(&objects, cd);
            let m = chunker.manifest(ep, &blob);
            assert!(
                store.missing(&m).is_empty(),
                "unchanged world must not refetch ({cd})"
            );
        }
        for e in w.trace.iter().skip(n25).take(n35 - n25) {
            objects.apply_update(e.object, e.size);
        }
        let (mut total, mut miss) = (0usize, 0usize);
        for cd in cds {
            let (ep, blob) = cd_snapshot_content(&objects, cd);
            let m = chunker.manifest(ep, &blob);
            miss += store.missing(&m).len();
            total += m.chunks.len();
        }
        assert!(miss > 0, "the storm window must drift the world");
        assert!(
            miss * 2 < total,
            "storm-window drift dirtied {miss} of {total} chunks — \
             the content model lost its field-level update locality"
        );
    }
}
