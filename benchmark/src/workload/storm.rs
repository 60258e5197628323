//! `rejoin_storm`: the mass-reconnect storm of `experiments::rejoin`,
//! once with chunked-delta and once with full-snapshot catch-up.
//!
//! The storm is the library's — an RP crash at 30 % of the trace span, every
//! other player's access link down from 30 % to 35 %, a prewarm catch-up at
//! 25 %, brokers past the RP placements, every tunable
//! `RejoinConfig::default()`'s — but it is assembled here from the same
//! public parts rather than through `rejoin::run`, which generates its own
//! trace and returns only after both runs: the benchmark needs the seeded
//! trace of [`game_workload`], set-up apart from the pass, and a span
//! around each build and each `run_until`. What holds the copy to the
//! original is the warm-up: it plays the library's own trace through the
//! copy and through `rejoin::run`, and the run fails unless both close the
//! same books.

use std::sync::Arc;

use gcopss_core::broker::{partition_cds_to_brokers, SnapshotBroker};
use gcopss_core::experiments::rejoin::{self, RejoinConfig, RejoinRow};
use gcopss_core::experiments::{Workload as GameWorkload, WorkloadParams};
use gcopss_core::scenario::{
    expected_deliveries, ExtraHost, GcopssConfig, NetworkSpec, ScenarioSpec,
};
use gcopss_core::{CatchUpConfig, CatchUpMode, GPacket, GameWorld, SimParams};
use gcopss_sim::{FaultPlan, SimDuration, SimTime, Simulator};

use super::{game_workload, Rep, Workload, DEFINITION_SEED, NET_SEED};
use crate::spans::Spans;
use crate::HEAP;

pub struct StormWorkload {
    pub players: usize,
    pub updates: usize,
    pub seed: u64,
}

/// One catch-up strategy's simulation, ready to run to its horizon.
struct Storm {
    sim: Simulator<GPacket, GameWorld>,
    horizon: SimTime,
}

fn assemble(cfg: &RejoinConfig, w: &GameWorkload, net: &NetworkSpec, mode: CatchUpMode) -> Storm {
    let span = SimDuration::from_nanos(w.trace.last().map_or(0, |e| e.time_ns));
    let at = |percent: u64| {
        SimTime::ZERO + cfg.warmup + SimDuration::from_nanos(span.as_nanos() * percent / 100)
    };

    // Brokers hold the converged object model (the whole trace applied).
    let mut converged = w.objects.clone();
    for e in w.trace.iter() {
        converged.apply_update(e.object, e.size);
    }
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let brokers = partition_cds_to_brokers(&w.map, cfg.broker_count)
        .into_iter()
        .enumerate()
        .map(|(i, cds)| {
            let mut routes = SnapshotBroker::fib_prefixes(&cds);
            routes.extend(SnapshotBroker::chunk_fib_prefixes(&cds));
            let (objects, trace, p) = (converged.clone(), Arc::clone(&w.trace), params.clone());
            ExtraHost {
                attach_to: pool[(cfg.rp_count + i) % pool.len()],
                routes,
                make: Box::new(move |_node, edge| {
                    Box::new(SnapshotBroker::new(p, edge, cds, objects, trace))
                }),
            }
        })
        .collect();

    let crash = pool[(cfg.rp_count - 1) % pool.len()];
    let mut plan = FaultPlan::new(cfg.chaos_seed)
        .node_down(at(30), crash)
        .node_up(at(50), crash);
    for link in net
        .player_access_links(w.population.len())
        .into_iter()
        .step_by(2)
    {
        plan = plan.link_down(at(30), link).link_up(at(35), link);
    }

    let sim = ScenarioSpec::new(net, &w.map, &w.population, &w.trace)
        .gcopss(GcopssConfig {
            params,
            rp_count: cfg.rp_count,
            warmup: cfg.warmup,
            recovery: Some(cfg.recovery.clone()),
            ..GcopssConfig::default()
        })
        .extra_hosts(brokers)
        .catch_up(CatchUpConfig {
            mode,
            window: cfg.window,
            initial_at: Some(at(25)),
            retry: cfg.retry,
        })
        .fault_plan(plan)
        .build()
        .into_gcopss()
        .sim;
    Storm {
        sim,
        horizon: SimTime::ZERO + cfg.warmup + span + cfg.drain,
    }
}

/// What one run's books came to: what the copy and the library must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    recovery_bytes: u64,
    ledger_fingerprint: u64,
    network_bytes: u64,
}

impl Books {
    fn of_library(row: &RejoinRow) -> Self {
        Books {
            recovery_bytes: row.recovery_bytes,
            ledger_fingerprint: row.ledger_fingerprint,
            network_bytes: row.network_bytes,
        }
    }
}

/// Closes one run's books into `rep`.
fn close(label: &str, storm: &Storm, rep: &mut Rep) -> Books {
    let world = storm.sim.world();
    let audit = world.catchup_ledger.audit();
    let reassembly_failed = world.counter("catchup-reassembly-failed");
    rep.attempted += audit.owed;
    rep.failed += audit.outstanding + audit.over_delivered + reassembly_failed;
    rep.check(audit.clean(), || {
        format!(
            "{label}: ledger dirty ({} outstanding, {} over-delivered)",
            audit.outstanding, audit.over_delivered
        )
    });
    rep.check(world.counter("rp-failovers") >= 1, || {
        format!("{label}: the crash did not fail over")
    });
    let recovery = world.catchups.iter().filter(|c| c.recovery);
    rep.check(recovery.clone().count() > 0, || {
        format!("{label}: no recovery catch-up ran")
    });
    Books {
        recovery_bytes: recovery.map(|c| c.bytes).sum(),
        ledger_fingerprint: world.catchup_ledger.fingerprint(),
        network_bytes: storm.sim.total_link_bytes(),
    }
}

/// Which trace a repetition plays.
#[derive(Clone, Copy)]
enum Trace {
    /// [`game_workload`]'s for the workload's seed.
    Seeded,
    /// The one `rejoin::run` generates for [`StormWorkload::config`].
    Library,
}

impl StormWorkload {
    /// The library's storm at this workload's size.
    fn config(&self) -> RejoinConfig {
        let base = RejoinConfig::default();
        RejoinConfig {
            workload: WorkloadParams {
                seed: DEFINITION_SEED,
                players: self.players,
                updates: self.updates,
                ..base.workload
            },
            net_seed: NET_SEED,
            ..base
        }
    }

    /// The span `setup`: the trace and both strategies' simulations.
    fn set_up(&self, trace: Trace, spans: &mut Spans) -> (GameWorkload, Storm, Storm) {
        let cfg = self.config();
        spans
            .scope("setup", 0, |s| {
                let (w, _) = s.scope("game.trace_gen", self.updates as u64, |_| match trace {
                    Trace::Seeded => game_workload(
                        self.seed,
                        self.players,
                        self.updates,
                        cfg.workload.mean_interarrival,
                    ),
                    Trace::Library => GameWorkload::counter_strike(&cfg.workload),
                });
                let net = NetworkSpec::default_backbone(cfg.net_seed);
                let mut build = |mode| {
                    s.scope("core.scenario.build", 0, |_| assemble(&cfg, &w, &net, mode))
                        .0
                };
                let (delta, full) = (
                    build(CatchUpMode::ChunkedDelta),
                    build(CatchUpMode::FullSnapshot),
                );
                (w, delta, full)
            })
            .0
    }

    /// One repetition on `trace`, and the books of its chunked-delta and
    /// full-snapshot runs.
    fn rep_on(&self, trace: Trace, spans: &mut Spans) -> (Rep, [Books; 2]) {
        let (w, mut delta, mut full) = self.set_up(trace, spans);

        let mut rep = Rep::default();
        HEAP.reset_peak();
        let before = HEAP.stats();
        spans.scope("pass", 0, |s| {
            for storm in [&mut delta, &mut full] {
                s.scope("sim.engine.run", 0, |_| storm.sim.run_until(storm.horizon));
            }
        });
        rep.heap = HEAP.stats().since(before);

        let delta_books = close("chunked-delta", &delta, &mut rep);
        let full_books = close("full-snapshot", &full, &mut rep);
        let (delta_bytes, full_bytes) = (delta_books.recovery_bytes, full_books.recovery_bytes);
        rep.check(full_bytes as f64 >= 2.0 * delta_bytes as f64, || {
            format!("full-snapshot moved {full_bytes} recovery bytes, chunked-delta {delta_bytes}: ratio below 2")
        });
        rep.check(
            delta.sim.world().counter("catchup-reassembly-ok") > 0,
            || "no manifest reassembled".to_string(),
        );

        // Simulated results are the chunked-delta run's (the system as
        // shipped); the network total covers both runs.
        let world = delta.sim.world();
        let counters =
            |k: &'static str| (delta.sim.world().counter(k) + full.sim.world().counter(k)) as f64;
        let events = delta.sim.events_processed() + full.sim.events_processed();
        rep.exact.extend([
            (
                "sim_latency_mean_ms",
                world.metrics.stats().mean().as_millis_f64(),
            ),
            (
                "sim_latency_p99_ms",
                world.metrics.latency_hist().quantile(0.99) as f64 / 1e6,
            ),
            (
                "sim_delivery_ratio",
                world.metrics.delivered() as f64
                    / expected_deliveries(&w.map, &w.population, &w.trace) as f64,
            ),
            (
                "sim_network_gb",
                (delta_books.network_bytes + full_books.network_bytes) as f64 / 1e9,
            ),
            ("game.trace_updates", w.trace.len() as f64),
            ("sim.engine.events_m", events as f64 / 1e6),
            ("core.rejoin.recovery_mb_delta", delta_bytes as f64 / 1e6),
            ("core.rejoin.recovery_mb_full", full_bytes as f64 / 1e6),
            ("core.rejoin.retries", counters("client-catchup-retries")),
            ("core.rejoin.failovers", counters("rp-failovers")),
        ]);
        (rep, [delta_books, full_books])
    }
}

impl Workload for StormWorkload {
    fn name(&self) -> &'static str {
        "rejoin_storm"
    }

    fn set_up_only(&self, spans: &mut Spans) {
        drop(self.set_up(Trace::Seeded, spans));
    }

    fn probes(&self, spans: &mut Spans) -> Vec<(&'static str, f64)> {
        let hosts = self.players + RejoinConfig::default().broker_count;
        vec![(
            "sim.routing.build_s",
            super::sim::routing_build_s(hosts, spans),
        )]
    }

    fn rep(&self, spans: &mut Spans) -> Rep {
        self.rep_on(Trace::Seeded, spans).0
    }

    /// The library's own trace through this file's copy of the storm, and
    /// through the library's: the copy measures `experiments::rejoin` only
    /// as long as the two close the same books.
    fn warm_up(&self, spans: &mut Spans) -> Rep {
        let (mut rep, ours) = self.rep_on(Trace::Library, spans);
        let library = rejoin::run(&self.config());
        let theirs = [&library.chunked, &library.full].map(Books::of_library);
        rep.check(ours == theirs, || {
            format!("the storm assembled here closed {ours:?}, experiments::rejoin {theirs:?}")
        });
        rep
    }
}
