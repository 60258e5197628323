//! `cs_bare`, `cs_observed` and `ip_deep_queue`: one Table I configuration
//! each, run to quiescence.

use gcopss_core::experiments::audit::register_expectations;
use gcopss_core::experiments::Workload as GameWorkload;
use gcopss_core::scenario::{
    expected_deliveries, GcopssConfig, IpConfig, NetworkSpec, ScenarioSpec,
};
use gcopss_core::{GPacket, GameWorld};
use gcopss_sim::generators::{attach_hosts, rocketfuel_like, BackboneParams};
use gcopss_sim::{
    LineageConfig, RoutingTable, SimDuration, SimTime, Simulator, StreamConfig, TelemetryConfig,
    TimeSeriesConfig,
};

use super::{game_workload, Rep, Workload, NET_SEED};
use crate::spans::Spans;
use crate::{stats, HEAP};

/// Table I's population.
const PLAYERS: usize = 414;
/// Table I's peak-window arrival rate.
const MEAN_INTERARRIVAL: SimDuration = SimDuration::from_micros(2_400);
/// Both systems use the three-RP / three-server row.
const SERVERS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Gcopss,
    IpServer,
}

/// Which observation subsystems a pass runs under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observers {
    pub telemetry: bool,
    pub lineage: bool,
    /// The sampler reads the telemetry registry, so it turns telemetry on.
    pub timeseries: bool,
    pub stream: bool,
}

impl Observers {
    pub const ALL: Self = Self {
        telemetry: true,
        lineage: true,
        timeseries: true,
        stream: true,
    };

    fn telemetry_on(self) -> bool {
        self.telemetry || self.timeseries
    }
}

pub struct SimWorkload {
    pub name: &'static str,
    pub system: System,
    pub updates: usize,
    pub observers: Observers,
    pub seed: u64,
}

/// The simulated results a simulator-only change must leave untouched.
const SIM_RESULTS: [&str; 4] = [
    "sim_latency_mean_ms",
    "sim_latency_p99_ms",
    "sim_delivery_ratio",
    "sim_network_gb",
];

impl SimWorkload {
    /// The span `setup`: the game world and trace, and the simulator armed
    /// with `obs`, ready to run.
    fn set_up(
        &self,
        obs: Observers,
        spans: &mut Spans,
    ) -> (GameWorkload, Simulator<GPacket, GameWorld>) {
        spans
            .scope("setup", 0, |s| {
                let (w, _) = s.scope("game.trace_gen", self.updates as u64, |_| {
                    game_workload(self.seed, PLAYERS, self.updates, MEAN_INTERARRIVAL)
                });
                let net = NetworkSpec::default_backbone(NET_SEED);
                let (mut sim, _) = s.scope("core.scenario.build", 0, |_| {
                    let spec = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace);
                    match self.system {
                        System::Gcopss => {
                            let cfg = GcopssConfig {
                                rp_count: SERVERS,
                                stream: if obs.stream {
                                    StreamConfig::every(SimDuration::from_millis(100))
                                } else {
                                    StreamConfig::default()
                                },
                                ..GcopssConfig::default()
                            };
                            spec.gcopss(cfg).build().into_gcopss().sim
                        }
                        System::IpServer => {
                            let cfg = IpConfig {
                                server_count: SERVERS,
                                ..IpConfig::default()
                            };
                            spec.ip_server(cfg).build().into_ip_server().sim
                        }
                    }
                });
                if obs.telemetry_on() {
                    sim.enable_telemetry(TelemetryConfig::default());
                }
                if obs.timeseries {
                    sim.enable_timeseries(TimeSeriesConfig::default());
                }
                if obs.lineage {
                    // Every span of every publication, about 0.75 per event:
                    // more than the default capacity holds.
                    sim.enable_lineage(LineageConfig {
                        sample: 1,
                        capacity: 1 << 22,
                    });
                    register_expectations(&mut sim, &w, GcopssConfig::default().warmup);
                }
                (w, sim)
            })
            .0
    }

    fn rep_under(&self, obs: Observers, spans: &mut Spans) -> Rep {
        let (w, mut sim) = self.set_up(obs, spans);
        let expected = expected_deliveries(&w.map, &w.population, &w.trace);

        let mut rep = Rep::default();
        HEAP.reset_peak();
        let before = HEAP.stats();
        let (exported, _) = spans.scope("pass", 0, |s| {
            s.scope("sim.engine.run", 0, |_| sim.run());
            observe(&sim, obs, self.name, &mut rep, s)
        });
        rep.heap = HEAP.stats().since(before);

        let world = sim.world();
        let delivered = world.metrics.delivered();
        rep.attempted = expected;
        rep.failed += expected.abs_diff(delivered);
        rep.check(world.duplicate_deliveries == 0, || {
            format!("{} duplicate deliveries", world.duplicate_deliveries)
        });
        let max_queue = sim
            .topology()
            .node_ids()
            .map(|n| sim.node_max_queue(n))
            .max()
            .unwrap_or(0);
        rep.exact.extend([
            (
                "sim_latency_mean_ms",
                world.metrics.stats().mean().as_millis_f64(),
            ),
            (
                "sim_latency_p99_ms",
                world.metrics.latency_hist().quantile(0.99) as f64 / 1e6,
            ),
            ("sim_delivery_ratio", delivered as f64 / expected as f64),
            ("sim_network_gb", sim.total_link_bytes() as f64 / 1e9),
            ("game.trace_updates", w.trace.len() as f64),
            ("sim.engine.events_m", sim.events_processed() as f64 / 1e6),
            ("sim.engine.max_queue", max_queue as f64),
            (
                "sim.lineage.spans_m",
                sim.lineage().spans().len() as f64 / 1e6,
            ),
            (
                "sim.telemetry.journal_entries",
                sim.telemetry().journal_records().len() as f64,
            ),
            ("sim.json.export_mb", exported as f64 / 1e6),
        ]);
        rep
    }
}

/// What an observed pass does after the run, as the experiment binaries
/// do: close the delivery audit, fingerprint the span log, harvest the
/// telemetry report, and serialise every document they would write (audit,
/// telemetry summary, journal trace events, time series). Returns the bytes
/// serialised.
fn observe(
    sim: &Simulator<GPacket, GameWorld>,
    obs: Observers,
    label: &str,
    rep: &mut Rep,
    spans: &mut Spans,
) -> usize {
    let audit = obs.lineage.then(|| {
        let (audit, _) = spans.scope("sim.lineage.audit", 0, |_| {
            sim.lineage().audit(SimTime::MAX, None)
        });
        rep.failed += audit.duplicates + audit.unexplained;
        rep.check(audit.is_clean(), || {
            format!("delivery audit not clean: {:?}", audit.errors)
        });
        rep.check(audit.delivered == audit.total_pairs, || {
            format!(
                "audit explains {} of {} owed pairs as delivered",
                audit.delivered, audit.total_pairs
            )
        });
        // 52 bits of it: exact values travel as f64.
        rep.exact.push((
            "sim.lineage.fingerprint",
            (sim.lineage().fingerprint() >> 12) as f64,
        ));
        audit
    });
    let report = obs.telemetry_on().then(|| {
        rep.check(
            sim.telemetry().link_bytes_total() == sim.total_link_bytes(),
            || {
                format!(
                    "per-link byte sum {} != total link bytes {}",
                    sim.telemetry().link_bytes_total(),
                    sim.total_link_bytes()
                )
            },
        );
        let (report, _) = spans.scope("sim.telemetry.report", 0, |_| {
            sim.telemetry_report(label, 0)
        });
        rep.exact.push((
            "sim.telemetry.fingerprint",
            (report.fingerprint >> 12) as f64,
        ));
        report
    });
    if audit.is_none() && report.is_none() {
        return 0;
    }
    let (exported, _) = spans.scope("sim.json.export", 0, |_| {
        let mut out = String::new();
        if let Some(audit) = &audit {
            audit.to_json().write_to(&mut out);
        }
        if let Some(report) = &report {
            report.summary.write_to(&mut out);
            for e in &report.trace_events {
                e.write_to(&mut out);
            }
        }
        if let Some(series) = sim.timeseries_json() {
            series.write_to(&mut out);
        }
        std::hint::black_box(out.len())
    });
    exported
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rep(&self, spans: &mut Spans) -> Rep {
        self.rep_under(self.observers, spans)
    }

    fn set_up_only(&self, spans: &mut Spans) {
        drop(self.set_up(self.observers, spans));
    }

    /// Always a bare pass: for `cs_observed` it is the reference its
    /// simulated results must equal.
    fn warm_up(&self, spans: &mut Spans) -> Rep {
        self.rep_under(Observers::default(), spans)
    }

    /// The observer-only guarantee: observation changes no simulated
    /// result. Also books what observation added to the heap's high-water.
    fn cross_check(&self, bare: &Rep, timed: &mut Rep) {
        for name in SIM_RESULTS {
            let (b, t) = (bare.exact(name), timed.exact(name));
            timed.check(b.map(f64::to_bits) == t.map(f64::to_bits), || {
                format!("{name}: {t:?} under observation, {b:?} bare")
            });
        }
        let added = timed.heap.peak as f64 - bare.heap.peak as f64;
        timed
            .approx
            .push(("sim.observe.heap_added_mb", added / 1e6));
    }

    fn probes(&self, spans: &mut Spans) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("sim.routing.build_s", routing_build_s(PLAYERS, spans)),
            (
                "sim.engine.null_ns_per_event",
                crate::probes::null_engine_ns_per_event(spans),
            ),
        ];
        if self.observers != Observers::default() {
            // One observer at a time against the bare pass, floor of two
            // each. The sampler needs the telemetry registry, so its cost
            // is what it adds on top of telemetry.
            let mut pass_s = |obs: Observers| {
                let secs: Vec<f64> = (0..2)
                    .map(|_| {
                        spans.begin_rep();
                        self.rep_under(obs, spans);
                        spans.secs("pass")
                    })
                    .collect();
                stats::floor(&secs)
            };
            let none = Observers::default();
            let bare = pass_s(none);
            let telemetry = pass_s(Observers {
                telemetry: true,
                ..none
            });
            out.extend([
                ("sim.telemetry.added_s", telemetry - bare),
                (
                    "sim.lineage.added_s",
                    pass_s(Observers {
                        lineage: true,
                        ..none
                    }) - bare,
                ),
                (
                    "sim.timeseries.added_s",
                    pass_s(Observers {
                        timeseries: true,
                        ..none
                    }) - telemetry,
                ),
                (
                    "sim.stream.added_s",
                    pass_s(Observers {
                        stream: true,
                        ..none
                    }) - bare,
                ),
            ]);
        }
        out
    }
}

/// `RoutingTable::shortest_paths` on the workloads' backbone with `hosts`
/// hosts attached (inside the library it is part of `ScenarioSpec::build`):
/// floor of three.
pub(super) fn routing_build_s(hosts: usize, spans: &mut Spans) -> f64 {
    let mut backbone = rocketfuel_like(NET_SEED, &BackboneParams::default());
    attach_hosts(
        &mut backbone.topology,
        &backbone.edge,
        hosts,
        SimDuration::from_millis(1),
        "host",
    );
    let secs: Vec<f64> = (0..3)
        .map(|_| {
            spans
                .scope("sim.routing.build", 0, |_| {
                    RoutingTable::shortest_paths(&backbone.topology)
                })
                .1
        })
        .collect();
    stats::floor(&secs)
}
