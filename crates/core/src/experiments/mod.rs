//! Experiment drivers: one per table/figure of the paper's §V.
//!
//! Every driver is a pure function from a (scalable) configuration to
//! structured results; the `gcopss-exp` runner prints them in the
//! paper's row/series format. All drivers are deterministic given their
//! seeds.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Fig. 3c/3d (trace characterization) | [`trace_stats`] |
//! | Fig. 4 (microbenchmark latency CDFs) | [`microbench`] |
//! | Table I + Fig. 5 (RPs vs servers, congestion, auto-balancing) | [`rp_sweep`] |
//! | Fig. 6 (scalability in #players) | [`player_sweep`] |
//! | Table II (full trace: IP vs G-COPSS vs hybrid) | [`full_trace`] |
//! | Table III (player movement, QR vs cyclic multicast) | [`movement`] |
//! | Design-choice sweeps (groups, thresholds, windows) | [`ablation`] |
//! | Failure sweep (delivery ratio + recovery under chaos) | [`failover`] |
//! | Delivery audit (per-pair causal accounting under chaos) | [`audit`] |
//! | Rejoin storm (chunked-delta vs full-snapshot catch-up) | [`rejoin`] |
//! | ST/FIB lookup scaling, 1k → 1M(+) entries | [`scale`] |
//! | Overload sweep (0.5×–4× load, queue regimes, rate adapt) | [`overload`] |
//! | Adaptive control (streams-driven RP moves + cache classes) | [`adaptive`] |

pub mod ablation;
pub mod adaptive;
pub mod audit;
pub mod failover;
pub mod full_trace;
pub mod microbench;
pub mod movement;
pub mod overload;
pub mod player_sweep;
pub mod rejoin;
pub mod rp_sweep;
pub mod scale;
pub mod trace_stats;

use std::sync::Arc;

use gcopss_game::trace::{CsTraceGenerator, CsTraceParams, TraceEvent};
use gcopss_game::{GameMap, ObjectModel, ObjectModelParams, PlayerPopulation};
use gcopss_sim::json::Json;
use gcopss_sim::{
    AuditReport, LineageConfig, SimDuration, SimTime, Simulator, TelemetryConfig, TelemetryReport,
    TimeSeriesConfig,
};

use crate::scenario::{expected_deliveries, NetworkSpec, ScenarioSpec};
use crate::{drops, GPacket, GameWorld};

/// Topology seed of the backbone every large-scale driver runs on.
pub const NET_SEED: u64 = 7;

/// Span bound of every audited run: the widest live window — spans from
/// the oldest still open to the newest — a log may hold. The bound only
/// truncates (a truncated log voids the audit), it does not preallocate,
/// so one generous bound serves every run: a window holds the spans in
/// flight, far fewer than the millions a full-scale run records.
const LINEAGE_CAPACITY: usize = 1 << 23;

/// The one run path of every driver: hand [`TelemetryCapture::run`] a
/// [`ScenarioSpec`] and it builds the simulation, arms the observers, runs
/// it and harvests its books.
///
/// A capture that is off ([`TelemetryCapture::off`]) keeps telemetry off
/// (zero cost); one that is on arms telemetry (and the time-series sampler,
/// if configured) before the run and harvests a report after it. Reports
/// are numbered in run order; the index becomes the Chrome-trace process
/// id, so all runs of one experiment share a single trace file with one
/// "process" lane per run.
#[derive(Debug)]
pub struct TelemetryCapture {
    /// Applied to every run; `None` while the capture is off.
    cfg: Option<TelemetryConfig>,
    timeseries: Option<TimeSeriesConfig>,
    /// Harvested reports, in run order.
    pub reports: Vec<TelemetryReport>,
    /// Harvested time-series documents, `(label, frames)` per run that had
    /// the sampler armed.
    pub series: Vec<(String, Json)>,
    /// Audit documents, `(label, accounting)` per audited run — queued
    /// whether or not the capture is on: an audit is asked for by name.
    pub audits: Vec<(String, Json)>,
}

impl TelemetryCapture {
    /// A capture that observes nothing: runs stay uninstrumented and no
    /// report is harvested.
    #[must_use]
    pub fn off() -> Self {
        Self {
            cfg: None,
            timeseries: None,
            reports: Vec::new(),
            series: Vec::new(),
            audits: Vec::new(),
        }
    }

    /// Creates a capture applying `cfg` to every run.
    #[must_use]
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            cfg: Some(cfg),
            ..Self::off()
        }
    }

    /// Whether runs under this capture are instrumented.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.cfg.is_some()
    }

    /// Additionally arms the periodic time-series sampler on every run;
    /// the captured frames land in [`TelemetryCapture::series`].
    #[must_use]
    pub fn with_timeseries(mut self, cfg: TimeSeriesConfig) -> Self {
        self.timeseries = Some(cfg);
        self
    }

    /// Builds `spec`, runs `drive` on its simulator under the capture —
    /// telemetry armed before it, the run's report harvested as `label`
    /// after it — and returns the finished simulator. While the capture is
    /// off this is just build-and-drive and `label` is unused.
    pub fn run(
        &mut self,
        label: &str,
        spec: ScenarioSpec<'_>,
        drive: impl FnOnce(&mut Simulator<GPacket, GameWorld>),
    ) -> Simulator<GPacket, GameWorld> {
        let mut sim = spec.build().sim;
        self.arm(&mut sim);
        drive(&mut sim);
        self.harvest(label, &sim);
        sim
    }

    /// [`Self::run`] to `horizon` under the full lineage tracer, with the
    /// books closed after it: every pair `w` owes (see
    /// [`audit::register_expectations`]) must be explained. `damage` reads
    /// the fault damage window off the finished simulator (`None` for
    /// fault-free runs, where every miss needs a drop record). The report
    /// is queued on the capture as `label` and returned, with the span
    /// fingerprint and count, as the audit of the run's [`RunSummary`],
    /// beside the simulator. The tracer keeps every span: an audit over a
    /// sampled trace would only account for the sampled lineages.
    pub fn run_audited(
        &mut self,
        label: &str,
        spec: ScenarioSpec<'_>,
        w: &Workload,
        horizon: SimTime,
        damage: impl FnOnce(&Simulator<GPacket, GameWorld>) -> Option<(SimTime, SimTime)>,
    ) -> (Simulator<GPacket, GameWorld>, RunSummary) {
        let built = spec.build();
        let mut sim = built.sim;
        self.arm(&mut sim);
        sim.enable_lineage(LineageConfig {
            capacity: LINEAGE_CAPACITY,
            ..LineageConfig::default()
        });
        audit::register_expectations(&mut sim, w, built.warmup);
        sim.run_until(horizon);
        self.harvest(label, &sim);
        let report = sim.lineage().audit(horizon, damage(&sim));
        self.audits.push((label.to_string(), report.to_json()));
        let mut run = RunSummary::of(label.to_string(), &sim, w);
        run.audit = Some(RunAudit {
            report,
            fingerprint: sim.lineage().fingerprint(),
            spans: sim.lineage().spans().len(),
        });
        (sim, run)
    }

    /// Switches the capture's observers on, on a simulator yet to run.
    fn arm(&self, sim: &mut Simulator<GPacket, GameWorld>) {
        let Some(cfg) = &self.cfg else { return };
        sim.enable_telemetry(cfg.clone());
        if let Some(ts) = &self.timeseries {
            sim.enable_timeseries(ts.clone());
        }
    }

    /// Reads what [`Self::arm`] switched on off the finished simulator.
    fn harvest(&mut self, label: &str, sim: &Simulator<GPacket, GameWorld>) {
        if !self.is_on() {
            return;
        }
        let pid = self.reports.len() as u64;
        self.reports.push(sim.telemetry_report(label, pid));
        if let Some(frames) = sim.timeseries_json() {
            self.series.push((label.to_string(), frames));
        }
    }
}

/// Workload shared by the large-scale experiments (§V-B): the paper's map,
/// a 414-player population and a synthetic Counter-Strike trace.
pub struct Workload {
    /// The 5×5 hierarchical map.
    pub map: Arc<GameMap>,
    /// The object placement (for brokers and statistics).
    pub objects: ObjectModel,
    /// Player placement.
    pub population: PlayerPopulation,
    /// The shared trace.
    pub trace: Arc<Vec<TraceEvent>>,
}

/// Parameters of [`Workload::counter_strike`].
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Master seed.
    pub seed: u64,
    /// Number of players (paper: 414).
    pub players: usize,
    /// Number of update events to generate.
    pub updates: usize,
    /// Network-wide mean inter-arrival (paper: ≈2.4 ms at peak).
    pub mean_interarrival: SimDuration,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            seed: 42,
            players: 414,
            updates: 100_000,
            mean_interarrival: SimDuration::from_micros(2_400),
        }
    }
}

impl Workload {
    /// Starts the spec of this workload on `net` (protocol and extras are
    /// the caller's to add).
    #[must_use]
    pub fn spec(&self, net: &NetworkSpec) -> ScenarioSpec<'_> {
        ScenarioSpec::new(net, &self.map, &self.population, &self.trace)
    }

    /// Time of the last trace event, from trace start.
    #[must_use]
    pub fn span(&self) -> SimDuration {
        SimDuration::from_nanos(self.trace.last().map_or(0, |e| e.time_ns))
    }

    /// The object model with the whole trace applied: brokers prewarmed
    /// with it serve snapshot sizes in the paper's end-of-trace regime
    /// (579–1,740 B) from the first request.
    #[must_use]
    pub fn converged_objects(&self) -> ObjectModel {
        let mut objects = self.objects.clone();
        for e in self.trace.iter() {
            objects.apply_update(e.object, e.size);
        }
        objects
    }

    /// Builds the §V-B workload: 414 players (4–20 per area), heavy-tailed
    /// per-player update rates, objects 80–120 per area.
    #[must_use]
    pub fn counter_strike(p: &WorkloadParams) -> Self {
        let map = Arc::new(GameMap::paper_map());
        let objects = ObjectModel::generate(p.seed ^ 0x0b, &map, &ObjectModelParams::default());
        let population =
            PlayerPopulation::random_per_area(p.seed ^ 0x17, &map, (4, 20)).resize(p.players);
        let gen = CsTraceGenerator::new(
            p.seed ^ 0x23,
            &population,
            CsTraceParams {
                total_updates: p.updates,
                mean_interarrival_ns: p.mean_interarrival.as_nanos(),
            },
        );
        let trace = Arc::new(gen.generate(p.seed ^ 0x31, &map, &objects, &population));
        Self {
            map,
            objects,
            population,
            trace,
        }
    }

    /// Builds the §V-A microbenchmark workload: 62 players (2 per area),
    /// `duration` of publishing at 100–500 ms intervals.
    #[must_use]
    pub fn microbenchmark(seed: u64, duration: SimDuration) -> Self {
        use gcopss_game::trace::microbenchmark_trace;
        let map = Arc::new(GameMap::paper_map());
        let objects = ObjectModel::generate(seed ^ 0x0b, &map, &ObjectModelParams::default());
        let population = PlayerPopulation::uniform_per_area(&map, 2);
        let trace = Arc::new(microbenchmark_trace(
            seed ^ 0x23,
            &map,
            &objects,
            &population,
            duration.as_nanos(),
        ));
        Self {
            map,
            objects,
            population,
            trace,
        }
    }
}

/// One finished run, read once: the quantities the paper's tables and
/// figures tabulate, the drop ledger's counts and, for an audited run, its
/// audit. Every driver's row is one of these beside the row's own sweep
/// coordinates and whatever only that driver measures.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Row label (system + configuration).
    pub label: String,
    /// Updates published (rate-limited source sheds never publish).
    pub published: u64,
    /// Deliveries recorded (excluding self-deliveries).
    pub delivered: u64,
    /// Deliveries the AoI model owes for the whole trace
    /// ([`expected_deliveries`]).
    pub expected: u64,
    /// Mean end-to-end update latency.
    pub mean_latency: SimDuration,
    /// Largest observed latency.
    pub max_latency: SimDuration,
    /// Median latency (log-histogram bucket bound).
    pub p50: SimDuration,
    /// 95th-percentile latency.
    pub p95: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Aggregate network load in bytes (sum over all links).
    pub network_bytes: u64,
    /// The drop ledger: one count per [`drops::ALL`] reason, in its order.
    drops: Vec<u64>,
    /// The lineage audit of a run made by [`TelemetryCapture::run_audited`].
    pub audit: Option<RunAudit>,
}

/// The lineage audit of one run.
#[derive(Debug, Clone)]
pub struct RunAudit {
    /// The auditor's per-class accounting.
    pub report: AuditReport,
    /// FNV-1a fingerprint over all span records (determinism witness:
    /// equal seeds must produce equal fingerprints).
    pub fingerprint: u64,
    /// Span records captured.
    pub spans: usize,
}

/// `part / whole`, or 1.0 when nothing is owed.
pub(crate) fn owed_ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

impl RunSummary {
    /// Reads the summary off the finished simulator of a run over `w`.
    #[must_use]
    pub fn of(label: String, sim: &Simulator<GPacket, GameWorld>, w: &Workload) -> Self {
        let metrics = &sim.world().metrics;
        let hist = metrics.latency_hist();
        let q = |p: f64| SimDuration::from_nanos(hist.quantile(p));
        Self {
            label,
            published: metrics.published(),
            delivered: metrics.delivered(),
            expected: expected_deliveries(&w.map, &w.population, &w.trace),
            mean_latency: SimDuration::from_nanos(hist.mean()),
            max_latency: SimDuration::from_nanos(hist.max().unwrap_or(0)),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            network_bytes: sim.total_link_bytes(),
            drops: drops::ALL.iter().map(|why| sim.dropped(why)).collect(),
            audit: None,
        }
    }

    /// `delivered / expected`, the data-plane delivery ratio against the
    /// AoI model; 1.0 when nothing is owed.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        owed_ratio(self.delivered, self.expected)
    }

    /// Packets the run dropped for `reason`, one of [`drops::ALL`].
    #[must_use]
    pub fn dropped(&self, reason: &str) -> u64 {
        drops::ALL
            .iter()
            .position(|&why| why == reason)
            .map_or(0, |i| self.drops[i])
    }

    /// Network load in the paper's GB unit.
    #[must_use]
    pub fn network_gb(&self) -> f64 {
        self.network_bytes as f64 / 1e9
    }

    /// One formatted table row: `label  latency_ms  load_gb`.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>14.2} {:>12.3}",
            self.label,
            self.mean_latency.as_millis_f64(),
            self.network_gb()
        )
    }
}

#[cfg(test)]
mod tests {
    use gcopss_sim::{AdmissionPolicy, OverloadConfig};

    use super::*;
    use crate::scenario::{GcopssConfig, WARMUP};

    /// On a small overloaded, audited G-COPSS run every field of the
    /// summary is the simulator read directly.
    #[test]
    fn a_summary_is_the_finished_simulator_read_directly() {
        let w = Workload::counter_strike(&WorkloadParams {
            players: 30,
            updates: 600,
            mean_interarrival: SimDuration::from_micros(500),
            ..WorkloadParams::default()
        });
        let net = NetworkSpec::default_backbone(NET_SEED);
        let horizon = SimTime::ZERO + WARMUP + w.span() + SimDuration::from_secs(5);
        // One RP at ~7× its service rate behind an 8-deep drop-tail queue.
        let spec = w
            .spec(&net)
            .gcopss(GcopssConfig {
                rp_count: 1,
                ..GcopssConfig::default()
            })
            .overload(OverloadConfig {
                queue_capacity: Some(8),
                policy: AdmissionPolicy::DropTail,
                priority: true,
                mark_sojourn: None,
            });
        let mut cap = TelemetryCapture::off();
        let (sim, run) = cap.run_audited("run", spec, &w, horizon, |_| None);

        let metrics = &sim.world().metrics;
        let hist = metrics.latency_hist();
        assert_eq!(run.label, "run");
        assert_eq!(run.published, metrics.published());
        assert_eq!(run.delivered, metrics.delivered());
        assert_eq!(
            run.expected,
            expected_deliveries(&w.map, &w.population, &w.trace)
        );
        assert_eq!(run.mean_latency, metrics.stats().mean());
        assert_eq!(Some(run.max_latency), metrics.stats().max());
        for (q, p) in [(run.p50, 0.50), (run.p95, 0.95), (run.p99, 0.99)] {
            assert_eq!(q.as_nanos(), hist.quantile(p), "p{p}");
        }
        assert_eq!(run.network_bytes, sim.total_link_bytes());
        for why in drops::ALL {
            assert_eq!(run.dropped(why), sim.dropped(why), "{why}");
        }
        assert!(
            run.dropped(drops::QUEUE_FULL) > 0,
            "the RP never overflowed"
        );
        assert!(run.delivery_ratio() < 1.0);

        let audit = run.audit.as_ref().expect("run_audited audits");
        assert_eq!(audit.fingerprint, sim.lineage().fingerprint());
        assert_eq!(audit.spans, sim.lineage().spans().len());
        assert_eq!(
            cap.audits[0].1.to_string(),
            audit.report.to_json().to_string()
        );

        // A run that owes nothing delivered all of it.
        let owes_nothing = RunSummary {
            delivered: 0,
            expected: 0,
            ..run
        };
        assert_eq!(owes_nothing.delivery_ratio(), 1.0);
    }
}
