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

use crate::scenario::{BuiltScenario, NetworkSpec, ScenarioSpec, WARMUP};
use crate::{GPacket, GameWorld};

/// Topology seed of the backbone every large-scale driver runs on.
pub const NET_SEED: u64 = 7;

/// Span bound of every audited run. The bound only truncates (a truncated
/// log voids the audit), it does not preallocate, so one bound sized for
/// the largest audited run serves all of them: the full-scale `adaptive`
/// RP arm emits ~3.7M spans per run.
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
        let mut sim = spec.build().into_sim();
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
    /// is queued on the capture as `label` and returned with the
    /// simulator. The tracer keeps every span: an audit over a sampled
    /// trace would only account for the sampled lineages.
    pub fn run_audited(
        &mut self,
        label: &str,
        spec: ScenarioSpec<'_>,
        w: &Workload,
        horizon: SimTime,
        damage: impl FnOnce(&Simulator<GPacket, GameWorld>) -> Option<(SimTime, SimTime)>,
    ) -> (Simulator<GPacket, GameWorld>, AuditReport) {
        let built = spec.build();
        let warmup = match &built {
            BuiltScenario::Gcopss(g) => g.warmup,
            _ => WARMUP,
        };
        let mut sim = built.into_sim();
        self.arm(&mut sim);
        sim.enable_lineage(LineageConfig {
            capacity: LINEAGE_CAPACITY,
            ..LineageConfig::default()
        });
        audit::register_expectations(&mut sim, w, warmup);
        sim.run_until(horizon);
        self.harvest(label, &sim);
        let report = sim.lineage().audit(horizon, damage(&sim));
        self.audits.push((label.to_string(), report.to_json()));
        (sim, report)
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

/// Summary of one system run: the quantities the paper tabulates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Row label (system + configuration).
    pub label: String,
    /// Updates published.
    pub published: u64,
    /// Deliveries recorded (excluding self-deliveries).
    pub delivered: u64,
    /// Mean end-to-end update latency.
    pub mean_latency: SimDuration,
    /// Largest observed latency.
    pub max_latency: SimDuration,
    /// Aggregate network load in bytes (sum over all links).
    pub network_bytes: u64,
}

impl RunSummary {
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
