//! The experiment harness: one builder wrapping the boilerplate every
//! registry entry shares — enabling the simulator self-profiler,
//! telemetry capture, and the end-of-run export fan (`prof_*.json` merged
//! into `telemetry_*.json`, plus optional `timeseries_*` and `audit_*`
//! documents), all under [`ExpOptions::out_dir`].
//!
//! The canonical shape of an experiment is:
//!
//! ```no_run
//! use gcopss_bench::{ExpHarness, ExpOptions};
//! let mut h = ExpHarness::new("fig4", ExpOptions::default()).with_sampled_capture();
//! let seed = h.opts.seed;
//! // ... run experiments, passing `h.cap()` to the driver's `run` ...
//! h.finish();
//! ```
//!
//! [`ExpHarness::finish`] keeps two orderings the exports rely on: the
//! profile is written (and merged as a pseudo-run) *before* the telemetry
//! document, so the prof trace lands in the merged Perfetto file, and
//! audit documents are written before the profile table prints.

use gcopss_core::experiments::TelemetryCapture;
use gcopss_sim::json::Json;
use gcopss_sim::{TelemetryConfig, TelemetryReport, TimeSeriesConfig};

use crate::{write_prof, write_runs, write_telemetry, ExpOptions};

/// Shared lifecycle of one experiment run. Construct with
/// [`ExpHarness::new`], run the experiment body, then call
/// [`ExpHarness::finish`] exactly once.
pub struct ExpHarness {
    /// Experiment label: the suffix of every `results/` file written.
    pub exp: String,
    /// The run's options (`--full`, `--scale`, `--seed`, output directory).
    pub opts: ExpOptions,
    capture: TelemetryCapture,
}

impl ExpHarness {
    /// Enables the simulator self-profiler (every experiment profiles its
    /// own hot loop).
    #[must_use]
    pub fn new(exp: &str, opts: ExpOptions) -> Self {
        gcopss_sim::prof::enable();
        Self {
            exp: exp.to_string(),
            opts,
            capture: TelemetryCapture::off(),
        }
    }

    /// Arms a telemetry capture with an explicit configuration.
    #[must_use]
    pub fn with_capture(mut self, cfg: TelemetryConfig) -> Self {
        self.capture = TelemetryCapture::new(cfg);
        self
    }

    /// Arms the multi-run capture shape: journal capped at 8,192 entries,
    /// sampled 1-in-16, so sweeps with many runs keep the merged trace
    /// document small (counters and histograms are unaffected).
    #[must_use]
    pub fn with_sampled_capture(self) -> Self {
        self.with_capture(TelemetryConfig {
            journal_capacity: 8_192,
            journal_sample: 16,
        })
    }

    /// Additionally arms the periodic time-series sampler on every
    /// captured run.
    ///
    /// # Panics
    ///
    /// Panics if no capture was configured yet.
    #[must_use]
    pub fn with_timeseries(mut self, ts: TimeSeriesConfig) -> Self {
        assert!(
            self.capture.is_on(),
            "configure a capture before the time-series sampler"
        );
        self.capture = self.capture.with_timeseries(ts);
        self
    }

    /// The capture to hand to a driver's `run(…)` (off when the harness
    /// runs captureless).
    pub fn cap(&mut self) -> &mut TelemetryCapture {
        &mut self.capture
    }

    /// Appends a hand-built report (for characterization passes that never
    /// run a simulator, e.g. `trace_stats`). The telemetry document is
    /// written even if no capture was configured.
    pub fn push_report(&mut self, report: TelemetryReport) {
        self.capture.reports.push(report);
    }

    /// Queues a hand-built audit document for `results/audit_<exp>.json`
    /// (for books the lineage auditor does not keep, e.g. `rejoin`'s
    /// catch-up ledger), after those the capture's audited runs queued.
    pub fn add_audit(&mut self, label: impl Into<String>, audit: Json) {
        self.capture.audits.push((label.into(), audit));
    }

    /// Writes what the capture collected — audits, telemetry reports, time
    /// series — and the self-profile. Call once, at the end of the run.
    ///
    /// # Panics
    ///
    /// Panics if any file under the output directory cannot be written.
    pub fn finish(mut self) {
        let prof = gcopss_sim::prof::take_report();
        let dir = self.opts.out_dir.as_path();
        let (exp, seed) = (self.exp.as_str(), self.opts.seed);
        let cap = &mut self.capture;
        if !cap.audits.is_empty() {
            write_runs(dir, "audit", "audit", exp, seed, &cap.audits).expect("write audit");
        }
        let documented = cap.is_on() || !cap.reports.is_empty();
        write_prof(dir, exp, seed, &prof, documented.then_some(&mut cap.reports))
            .expect("write prof");
        if documented {
            write_telemetry(dir, exp, seed, &cap.reports).expect("write telemetry");
        }
        if !cap.series.is_empty() {
            write_runs(dir, "timeseries", "series", exp, seed, &cap.series)
                .expect("write timeseries");
        }
    }
}
