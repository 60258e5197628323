//! The experiment runner behind `gcopss-exp`: the [`EXPERIMENTS`] registry
//! (one entry per table/figure of the paper), the [`ExpHarness`] every
//! entry shares, and the `results/` document writers.

pub mod exp;
pub mod harness;

pub use exp::{Experiment, EXPERIMENTS};
pub use harness::ExpHarness;

use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::slice::Iter;

use gcopss_sim::json::{results_doc, write_results, Json};
use gcopss_sim::prof::ProfReport;
use gcopss_sim::TelemetryReport;

/// Options shared by every experiment.
///
/// * `--full` — run at the paper's full scale (slow).
/// * `--scale <f>` — scale the workload size by `f` (default varies per
///   experiment; `--full` overrides).
/// * `--seed <n>` — master seed (default 42).
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Run at full paper scale.
    pub full: bool,
    /// Workload scale factor.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Directory every export lands in. No CLI flag: the default is the
    /// tracked `results/`, and in-process callers (the schema test) point
    /// it at a scratch directory instead.
    pub out_dir: PathBuf,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            full: false,
            scale: 1.0,
            seed: 42,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExpOptions {
    /// Parses `[--full] [--scale f] [--seed n]` (ignores unknown flags).
    #[must_use]
    pub fn parse(args: &[String]) -> Self {
        /// Consumes the next argument iff it parses as the flag's value.
        fn value<T: std::str::FromStr>(args: &mut Peekable<Iter<'_, String>>) -> Option<T> {
            let v = args.peek()?.parse().ok()?;
            args.next();
            Some(v)
        }
        let mut out = Self::default();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => out.full = true,
                "--scale" => out.scale = value(&mut args).unwrap_or(out.scale),
                "--seed" => out.seed = value(&mut args).unwrap_or(out.seed),
                _ => {}
            }
        }
        out
    }

    /// Scales a baseline count, with a full-scale override.
    #[must_use]
    pub fn scaled(&self, default: usize, full: usize) -> usize {
        if self.full {
            full
        } else {
            ((default as f64) * self.scale).round().max(1.0) as usize
        }
    }
}

/// Serializes `doc` to `<dir>/<file>` and returns the path written.
pub(crate) fn write_doc(dir: &Path, file: &str, doc: &Json) -> std::io::Result<String> {
    let path = dir.join(file).display().to_string();
    write_results(&path, doc)?;
    Ok(path)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Assembles the unified telemetry document for one experiment: per-run
/// summaries plus a merged Chrome trace-event stream (one trace "process"
/// per run, named by its label — open the file directly in Perfetto).
fn telemetry_json(exp: &str, seed: u64, reports: &[TelemetryReport]) -> Json {
    let mut trace_events: Vec<Json> = Vec::new();
    for (pid, r) in reports.iter().enumerate() {
        if r.trace_events.is_empty() {
            continue;
        }
        trace_events.push(Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::UInt(pid as u64)),
            ("tid", Json::UInt(0)),
            ("args", Json::obj([("name", Json::str(r.label.clone()))])),
        ]));
        trace_events.extend(r.trace_events.iter().cloned());
    }
    results_doc(
        "gcopss-telemetry-v1",
        exp,
        seed,
        [
            (
                "runs",
                Json::arr(reports.iter().map(|r| r.summary.clone())),
            ),
            ("traceEvents", Json::Array(trace_events)),
        ],
    )
}

/// Writes `results/telemetry_<exp>.json` and prints one line per run with
/// its journal fingerprint (the determinism witness: equal seeds must
/// produce equal fingerprints).
pub(crate) fn write_telemetry(
    dir: &Path,
    exp: &str,
    seed: u64,
    reports: &[TelemetryReport],
) -> std::io::Result<()> {
    let doc = telemetry_json(exp, seed, reports);
    let path = write_doc(dir, &format!("telemetry_{exp}.json"), &doc)?;
    println!();
    for r in reports {
        println!("telemetry run {:<14} journal fingerprint {:016x}", r.label, r.fingerprint);
    }
    println!("telemetry written to {path}");
    Ok(())
}

/// Writes `results/<kind>_<exp>.json` (schema `gcopss-<kind>-v1`): one
/// `{label, <key>: payload}` entry per run. Two documents have this shape:
/// `timeseries` (key `series`: the run's captured frames, see
/// [`gcopss_sim::TimeSeries::to_json`]) and `audit` (key `audit`: the
/// delivery auditor's per-class accounting plus the lineage fingerprint).
pub(crate) fn write_runs(
    dir: &Path,
    kind: &str,
    key: &'static str,
    exp: &str,
    seed: u64,
    runs: &[(String, Json)],
) -> std::io::Result<()> {
    let entry = |(label, payload): &(String, Json)| {
        Json::obj([("label", Json::str(label.clone())), (key, payload.clone())])
    };
    let schema = format!("gcopss-{kind}-v1");
    let entries = Json::arr(runs.iter().map(entry));
    let doc = results_doc(&schema, exp, seed, [("runs", entries)]);
    let path = write_doc(dir, &format!("{kind}_{exp}.json"), &doc)?;
    println!("{kind} written to {path} ({} runs)", runs.len());
    Ok(())
}

/// Prints the hot-loop time-attribution table and writes
/// `results/prof_<exp>.json` (schema `gcopss-prof-v1`) from the simulator
/// self-profile of this experiment run. When `merge_into` is given, the
/// profile is also appended as a pseudo-run labeled `"prof"` whose Chrome
/// trace spans land in the experiment's merged Perfetto file (pass the
/// capture's report vector *before* `write_telemetry`).
///
/// The `count_fingerprint` in the file covers phase paths, call counts and
/// deterministic counters only — never wall-clock times — so same-seed
/// runs produce byte-identical `counts` sections.
pub(crate) fn write_prof(
    dir: &Path,
    exp: &str,
    seed: u64,
    report: &ProfReport,
    merge_into: Option<&mut Vec<TelemetryReport>>,
) -> std::io::Result<()> {
    header("Hot-loop time attribution (simulator self-profile)");
    print!("{}", report.table());
    let mut doc = results_doc("gcopss-prof-v1", exp, seed, []);
    if let (Json::Object(pairs), Json::Object(fields)) = (&mut doc, report.to_json()) {
        pairs.extend(fields);
    }
    let path = write_doc(dir, &format!("prof_{exp}.json"), &doc)?;
    println!(
        "prof written to {path} ({} phases, count fingerprint {:016x})",
        report.phases.len(),
        report.count_fingerprint()
    );
    if let Some(reports) = merge_into {
        let pid = reports.len() as u64;
        reports.push(TelemetryReport {
            label: "prof".to_string(),
            summary: Json::obj([
                ("label", Json::from("prof")),
                ("kind", Json::from("self-profile")),
                ("wall_ns", Json::from(report.wall_ns)),
                ("coverage", Json::from(report.coverage())),
                (
                    "count_fingerprint",
                    Json::str(format!("{:016x}", report.count_fingerprint())),
                ),
            ]),
            trace_events: report.trace_events_json(pid),
            fingerprint: report.count_fingerprint(),
        });
    }
    Ok(())
}

/// Prints one line per automatic RP split (Table I and Fig. 5c).
pub(crate) fn print_splits(splits: &[gcopss_core::SplitRecord]) {
    for s in splits {
        let moved: Vec<String> = s.moved.iter().map(ToString::to_string).collect();
        let (at, from, to) = (s.at.as_secs_f64(), s.from_rp, s.to_rp);
        println!("t={at:.2}s rp{from} -> rp{to}: moved {moved:?}");
    }
}

/// Formats bytes as the paper's GB unit.
#[must_use]
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// Sums both directions of every per-link byte counter in a report's
/// summary. `None` when the report carries no link table (e.g. the
/// trace-characterization pseudo-run, which has no simulator).
#[must_use]
pub fn per_link_byte_sum(r: &TelemetryReport) -> Option<u64> {
    let bytes = |l: &Json, key| l.get(key).and_then(Json::as_u64).unwrap_or(0);
    let links = r.summary.get("links")?.as_array()?;
    let both_ways = |l: &Json| bytes(l, "bytes_ab") + bytes(l, "bytes_ba");
    Some(links.iter().map(both_ways).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_math() {
        let o = ExpOptions {
            scale: 0.5,
            ..ExpOptions::default()
        };
        assert_eq!(o.scaled(100, 1000), 50);
        let o = ExpOptions { full: true, ..o };
        assert_eq!(o.scaled(100, 1000), 1000);
        assert_eq!(gb(2_000_000_000), 2.0);
    }

    #[test]
    fn parse_takes_values_only_when_they_parse() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = ExpOptions::parse(&args("--scale 0.2 --unknown --seed 7 --full"));
        assert!(o.full && o.scale == 0.2 && o.seed == 7);
        assert_eq!(o.out_dir, std::path::Path::new("results"));
        // A flag whose value is missing or malformed keeps the default and
        // does not swallow the next flag.
        let o = ExpOptions::parse(&args("--scale --full --seed x"));
        assert!(o.full && o.scale == 1.0 && o.seed == 42);
    }
}
