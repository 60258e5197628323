//! What [`ExpHarness::finish`] writes when no capture was configured: the
//! self-profile always, the telemetry document only if a report was pushed
//! by hand (the `trace_stats` shape).

use std::path::{Path, PathBuf};

use gcopss_bench::{ExpHarness, ExpOptions};
use gcopss_sim::json::Json;
use gcopss_sim::TelemetryReport;

/// Runs a captureless harness over `body` into a fresh scratch directory;
/// returns the directory and the sorted names of the files `finish` wrote.
fn finish_captureless(exp: &str, body: impl FnOnce(&mut ExpHarness)) -> (PathBuf, Vec<String>) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("harness").join(exp);
    let _ = std::fs::remove_dir_all(&out_dir);
    let opts = ExpOptions {
        out_dir: out_dir.clone(),
        ..ExpOptions::default()
    };
    let mut h = ExpHarness::new(exp, opts);
    assert!(!h.cap().is_on());
    body(&mut h);
    h.finish();
    let mut files: Vec<String> = std::fs::read_dir(&out_dir)
        .expect("finish creates the output directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    files.sort();
    (out_dir, files)
}

#[test]
fn captureless_harness_writes_telemetry_only_for_pushed_reports() {
    let (_, bare) = finish_captureless("bare", |_| {});
    assert_eq!(bare, ["prof_bare.json"]);

    let (dir, pushed) = finish_captureless("pushed", |h| {
        h.push_report(TelemetryReport {
            label: "by-hand".to_string(),
            summary: Json::obj([("label", Json::str("by-hand"))]),
            trace_events: Vec::new(),
            fingerprint: 7,
        });
    });
    assert_eq!(pushed, ["prof_pushed.json", "telemetry_pushed.json"]);
    let doc = std::fs::read_to_string(dir.join("telemetry_pushed.json"))
        .expect("telemetry document");
    let runs = Json::parse(&doc).expect("valid JSON");
    let labels: Vec<&str> = runs
        .get("runs")
        .and_then(Json::as_array)
        .expect("runs array")
        .iter()
        .filter_map(|r| r.get("label").and_then(Json::as_str))
        .collect();
    // The pushed report, then the self-profile merged as a pseudo-run.
    assert_eq!(labels, ["by-hand", "prof"]);
}
