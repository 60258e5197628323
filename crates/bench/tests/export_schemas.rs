//! Export-schema gate: runs scaled-down experiments in-process through the
//! `gcopss-exp` registry into a scratch directory (never the tracked
//! `results/`) and checks the documents they write. `#[ignore]`d because
//! the runs cost minutes even in release; `scripts/check_hermetic.sh`
//! invokes it with `--release -- --ignored`.
//!
//! Every document loaded: `schema` is `gcopss-<kind>-v1`, `exp` is the
//! harness label, `seed` is an integer. Then, one line per invariant:
//!
//! `fig4` (`--scale 0.2`), telemetry and prof:
//! - run labels are exactly `gcopss, ip, ndn, prof`
//! - each system run's links are non-empty and `bytes_ab + bytes_ba` sums to `link_bytes_total`
//! - each system run's nodes are non-empty and all carry `service_ns`
//! - the trailing pseudo-run has `kind = self-profile`
//! - `traceEvents` is non-empty and every event's pid is declared by a `process_name` event
//! - every trace event's `ph` is `M`, `X` or `i`
//! - prof `wall_ns`, `events`, `events_per_sec` are positive and `coverage >= 0.9`
//! - prof phases are non-empty; each has a path and `calls > 0`
//! - each phase has `total_ns >= self_ns` and `max_ns <= total_ns`
//! - phase `self_ns` sums to `self_sum_ns`
//! - phase paths cover `engine/pop`, `copss/st_match`, `ndn/fib_lpm`, `ndn_client/`
//! - `counts.phases` and `counts.counters` are non-empty
//! - `count_fingerprint` is 16 hex digits
//!
//! `failover` and `audit` (`--scale 0.4`):
//! - failover telemetry has one self-profile pseudo-run plus exactly nine system runs
//! - the nine cover `gcopss`, `ip`, `ndn` and each exports counters
//! - some run recorded `link-lost` or `node-lost`
//! - some `gcopss` run recorded `rp-failovers`
//! - every audited run is clean with zero `duplicates`, `unexplained`, `truncated`
//! - its six classes sum to `total_pairs > 0`
//! - its `dropped_total` equals the sum of the per-reason `dropped` map
//! - both time series have runs, each with `tick_ns > 0` and non-empty frames
//! - every frame has exactly the six base keys and `t_ns` strictly increases
//!
//! `rejoin` (`--scale 0.5`):
//! - audit labels are `chunked-delta, full-snapshot`, each `clean`
//! - each has `owed == delivered > 0`, `outstanding == 0`, `over_delivered == 0`
//! - each has `recovery_catchups > 0` and a 16-hex `ledger_fingerprint`
//! - `0 < delta.recovery_bytes < full.recovery_bytes`
//! - delta has `chunks_held > chunks_fetched > 0`
//! - delta has `reassembly_ok > 0` and `reassembly_failed == 0`
//! - telemetry labels are `chunked-delta, full-snapshot, prof`
//! - the delta run exports `broker-manifest-served` and `broker-chunk-served`
//! - prof has `coverage >= 0.9` and phases
//!
//! `overload` (`--scale 0.2`):
//! - audited runs exist, are all `gcopss-aqm-x*`, and are clean (as above)
//! - telemetry ends with `prof` and the regimes are exactly the five system/queue pairs
//! - the sweep exports all nine overload drop, admission and mark counters
//!
//! `adaptive` (default scale):
//! - audit labels are `rp-off, rp-static, rp-adaptive`, each clean (as above)
//! - telemetry labels are the three RP runs, the two cache runs, then `prof`
//! - the sweep exports the five adaptive counters
//! - time-series frames are non-empty, ordered, and carry the six base keys
//! - frames of `rp-adaptive` and `cache-adaptive`, and only those, add `streams`
//! - every `streams` has `rolls`, `sketches`, `windowed`; some frame has `rolls > 0`
//!
//! `scale` (`--scale 0.2`):
//! - at least two points with `entries` ascending
//! - all five measurements are positive at every point
//! - `st_match_ns` and `fib_lpm_ns` each stay within 20x across the sweep

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use gcopss_bench::{exp, ExpOptions};
use gcopss_sim::json::Json;

const FRAME_KEYS: &str = "t_ns counters gauges per_node queue_sum queue_max";

/// Runs each `(name, scale)` into a fresh scratch directory under cargo's
/// integration-test tmpdir and returns it.
fn run(test: &str, exps: &[(&str, f64)]) -> PathBuf {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out_dir = tmp.join("export_schemas").join(test);
    let _ = std::fs::remove_dir_all(&out_dir);
    for &(name, scale) in exps {
        let opts = ExpOptions {
            scale,
            out_dir: out_dir.clone(),
            ..ExpOptions::default()
        };
        (exp::find(name).expect("registered experiment").run)(opts);
    }
    out_dir
}

/// Parses `<dir>/<file>` and checks the three leading fields.
fn load_file(dir: &Path, file: &str, schema: &str, exp: &str) -> Json {
    println!("checking {file}");
    let text = std::fs::read_to_string(dir.join(file)).expect(file);
    let doc = Json::parse(&text).expect(file);
    assert_eq!(doc.text("schema"), schema);
    assert_eq!(doc.text("exp"), exp);
    assert!(matches!(doc.at("seed"), Json::UInt(_)), "seed");
    doc
}

/// Loads `<kind>_<exp>.json`, schema `gcopss-<kind>-v1`.
fn load(dir: &Path, kind: &str, exp: &str) -> Json {
    let (file, schema) = (format!("{kind}_{exp}.json"), format!("gcopss-{kind}-v1"));
    load_file(dir, &file, &schema, exp)
}

/// Typed field access that panics naming the key.
trait Fields {
    fn at(&self, key: &str) -> &Json;
    fn num(&self, key: &str) -> u64 {
        self.at(key).as_u64().expect(key)
    }
    fn float(&self, key: &str) -> f64 {
        self.at(key).as_f64().expect(key)
    }
    fn text(&self, key: &str) -> &str {
        self.at(key).as_str().expect(key)
    }
    fn items(&self, key: &str) -> &[Json] {
        self.at(key).as_array().expect(key)
    }
}

impl Fields for Json {
    fn at(&self, key: &str) -> &Json {
        let missing = || panic!("no `{key}` in {self}");
        self.get(key).unwrap_or_else(missing)
    }
}

/// The space-separated words of `s`: compact expected-name lists.
fn words(s: &str) -> BTreeSet<&str> {
    s.split(' ').collect()
}

fn keys(j: &Json) -> BTreeSet<&str> {
    match j {
        Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

/// The run labels in order, space-separated.
fn labels(runs: &[Json]) -> String {
    let labels: Vec<&str> = runs.iter().map(|r| r.text("label")).collect();
    labels.join(" ")
}

/// A run label up to its swept value: `ip-loss0.05` → `ip` for `-loss`,
/// `ip-aqm-x4` → `ip-aqm` for `-x`.
fn stem<'a>(run: &'a Json, sep: &str) -> &'a str {
    run.text("label").split(sep).next().expect("first piece")
}

/// The counter names exported across `runs`.
fn metrics<'a>(runs: impl IntoIterator<Item = &'a Json>) -> BTreeSet<&'a str> {
    let counters = runs.into_iter().flat_map(|r| r.items("counters"));
    counters.map(|c| c.text("metric")).collect()
}

fn assert_exports(runs: &[Json], need: &str) {
    let (need, seen) = (words(need), metrics(runs));
    assert!(need.is_subset(&seen), "{need:?} not all in {seen:?}");
}

fn assert_hex16(s: &str) {
    assert!(s.len() == 16 && u64::from_str_radix(s, 16).is_ok(), "{s}");
}

/// Every run of a lineage-audit document closes its books.
fn assert_audits_clean(doc: &Json) {
    let runs = doc.items("runs");
    assert!(!runs.is_empty(), "no audited runs");
    for r in runs {
        println!("checking run {}", r.text("label"));
        let a = r.at("audit");
        assert_eq!(a.at("clean"), &Json::Bool(true), "{}", a.at("errors"));
        for zero in ["duplicates", "unexplained", "truncated"] {
            assert_eq!(a.num(zero), 0, "{zero}");
        }
        let classes = "delivered duplicates in_flight unpublished dropped_total unexplained";
        let sum: u64 = classes.split(' ').map(|k| a.num(k)).sum();
        assert!(sum == a.num("total_pairs") && sum > 0, "classes: {sum}");
        let dropped = a.at("dropped");
        let by_reason: u64 = keys(dropped).iter().map(|k| dropped.num(k)).sum();
        assert_eq!(a.num("dropped_total"), by_reason);
    }
}

/// Frames present and strictly ordered, with `streams` beside the base keys
/// on exactly the runs whose label `streamed` accepts.
fn assert_frames(ts: &Json, streamed: fn(&str) -> bool) {
    let runs = ts.items("runs");
    assert!(!runs.is_empty(), "time series has no runs");
    for r in runs {
        println!("checking run {}", r.text("label"));
        let series = r.at("series");
        let frames = series.items("frames");
        assert!(series.num("tick_ns") > 0 && !frames.is_empty());
        let mut want = words(FRAME_KEYS);
        if streamed(r.text("label")) {
            want.insert("streams");
        }
        assert!(frames.iter().all(|f| keys(f) == want), "frame keys");
        let in_order = |w: &[Json]| w[0].num("t_ns") < w[1].num("t_ns");
        assert!(frames.windows(2).all(in_order), "t_ns not increasing");
    }
}

fn assert_prof(prof: &Json) {
    assert!(prof.float("coverage") >= 0.9 && !prof.items("phases").is_empty());
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn fig4_telemetry_and_prof() {
    let dir = run("fig4", &[("fig4", 0.2)]);

    let tel = load(&dir, "telemetry", "fig4");
    let runs = tel.items("runs");
    assert_eq!(labels(runs), "gcopss ip ndn prof");
    for r in &runs[..3] {
        println!("checking run {}", r.text("label"));
        let (links, nodes) = (r.items("links"), r.items("nodes"));
        assert!(!links.is_empty() && !nodes.is_empty());
        let both_ways = |l: &Json| l.num("bytes_ab") + l.num("bytes_ba");
        let per_link: u64 = links.iter().map(both_ways).sum();
        assert_eq!(per_link, r.num("link_bytes_total"));
        assert!(nodes.iter().all(|n| n.get("service_ns").is_some()));
    }
    assert_eq!(runs[3].text("kind"), "self-profile");
    let events = tel.items("traceEvents");
    assert!(!events.is_empty(), "journal must be populated");
    let process_name = Json::str("process_name");
    let declares = |e: &&Json| e.get("name") == Some(&process_name);
    let declared = events.iter().filter(declares).map(|e| e.num("pid"));
    let pids: BTreeSet<u64> = declared.collect();
    for e in events {
        assert!(pids.contains(&e.num("pid")), "undeclared pid in {e}");
        assert!(["M", "X", "i"].contains(&e.text("ph")), "ph of {e}");
    }

    let prof = load(&dir, "prof", "fig4");
    assert!(prof.num("wall_ns") > 0 && prof.num("events") > 0);
    assert!(prof.float("events_per_sec") > 0.0);
    assert_prof(&prof);
    let phases = prof.items("phases");
    for p in phases {
        assert!(!p.text("path").is_empty() && p.num("calls") > 0, "{p}");
        assert!(p.num("total_ns") >= p.num("self_ns"), "{p}");
        assert!(p.num("max_ns") <= p.num("total_ns"), "{p}");
    }
    let self_sum: u64 = phases.iter().map(|p| p.num("self_ns")).sum();
    assert_eq!(self_sum, prof.num("self_sum_ns"));
    for scope in ["engine/pop", "copss/st_match", "ndn/fib_lpm", "ndn_client/"] {
        let covers = |p: &Json| p.text("path").contains(scope);
        assert!(phases.iter().any(covers), "no `{scope}` phase");
    }
    let counts = prof.at("counts");
    assert!(!counts.items("phases").is_empty());
    assert!(!keys(counts.at("counters")).is_empty());
    assert_hex16(prof.text("count_fingerprint"));
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn failover_and_audit() {
    let dir = run("failover_audit", &[("failover", 0.4), ("audit", 0.4)]);

    let tel = load(&dir, "telemetry", "exp_failover");
    let all = tel.items("runs");
    let self_profile = Json::str("self-profile");
    let system_run = |r: &&Json| r.get("kind") != Some(&self_profile);
    let runs: Vec<&Json> = all.iter().filter(system_run).collect();
    assert_eq!(runs.len() + 1, all.len(), "prof pseudo-run missing");
    assert_eq!(runs.len(), 9, "{}", labels(all));
    let systems: BTreeSet<&str> = runs.iter().map(|r| stem(r, "-loss")).collect();
    assert_eq!(systems, words("gcopss ip ndn"));
    assert!(runs.iter().all(|r| !r.items("counters").is_empty()));
    let seen = metrics(runs.iter().copied());
    assert!(seen.contains("link-lost") || seen.contains("node-lost"));
    let gcopss = |r: &&Json| r.text("label").starts_with("gcopss");
    let seen = metrics(runs.iter().copied().filter(gcopss));
    assert!(seen.contains("rp-failovers"), "no gcopss run failed over");

    assert_audits_clean(&load(&dir, "audit", "exp_audit"));
    assert_frames(&load(&dir, "timeseries", "exp_audit"), |_| false);
    assert_frames(&load(&dir, "timeseries", "exp_failover"), |_| false);
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn rejoin_ledgers() {
    let dir = run("rejoin", &[("rejoin", 0.5)]);

    let doc = load(&dir, "audit", "exp_rejoin");
    let runs = doc.items("runs");
    assert_eq!(labels(runs), "chunked-delta full-snapshot");
    for r in runs {
        println!("checking run {}", r.text("label"));
        let a = r.at("audit");
        assert_eq!(a.at("clean"), &Json::Bool(true));
        assert!(a.num("owed") == a.num("delivered") && a.num("owed") > 0);
        assert!(a.num("outstanding") == 0 && a.num("over_delivered") == 0);
        assert!(a.num("recovery_catchups") > 0);
        assert_hex16(a.text("ledger_fingerprint"));
    }
    let (delta, full) = (runs[0].at("audit"), runs[1].at("audit"));
    let few = delta.num("recovery_bytes");
    assert!(0 < few && few < full.num("recovery_bytes"), "{few}");
    // The warm chunk store must be doing real work: most chunks the recovery
    // manifests name were already held, and every reassembly verified.
    let fetched = delta.num("chunks_fetched");
    assert!(delta.num("chunks_held") > fetched && fetched > 0, "{delta}");
    assert!(delta.num("reassembly_ok") > 0, "{delta}");
    assert_eq!(delta.num("reassembly_failed"), 0);

    let tel = load(&dir, "telemetry", "exp_rejoin");
    let runs = tel.items("runs");
    assert_eq!(labels(runs), "chunked-delta full-snapshot prof");
    let need = "broker-manifest-served broker-chunk-served";
    assert_exports(&runs[..1], need);
    assert_prof(&load(&dir, "prof", "exp_rejoin"));
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn overload_sweep() {
    let dir = run("overload", &[("overload", 0.2)]);

    let audited = load(&dir, "audit", "exp_overload");
    assert_audits_clean(&audited);
    let aqm = |r: &Json| r.text("label").starts_with("gcopss-aqm-x");
    assert!(audited.items("runs").iter().all(aqm), "{}", audited);

    let tel = load(&dir, "telemetry", "exp_overload");
    let (prof, sweep) = tel.items("runs").split_last().expect("runs");
    assert_eq!(prof.text("label"), "prof");
    let regimes: BTreeSet<&str> = sweep.iter().map(|r| stem(r, "-x")).collect();
    let want = "gcopss-aqm gcopss-unbounded gcopss-droptail ip-aqm ndn-aqm";
    assert_eq!(regimes, words(want));
    // Bounded runs export the overload drop classes, the sojourn-mark
    // counter and the per-class admission counters.
    assert_exports(
        sweep,
        "queue-full aqm-shed stale-superseded rate-limited mark",
    );
    assert_exports(sweep, "ctl-in ctl-drop bulk-in bulk-drop");
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn adaptive_sweep() {
    let dir = run("adaptive", &[("adaptive", 1.0)]);

    let audited = load(&dir, "audit", "exp_adaptive");
    assert_audits_clean(&audited);
    assert_eq!(
        labels(audited.items("runs")),
        "rp-off rp-static rp-adaptive"
    );

    let tel = load(&dir, "telemetry", "exp_adaptive");
    let runs = tel.items("runs");
    let want = "rp-off rp-static rp-adaptive cache-static cache-adaptive prof";
    assert_eq!(labels(runs), want);
    let need = "cs-hit cs-miss rp-move-triggered cache-class-promotions";
    assert_exports(&runs[..5], need);
    assert_exports(&runs[..5], "broker-qr-served");

    // Only the adaptive runs carry the per-frame `streams` section; static
    // and off runs keep the exact legacy frame shape.
    let ts = load(&dir, "timeseries", "exp_adaptive");
    let adaptive: fn(&str) -> bool = |label| label.ends_with("-adaptive");
    assert_frames(&ts, adaptive);
    let runs = ts.items("runs").iter();
    let streamed: Vec<&Json> = runs.filter(|r| adaptive(r.text("label"))).collect();
    assert_eq!(streamed.len(), 2, "rp-adaptive and cache-adaptive");
    for r in streamed {
        let frames = r.at("series").items("frames").iter();
        let streams: Vec<&Json> = frames.map(|f| f.at("streams")).collect();
        for part in ["rolls", "sketches", "windowed"] {
            assert!(streams.iter().all(|s| s.get(part).is_some()), "{part}");
        }
        assert!(streams.iter().any(|s| s.num("rolls") > 0), "never rolled");
    }
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn scale_sweep() {
    let dir = run("scale", &[("scale", 0.2)]);

    let doc = load_file(&dir, "exp_scale.json", "gcopss-scale-v2", "scale");
    let points = doc.items("points");
    let sizes: Vec<u64> = points.iter().map(|p| p.num("entries")).collect();
    assert!(sizes.len() >= 2 && sizes.is_sorted(), "{sizes:?}");
    assert!(sizes.first() < sizes.last(), "{sizes:?}");
    let series = |k: &'static str| points.iter().map(move |p| p.float(k));
    let measurements = "st_match_ns st_bloom_ns fib_lpm_ns st_build_ms fib_build_ms";
    for k in measurements.split(' ') {
        assert!(series(k).all(|v| v > 0.0), "{k} not positive");
    }
    // The tree-bitmap paths stay near-flat (20x is a loose ceiling: measured
    // headroom is ~5x over a 1000x size range).
    for k in ["st_match_ns", "fib_lpm_ns"] {
        let lo = series(k).fold(f64::INFINITY, f64::min);
        let hi = series(k).fold(0.0, f64::max);
        assert!(hi / lo <= 20.0, "{k}: max/min = {:.1}x", hi / lo);
    }
}

#[test]
#[ignore = "minutes of simulation; run by scripts/check_hermetic.sh in release"]
fn tables_and_figures() {
    let exps = [
        ("table1", 0.05),
        ("table2", 0.05),
        ("table3", 0.6),
        ("ablation", 0.1),
        ("fig6", 0.05),
        ("fig5", 0.2),
    ];
    let dir = run("tables_figures", &exps);

    for (exp, _) in exps {
        let tel = load(&dir, "telemetry", exp);
        let (prof, runs) = tel.items("runs").split_last().expect("runs");
        assert_eq!(prof.text("kind"), "self-profile");
        assert!(!runs.is_empty(), "{exp} captured no system run");
        for r in runs {
            println!("checking run {}", r.text("label"));
            assert!(!r.items("counters").is_empty());
            assert_hex16(r.at("journal").text("fingerprint"));
        }
        let prof = load(&dir, "prof", exp);
        assert_prof(&prof);
        assert_hex16(prof.text("count_fingerprint"));
    }
    assert_frames(&load(&dir, "timeseries", "fig5"), |_| false);
}
