//! The `gcopss-exp` registry and command line: what `run_experiments.sh`
//! and the docs rely on.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use gcopss_bench::EXPERIMENTS;

/// The order `run_experiments.sh` has always regenerated `results/` in.
const ORDER: [&str; 14] = [
    "trace_stats",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "table2",
    "table3",
    "ablation",
    "failover",
    "audit",
    "scale",
    "rejoin",
    "overload",
    "adaptive",
];

fn gcopss_exp(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gcopss-exp"))
        .args(args)
        .output()
        .expect("spawn gcopss-exp");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.success(), text(out.stdout), text(out.stderr))
}

#[test]
fn names_are_unique_described_and_in_script_order() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names, ORDER);
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
    assert!(EXPERIMENTS.iter().all(|e| !e.about.is_empty()));
}

#[test]
fn every_experiment_has_a_tracked_results_table() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for e in EXPERIMENTS {
        let table = results.join(format!("exp_{}.txt", e.name));
        assert!(table.is_file(), "{} is missing", table.display());
    }
}

#[test]
fn list_prints_the_registry_one_name_per_line() {
    let (ok, stdout, _) = gcopss_exp(&["--list"]);
    assert!(ok);
    assert_eq!(stdout.lines().collect::<Vec<_>>(), ORDER);
}

#[test]
fn unknown_or_missing_name_fails_and_prints_the_list() {
    for args in [&["no_such_experiment", "--scale", "0.1"][..], &[]] {
        let (ok, stdout, stderr) = gcopss_exp(args);
        assert!(!ok, "{args:?} must exit non-zero");
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
        for name in ORDER {
            assert!(
                stderr.contains(name),
                "{args:?}: usage does not list {name}"
            );
        }
    }
}
