//! The experiment registry: every table/figure of the paper (and every
//! extension sweep) is one [`Experiment`] entry, selected by name from the
//! single `gcopss-exp` runner.

use crate::ExpOptions;

/// One runnable experiment.
pub struct Experiment {
    /// The name `gcopss-exp <name>` selects; stdout is tracked as
    /// `results/exp_<name>.txt`.
    pub name: &'static str,
    /// One-line description for the usage text.
    pub about: &'static str,
    /// Runs the experiment, printing its tables and writing its exports
    /// under [`ExpOptions::out_dir`]. Panics if a shape gate fails.
    pub run: fn(ExpOptions),
}

/// Declares one module per experiment and registers its `run` under the
/// module's name, so a module cannot exist unregistered or under two names.
macro_rules! experiments {
    ($($name:ident: $about:literal,)*) => {
        $(mod $name;)*

        /// Every experiment, in the order `run_experiments.sh` regenerates
        /// `results/` in.
        pub const EXPERIMENTS: &[Experiment] = &[
            $(Experiment { name: stringify!($name), about: $about, run: $name::run },)*
        ];
    };
}

experiments! {
    trace_stats: "Fig. 3c/3d: trace characterization of the synthetic Counter-Strike workload",
    fig4: "Fig. 4: update-latency CDFs of G-COPSS, NDN and the IP server on the testbed",
    table1: "Table I: latency and load, 1/2/3/6/auto RPs vs 1/2/3/6 IP servers",
    fig5: "Fig. 5: congestion and automatic RP balancing timelines",
    fig6: "Fig. 6: latency and network load vs number of players",
    table2: "Table II: full trace on IP servers, G-COPSS and hybrid-G-COPSS",
    table3: "Table III: snapshot convergence per movement type, QR vs cyclic multicast",
    ablation: "design-choice ablations: hybrid groups, split threshold, NDN interval, QR window",
    failover: "failure sweep: link flaps, RP crash and packet loss vs the IP and NDN baselines",
    audit: "delivery audit: every owed (publication, subscriber) pair accounted under chaos",
    scale: "ST match + FIB LPM lookup cost from 1k to 1M entries (--full: 10M)",
    rejoin: "rejoin storm: chunked-delta vs full-snapshot catch-up after an RP crash",
    overload: "overload sweep: 0.5x-4x offered load under bounded queues, AQM and priorities",
    adaptive: "adaptive control: stream-triggered RP moves and popularity-driven cache classes",
}

/// Looks an experiment up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
