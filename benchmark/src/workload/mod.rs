//! The five workloads and what one repetition of any of them yields.

pub mod plane;
pub mod sim;
pub mod storm;

use gcopss_compat::seq::SliceRandom;
use gcopss_compat::{SeedableRng, SmallRng};
use gcopss_core::experiments::{Workload as GameWorkload, WorkloadParams};
use gcopss_sim::SimDuration;
use std::sync::Arc;

use crate::alloc::HeapStats;
use crate::spans::Spans;

/// What one repetition (set-up, then one pass) produced, besides the times
/// its spans carry.
#[derive(Debug, Default)]
pub struct Rep {
    /// Heap calls and bytes during the pass, and its high-water mark.
    pub heap: HeapStats,
    /// Values that must repeat bit-for-bit across repetitions: simulated
    /// results and counts.
    pub exact: Vec<(&'static str, f64)>,
    /// Values derived from heap levels, which repeat only as closely as
    /// those do.
    pub approx: Vec<(&'static str, f64)>,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, the ones with the wrong outcome.
    pub failed: u64,
    /// Failed checks that are not per-operation (a dirty ledger, …).
    pub errors: Vec<String>,
}

impl Rep {
    pub fn exact(&self, name: &str) -> Option<f64> {
        self.exact.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// One repetition: the span `setup`, then the span `pass`, each
    /// enclosing one span per call into a layer.
    fn rep(&self, spans: &mut Spans) -> Rep;

    /// Set-up alone (the span `setup`), its product dropped: more samples
    /// for `setup_s` than there are passes.
    fn set_up_only(&self, spans: &mut Spans);

    /// The untimed repetition that precedes the timed ones.
    fn warm_up(&self, spans: &mut Spans) -> Rep {
        self.rep(spans)
    }

    /// Checks and values that need both the warm-up and a timed repetition.
    fn cross_check(&self, _warm_up: &Rep, _timed: &mut Rep) {}

    /// Layer measurements taken outside the timed repetitions, for the
    /// traced run only: `(metric, value)` pairs.
    fn probes(&self, _spans: &mut Spans) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The workload definition every simulated workload samples from: who
/// plays where, how often each player publishes, which objects exist. It is
/// frozen (Table I's seed), and `--seed` draws only the interleaving of
/// the trace, see [`game_workload`].
const DEFINITION_SEED: u64 = 42;

/// How many consecutive updates the seed permutes among themselves.
///
/// `rejoin_storm` sets it: catch-up traffic shares queues, PIT entries and
/// Content Store freshness windows with the updates, so which update meets
/// which Interest decides aggregation and cache hits, and the events and
/// heap calls of a pass with them. Quartile distance of `heap_allocs_m` over
/// twenty seeds at 8 players: 0.31 % of the median with the whole trace
/// shuffled, 0.29-0.41 % with 50- or 10-update runs, 0.19 % with runs of
/// four, 0.02 % with pairs (0.11 % at 10 players). Only the last is under a
/// third of the 0.5 % the count is gated at.
const SHUFFLE_RUN: usize = 2;

/// The backbone every simulated workload runs on (Table I's topology seed).
pub const NET_SEED: u64 = 7;

/// The game world and trace for `--seed seed`.
///
/// The multiset of updates (publisher, CD, object, size) and the arrival
/// instants come from the frozen definition; the seed decides, within each
/// run of [`SHUFFLE_RUN`] consecutive updates, which update happens at which
/// instant. The generator draws each update independently of its arrival
/// time, so every seed's trace is an equally likely sample of the same
/// process — but the work a pass does (deliveries owed, packets, hops) is
/// the same for every seed, which is what lets heap counts be compared
/// across runs that the driver seeds differently. Re-drawing the definition
/// itself moves those counts by ±7 %.
pub fn game_workload(
    seed: u64,
    players: usize,
    updates: usize,
    mean_interarrival: SimDuration,
) -> GameWorkload {
    let mut w = GameWorkload::counter_strike(&WorkloadParams {
        seed: DEFINITION_SEED,
        players,
        updates,
        mean_interarrival,
    });
    let mut trace = Arc::try_unwrap(w.trace).expect("fresh trace has one owner");
    let instants: Vec<u64> = trace.iter().map(|e| e.time_ns).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for run in trace.chunks_mut(SHUFFLE_RUN) {
        run.shuffle(&mut rng);
    }
    for (e, t) in trace.iter_mut().zip(instants) {
        e.time_ns = t;
    }
    w.trace = Arc::new(trace);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reorders_the_trace_and_keeps_its_composition() {
        let gap = SimDuration::from_micros(2_400);
        let a = game_workload(1, 40, 300, gap);
        let b = game_workload(2, 40, 300, gap);
        let again = game_workload(1, 40, 300, gap);
        assert_eq!(*a.trace, *again.trace, "same seed, same trace");
        assert_ne!(*a.trace, *b.trace, "another seed, another interleaving");

        let instants = |w: &GameWorkload| w.trace.iter().map(|e| e.time_ns).collect::<Vec<_>>();
        assert_eq!(instants(&a), instants(&b));
        assert!(
            instants(&a).windows(2).all(|p| p[0] <= p[1]),
            "still sorted by time"
        );

        let updates = |w: &GameWorkload| {
            let mut v: Vec<_> = w
                .trace
                .iter()
                .map(|e| (e.player, e.cd.clone(), e.object, e.size))
                .collect();
            v.sort();
            v
        };
        assert_eq!(updates(&a), updates(&b));
    }
}
