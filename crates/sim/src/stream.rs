//! In-simulation streaming metrics: windowed counters, EWMA gauges, and a
//! space-saving heavy-hitter sketch, clocked off simulated time.
//!
//! The telemetry registry (PR 2) and the time-series sampler (PR 4) export
//! what happened *after* a run; nothing inside the simulated system could
//! act on what they see. This module closes that loop: a [`MetricStreams`]
//! hub lives inside the engine, behaviors feed it through `Ctx` (one branch
//! per hook while disabled, mirroring [`crate::Telemetry`]), and the engine
//! *rolls* it at a fixed simulated-time tick — closing window buckets,
//! updating per-node queue-depth EWMAs, and aging the sketches. Behaviors
//! read the same hub back (windowed rates, EWMA gauges, heavy-hitter
//! top-k), which is what makes telemetry-driven *adaptive control*
//! possible: the RP auto-balancer and the broker/NDN caching layer consume
//! these streams instead of fixed thresholds.
//!
//! Three primitives, all integer-only:
//!
//! * **Windowed counters** — per `(metric, node)`: a ring of the last
//!   [`WINDOW_TICKS`] closed tick buckets plus the current partial bucket;
//!   [`MetricStreams::rate`] is the sum over that sliding window.
//! * **EWMA gauges** — Q8 fixed point, `ewma += (sample·2⁸ − ewma) ≫
//!   shift`; the engine feeds every node's service-queue depth at each
//!   roll, so [`MetricStreams::queue_ewma_q8`] is a smoothed load signal
//!   that a single burst cannot flip.
//! * **Space-saving sketches** — the Metwally–Agrawal–El Abbadi heavy
//!   hitter summary: `m` monitored keys; a hit increments, a miss over a
//!   full sketch evicts the minimum-count key (smallest key on ties — the
//!   map is ordered, so eviction is deterministic) and the newcomer
//!   inherits `min+w` with error bound `min`. Estimates overcount by at
//!   most `err ≤ N/m`; every key with true count `> N/m` is monitored.
//!   Sketches are halved every [`WINDOW_TICKS`] rolls so old hotspots decay.
//!
//! Determinism: no PRNG draws at all, no wall clock, and every map is a
//! `BTreeMap` — same-seed runs produce byte-identical stream snapshots. A
//! vacuous [`StreamConfig`] (zero tick) is never installed (the vacuous
//! [`crate::fault::FaultPlan`] / [`crate::OverloadConfig`] rule), so
//! unconfigured runs stay bit-identical to pre-stream builds; and because
//! the hub only *observes*, installing streams without an adaptive
//! consumer changes no packet schedule either.

use std::collections::{BTreeMap, VecDeque};

use crate::json::Json;
use crate::{SimDuration, SimTime};

/// Sliding-window length in closed tick buckets; also the sketch half-life
/// in rolls.
pub const WINDOW_TICKS: usize = 8;

/// EWMA smoothing: weight of one sample is `2^-EWMA_SHIFT`.
pub const EWMA_SHIFT: u32 = 3;

/// Monitored keys per space-saving sketch.
pub const SKETCH_CAPACITY: usize = 32;

/// Configuration of the in-simulation metric streams
/// ([`crate::Simulator::install_streams`]).
///
/// The default config is vacuous (zero tick) and installing it is a no-op,
/// mirroring the vacuous `FaultPlan`/`OverloadConfig` rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamConfig {
    /// Roll period in simulated time. [`SimDuration::ZERO`] = vacuous:
    /// nothing is installed and every hook stays a single branch.
    pub tick: SimDuration,
}

impl StreamConfig {
    /// A non-vacuous config rolling every `tick`.
    #[must_use]
    pub fn every(tick: SimDuration) -> Self {
        Self { tick }
    }

    /// `true` when installing this config could not change any run: with a
    /// zero tick the hub never rolls and never enables, so every feed and
    /// read hook stays a single branch.
    #[must_use]
    pub fn is_vacuous(&self) -> bool {
        self.tick == SimDuration::ZERO
    }
}

/// One per-`(metric, node)` sliding-window counter: closed tick buckets
/// plus the current partial bucket.
#[derive(Debug, Clone, Default)]
struct WindowedCounter {
    /// Closed buckets, oldest first; bounded by [`WINDOW_TICKS`].
    closed: VecDeque<u64>,
    /// The bucket currently filling (closed at the next roll).
    current: u64,
}

impl WindowedCounter {
    fn bump(&mut self, delta: u64) {
        self.current += delta;
    }

    /// Sum over the sliding window (closed buckets + current partial).
    fn windowed(&self) -> u64 {
        self.closed.iter().sum::<u64>() + self.current
    }

    fn roll(&mut self, window: usize) {
        self.closed.push_back(self.current);
        self.current = 0;
        while self.closed.len() > window {
            self.closed.pop_front();
        }
    }
}

/// A Q8 fixed-point exponentially weighted moving average.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    /// The average, times 256. `None`-like sentinel is not needed: the
    /// first sample snaps the average (see [`Ewma::feed`]).
    q8: u64,
    primed: bool,
}

impl Ewma {
    fn feed(&mut self, sample: u64, shift: u32) {
        let s = sample << 8;
        if !self.primed {
            self.primed = true;
            self.q8 = s;
            return;
        }
        let cur = self.q8 as i64;
        self.q8 = (cur + ((s as i64 - cur) >> shift)) as u64;
    }
}

/// The space-saving heavy-hitter sketch (Metwally et al., "Efficient
/// computation of frequent and top-k elements in data streams").
///
/// Deterministic by construction: the entry map is ordered, so the evicted
/// minimum is unique (smallest count, then smallest key).
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    /// key → (estimated count, overestimation bound).
    entries: BTreeMap<u64, (u64, u64)>,
}

impl SpaceSaving {
    /// An empty sketch monitoring at most `capacity.max(1)` keys.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
        }
    }

    /// Offers `weight` occurrences of `key` to the sketch.
    pub fn offer(&mut self, key: u64, weight: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.0 += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, (weight, 0));
            return;
        }
        // Evict the minimum-count monitored key; the newcomer inherits its
        // count as the overestimation bound.
        let (&victim, &(min, _)) = self
            .entries
            .iter()
            .min_by_key(|&(&k, &(c, _))| (c, k))
            .expect("sketch is non-empty at capacity");
        self.entries.remove(&victim);
        self.entries.insert(key, (min + weight, min));
    }

    /// The estimated count and error bound of `key`, when monitored. The
    /// true count lies in `[count − err, count]`.
    #[must_use]
    pub fn count_of(&self, key: u64) -> Option<(u64, u64)> {
        self.entries.get(&key).copied()
    }

    /// The `k` highest-estimate keys as `(key, count, err)`, counts
    /// descending (smallest key first on ties).
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<(u64, u64, u64)> {
        let mut all: Vec<_> = self.entries.iter().map(|(&k, &(c, e))| (k, c, e)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Sum of the monitored estimates (the sketch's view of recent mass).
    #[must_use]
    pub fn monitored_total(&self) -> u64 {
        self.entries.values().map(|&(c, _)| c).sum()
    }

    /// Halves every estimate (and bound), dropping keys that reach zero —
    /// the periodic decay that keeps the sketch recency-biased.
    pub fn halve(&mut self) {
        self.entries = self
            .entries
            .iter()
            .filter_map(|(&k, &(c, e))| (c / 2 > 0).then_some((k, (c / 2, e / 2))))
            .collect();
    }
}

/// The engine-resident streaming-metrics hub.
///
/// Held by value in the simulator (like [`crate::Telemetry`]): a disabled
/// hub costs one branch per hook. Enabled by
/// [`crate::Simulator::install_streams`] with a non-vacuous
/// [`StreamConfig`]; fed by behaviors through `Ctx::stream_bump` /
/// `Ctx::stream_offer` and by the engine (queue depths, at each roll);
/// read back through `Ctx::streams`.
#[derive(Debug)]
pub struct MetricStreams {
    tick: SimDuration,
    enabled: bool,
    /// When the next roll is due (`enabled` only).
    next_roll: SimTime,
    /// Rolls completed so far — consumers key "once per roll" evaluations
    /// off this.
    rolls: u64,
    /// Per-`(metric, node)` windowed counters, created on first bump.
    counters: BTreeMap<(&'static str, u32), WindowedCounter>,
    /// Named heavy-hitter sketches, created on first offer.
    sketches: BTreeMap<&'static str, SpaceSaving>,
    /// Per-node service-queue-depth EWMAs, fed by the engine at each roll.
    queue_ewma: Vec<Ewma>,
}

impl MetricStreams {
    /// The disabled hub every simulator starts with.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            tick: SimDuration::ZERO,
            enabled: false,
            next_roll: SimTime::ZERO,
            rolls: 0,
            counters: BTreeMap::new(),
            sketches: BTreeMap::new(),
            queue_ewma: Vec::new(),
        }
    }

    /// An enabled hub over `node_count` nodes. `cfg` must be non-vacuous
    /// (the engine's install refuses vacuous configs before this).
    #[must_use]
    pub fn new(cfg: StreamConfig, node_count: usize) -> Self {
        Self {
            tick: cfg.tick,
            enabled: true,
            next_roll: SimTime::ZERO + cfg.tick,
            rolls: 0,
            counters: BTreeMap::new(),
            sketches: BTreeMap::new(),
            queue_ewma: vec![Ewma::default(); node_count],
        }
    }

    /// Whether the hub is recording (one branch per feed hook otherwise).
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// When the next roll is due; `None` while disabled.
    #[must_use]
    pub fn next_roll_at(&self) -> Option<SimTime> {
        self.enabled.then_some(self.next_roll)
    }

    /// Rolls completed so far.
    #[must_use]
    pub fn rolls(&self) -> u64 {
        self.rolls
    }

    /// Bumps the windowed counter `metric` at `node`. No-op while disabled.
    #[inline]
    pub fn bump(&mut self, metric: &'static str, node: u32, delta: u64) {
        if !self.enabled {
            return;
        }
        self.counters.entry((metric, node)).or_default().bump(delta);
    }

    /// Offers `weight` of `key` to the named sketch. No-op while disabled.
    #[inline]
    pub fn offer(&mut self, stream: &'static str, key: u64, weight: u64) {
        if !self.enabled {
            return;
        }
        self.sketches
            .entry(stream)
            .or_insert_with(|| SpaceSaving::new(SKETCH_CAPACITY))
            .offer(key, weight);
    }

    /// The sliding-window sum of `metric` at `node` (0 when never bumped).
    #[must_use]
    pub fn rate(&self, metric: &'static str, node: u32) -> u64 {
        self.counters
            .get(&(metric, node))
            .map_or(0, WindowedCounter::windowed)
    }

    /// The node's service-queue-depth EWMA in Q8 fixed point (0 before the
    /// first roll or while disabled).
    #[must_use]
    pub fn queue_ewma_q8(&self, node: u32) -> u64 {
        self.queue_ewma.get(node as usize).map_or(0, |e| e.q8)
    }

    /// Read access to a named sketch, when any key was offered.
    #[must_use]
    pub fn sketch(&self, stream: &'static str) -> Option<&SpaceSaving> {
        self.sketches.get(stream)
    }

    /// One roll at `at`: closes every counter's current bucket, feeds the
    /// queue-depth EWMAs, and halves the sketches every [`WINDOW_TICKS`]
    /// rolls. Called by the engine, interleaved with event dispatch in
    /// timestamp order.
    pub fn roll(&mut self, at: SimTime, queue_depths: impl Iterator<Item = usize>) {
        debug_assert!(self.enabled, "rolling a disabled hub");
        for c in self.counters.values_mut() {
            c.roll(WINDOW_TICKS);
        }
        for (e, q) in self.queue_ewma.iter_mut().zip(queue_depths) {
            e.feed(q as u64, EWMA_SHIFT);
        }
        self.rolls += 1;
        if self.rolls.is_multiple_of(WINDOW_TICKS as u64) {
            for s in self.sketches.values_mut() {
                s.halve();
            }
        }
        self.next_roll = at + self.tick;
    }

    /// A compact snapshot for the time-series sampler's `"streams"` frame
    /// section: rolls, windowed per-metric totals, queue-EWMA extremes, and
    /// every sketch's top-8. Ordered maps throughout — byte-identical
    /// across same-seed runs.
    #[must_use]
    pub fn snapshot_json(&self) -> Json {
        let mut windowed: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (&(metric, _), c) in &self.counters {
            *windowed.entry(metric).or_default() += c.windowed();
        }
        let counters: Vec<_> = windowed
            .into_iter()
            .map(|(m, v)| (m, Json::from(v)))
            .collect();
        let (mut q_max, mut q_sum) = (0u64, 0u64);
        for e in &self.queue_ewma {
            q_max = q_max.max(e.q8);
            q_sum += e.q8;
        }
        let sketches: Vec<_> = self
            .sketches
            .iter()
            .map(|(&name, s)| {
                let rows = s
                    .top(8)
                    .into_iter()
                    .map(|(k, c, e)| Json::Array(vec![Json::from(k), Json::from(c), Json::from(e)]))
                    .collect();
                (name, Json::Array(rows))
            })
            .collect();
        Json::obj([
            ("rolls", Json::from(self.rolls)),
            ("windowed", Json::obj(counters)),
            ("queue_ewma_q8_sum", Json::from(q_sum)),
            ("queue_ewma_q8_max", Json::from(q_max)),
            ("sketches", Json::obj(sketches)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_compat::{Rng, SeedableRng, StdRng};

    #[test]
    fn default_config_is_vacuous() {
        assert!(StreamConfig::default().is_vacuous());
        assert!(!StreamConfig::every(SimDuration::from_millis(100)).is_vacuous());
    }

    #[test]
    fn windowed_counter_slides() {
        let mut c = WindowedCounter::default();
        c.bump(5);
        assert_eq!(c.windowed(), 5);
        c.roll(2);
        c.bump(3);
        assert_eq!(c.windowed(), 8); // closed 5 + partial 3
        c.roll(2);
        c.roll(2);
        // Window of 2 closed buckets: [3, 0]; the 5 slid out.
        assert_eq!(c.windowed(), 3);
        c.roll(2);
        assert_eq!(c.windowed(), 0);
    }

    #[test]
    fn ewma_smooths_and_primes() {
        let mut e = Ewma::default();
        e.feed(100, 3);
        assert_eq!(e.q8, 100 << 8); // first sample snaps
        e.feed(0, 3);
        // 100·256 − (100·256)/8 = 22400
        assert_eq!(e.q8, 22_400);
        for _ in 0..200 {
            e.feed(0, 3);
        }
        assert_eq!(e.q8, 0); // converges to the steady signal
    }

    #[test]
    fn sketch_evicts_deterministically() {
        let mut s = SpaceSaving::new(2);
        s.offer(10, 5);
        s.offer(20, 5);
        // Tie on count 5: the smallest key (10) is evicted.
        s.offer(30, 1);
        assert_eq!(s.count_of(10), None);
        assert_eq!(s.count_of(30), Some((6, 5)));
        assert_eq!(s.top(2), vec![(30, 6, 5), (20, 5, 0)]);
    }

    #[test]
    fn sketch_halving_decays_and_drops() {
        let mut s = SpaceSaving::new(4);
        s.offer(1, 8);
        s.offer(2, 1);
        s.halve();
        assert_eq!(s.count_of(1), Some((4, 0)));
        assert_eq!(s.count_of(2), None); // 1/2 == 0 → dropped
        assert_eq!(s.entries.len(), 1);
    }

    /// The space-saving guarantees against an exact-count oracle, under
    /// seeded churn over a skewed key population: estimates never
    /// undercount, overcount by at most the per-key bound, the bound never
    /// exceeds N/m, and every key heavier than N/m is monitored.
    #[test]
    fn sketch_matches_oracle_under_churn() {
        for seed in [1u64, 7, 42, 1234] {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = 16;
            let mut sketch = SpaceSaving::new(capacity);
            let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
            let mut offered = 0u64;
            for _ in 0..20_000 {
                // Zipf-ish skew: key k drawn with weight ∝ 1/(k+1) over a
                // churning universe of 4096 keys.
                let r: f64 = rng.gen_range(0.0..1.0);
                let key = ((1.0 / (1.0 - r * 0.999)).ln() * 80.0) as u64 % 4096;
                sketch.offer(key, 1);
                *oracle.entry(key).or_default() += 1;
                offered += 1;
            }
            let bound = offered / capacity as u64;
            for (key, est, err) in sketch.top(capacity) {
                let truth = oracle.get(&key).copied().unwrap_or(0);
                assert!(est >= truth, "seed {seed}: key {key} undercounted");
                assert!(
                    est - err <= truth,
                    "seed {seed}: key {key} est {est} err {err} truth {truth}"
                );
                assert!(err <= bound, "seed {seed}: err {err} > N/m {bound}");
            }
            // Completeness: every key with true count > N/m is monitored.
            for (&key, &truth) in &oracle {
                if truth > bound {
                    assert!(
                        sketch.count_of(key).is_some(),
                        "seed {seed}: heavy key {key} (count {truth}) not monitored"
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_hub_is_inert() {
        let mut s = MetricStreams::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.next_roll_at(), None);
        s.bump("m", 0, 1);
        s.offer("s", 1, 1);
        assert_eq!(s.rate("m", 0), 0);
        assert!(s.sketch("s").is_none());
        assert_eq!(s.queue_ewma_q8(0), 0);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let mut s = MetricStreams::new(StreamConfig::every(SimDuration::from_secs(1)), 2);
        s.bump("b", 1, 2);
        s.bump("a", 0, 1);
        s.offer("pop", 7, 3);
        s.roll(
            SimTime::ZERO + SimDuration::from_secs(1),
            [4usize, 0].into_iter(),
        );
        let snap = s.snapshot_json().to_string();
        assert!(snap.contains("\"rolls\":1"), "{snap}");
        assert!(
            snap.contains("\"a\":1") && snap.contains("\"b\":2"),
            "{snap}"
        );
        assert!(snap.contains("\"pop\":[[7,3,0]]"), "{snap}");
        assert_eq!(snap, s.snapshot_json().to_string());
    }
}
