//! Measurement utilities: latency recorders, summary statistics and CDFs.

use crate::json::Json;
use crate::{LogHistogram, SimDuration};

/// Incremental summary statistics over a stream of durations.
///
/// # Example
///
/// ```
/// # use gcopss_sim::{metrics::OnlineStats, SimDuration};
/// let mut s = OnlineStats::new();
/// s.record(SimDuration::from_millis(2));
/// s.record(SimDuration::from_millis(4));
/// assert_eq!(s.mean().as_millis_f64(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    sum_ns: u128,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

impl OnlineStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.sum_ns += u128::from(d.as_nanos());
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |x| x.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |x| x.max(m)));
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (zero if empty).
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / u128::from(self.count)) as u64)
        }
    }

    /// Smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }

    /// Sum of all samples, saturating at [`SimDuration::MAX`] when the
    /// true `u128` total exceeds `u64::MAX` nanoseconds (~584 years of
    /// simulated latency).
    #[must_use]
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum_ns).unwrap_or(u64::MAX))
    }

    /// Renders as a JSON object with latencies in milliseconds
    /// (`min_ms`/`max_ms` are `null` when empty).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let ms = |d: Option<SimDuration>| {
            d.map_or(Json::Null, |d| Json::from(d.as_millis_f64()))
        };
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean_ms", Json::from(self.mean().as_millis_f64())),
            ("min_ms", ms(self.min)),
            ("max_ms", ms(self.max)),
            ("sum_ms", Json::from(self.sum().as_millis_f64())),
        ])
    }
}

/// A histogram of nanosecond durations keeps the exact count, sum, min and
/// max, so its statistics need no second recorder.
impl From<&LogHistogram> for OnlineStats {
    fn from(h: &LogHistogram) -> Self {
        Self {
            count: h.count(),
            sum_ns: h.sum(),
            min: h.min().map(SimDuration::from_nanos),
            max: h.max().map(SimDuration::from_nanos),
        }
    }
}

/// A recorder that keeps every sample, for percentiles and CDFs.
///
/// Used to produce the paper's latency CDFs (Fig. 4) and per-packet latency
/// timelines (Fig. 5).
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl LatencySamples {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the samples (zero if empty).
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|d| u128::from(d.as_nanos())).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0), or `None` when empty.
    ///
    /// Uses the ceil-rank convention — the `⌈q·n⌉`-th smallest sample
    /// (clamped to rank 1 so `q = 0` returns the minimum) — the same
    /// convention as [`LatencySamples::cdf`] and
    /// [`LogHistogram::quantile`](crate::telemetry::LogHistogram::quantile),
    /// so `quantile(f)` always equals the CDF point at fraction `f`
    /// (see the `quantile_agrees_with_cdf` test).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
        Some(self.samples[idx])
    }

    /// Fraction of samples that are ≤ `d`.
    #[must_use]
    pub fn fraction_at_most(&self, d: SimDuration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&x| x <= d).count();
        n as f64 / self.samples.len() as f64
    }

    /// `points` evenly spaced CDF points `(latency, cumulative fraction)`,
    /// suitable for plotting Fig. 4-style curves. Each point uses the same
    /// ceil-rank convention as [`LatencySamples::quantile`].
    pub fn cdf(&mut self, points: usize) -> Vec<(SimDuration, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let idx = ((n as f64 * frac).ceil() as usize).clamp(1, n) - 1;
                (self.samples[idx], frac)
            })
            .collect()
    }

    /// Converts to [`OnlineStats`].
    #[must_use]
    pub fn stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &d in &self.samples {
            s.record(d);
        }
        s
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), SimDuration::ZERO);
        s.record(ms(1));
        s.record(ms(3));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), ms(2));
        assert_eq!(s.min(), Some(ms(1)));
        assert_eq!(s.max(), Some(ms(3)));
        assert_eq!(s.sum(), ms(4));
    }

    #[test]
    fn online_stats_merge() {
        let mut a = OnlineStats::new();
        a.record(ms(1));
        let mut b = OnlineStats::new();
        b.record(ms(5));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(ms(1)));
        assert_eq!(a.max(), Some(ms(5)));
    }

    #[test]
    fn online_stats_merge_with_empty_sides() {
        let mut filled = OnlineStats::new();
        filled.record(ms(2));
        filled.record(ms(8));
        // empty.merge(filled) adopts filled's state…
        let mut empty = OnlineStats::new();
        empty.merge(&filled);
        assert_eq!(empty, filled);
        // …and filled.merge(empty) changes nothing.
        let before = filled.clone();
        filled.merge(&OnlineStats::new());
        assert_eq!(filled, before);
        // empty ∪ empty stays empty (no phantom min/max).
        let mut e = OnlineStats::new();
        e.merge(&OnlineStats::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
    }

    #[test]
    fn online_stats_sum_boundary() {
        let mut s = OnlineStats::new();
        s.record(SimDuration::from_nanos(u64::MAX));
        // Exactly representable.
        assert_eq!(s.sum(), SimDuration::from_nanos(u64::MAX));
        // One more nanosecond: sum() saturates.
        s.record(SimDuration::from_nanos(1));
        assert_eq!(s.sum(), SimDuration::MAX);
        // The mean is computed from the exact u128 sum, not the saturated
        // value.
        assert_eq!(s.mean(), SimDuration::from_nanos(u64::MAX / 2 + 1));
    }

    #[test]
    fn quantiles() {
        let mut l = LatencySamples::new();
        for i in 1..=100 {
            l.record(ms(i));
        }
        assert_eq!(l.quantile(0.0), Some(ms(1)));
        assert_eq!(l.quantile(1.0), Some(ms(100)));
        let med = l.quantile(0.5).unwrap();
        assert!(med >= ms(49) && med <= ms(52));
    }

    #[test]
    fn quantile_empty_is_none() {
        let mut l = LatencySamples::new();
        assert_eq!(l.quantile(0.5), None);
    }

    #[test]
    fn quantile_agrees_with_cdf() {
        // The satellite fix: quantile() and cdf() share one (ceil-rank)
        // convention, so the q-quantile equals the CDF point at fraction q
        // for every q the CDF emits — including awkward sample counts.
        for n in [1usize, 2, 3, 7, 10, 99, 100] {
            let mut l = LatencySamples::new();
            for i in (1..=n).rev() {
                l.record(ms(i as u64));
            }
            for points in [1usize, 2, 4, 10] {
                let cdf = l.cdf(points);
                for &(lat, frac) in &cdf {
                    assert_eq!(
                        l.quantile(frac),
                        Some(lat),
                        "n={n} points={points} frac={frac}"
                    );
                }
            }
            // Endpoints are exact.
            assert_eq!(l.quantile(0.0), Some(ms(1)));
            assert_eq!(l.quantile(1.0), Some(ms(n as u64)));
        }
    }

    #[test]
    fn cdf_empty_and_zero_points() {
        let mut empty = LatencySamples::new();
        assert!(empty.cdf(10).is_empty());
        assert!(empty.cdf(0).is_empty());
        let mut one = LatencySamples::new();
        one.record(ms(3));
        assert!(one.cdf(0).is_empty());
        assert_eq!(one.cdf(1), vec![(ms(3), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let mut l = LatencySamples::new();
        l.record(ms(1));
        let _ = l.quantile(1.5);
    }

    #[test]
    fn cdf_is_monotonic() {
        let mut l = LatencySamples::new();
        for i in (1..=50).rev() {
            l.record(ms(i));
        }
        let cdf = l.cdf(10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, ms(50));
    }

    #[test]
    fn fraction_at_most() {
        let mut l = LatencySamples::new();
        for i in 1..=10 {
            l.record(ms(i));
        }
        assert_eq!(l.fraction_at_most(ms(5)), 0.5);
        assert_eq!(l.fraction_at_most(ms(0)), 0.0);
        assert_eq!(l.fraction_at_most(ms(10)), 1.0);
    }

    #[test]
    fn online_stats_to_json() {
        let mut s = OnlineStats::new();
        s.record(ms(2));
        s.record(ms(4));
        assert_eq!(
            s.to_json().to_string(),
            r#"{"count":2,"mean_ms":3,"min_ms":2,"max_ms":4,"sum_ms":6}"#
        );
        assert_eq!(
            OnlineStats::new().to_json().to_string(),
            r#"{"count":0,"mean_ms":0,"min_ms":null,"max_ms":null,"sum_ms":0}"#
        );
    }
}
