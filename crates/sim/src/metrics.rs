//! Measurement utilities: latency recorders, summary statistics and CDFs.

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
    /// suitable for plotting Fig. 4-style curves. The point at fraction `f`
    /// is the `⌈f·n⌉`-th smallest sample: the ceil-rank convention of
    /// [`LogHistogram::quantile`](crate::telemetry::LogHistogram::quantile).
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
        assert_eq!(s.max(), Some(ms(3)));
        assert_eq!(s.sum(), ms(4));
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
    fn cdf_points_are_ceil_ranks() {
        // The point at fraction f is the ⌈f·n⌉-th smallest sample, for
        // awkward sample counts too.
        for n in [1usize, 2, 3, 7, 10, 99, 100] {
            let mut l = LatencySamples::default();
            for i in (1..=n).rev() {
                l.record(ms(i as u64));
            }
            for points in [1usize, 2, 4, 10] {
                for (lat, frac) in l.cdf(points) {
                    let rank = ((n as f64 * frac).ceil() as u64).max(1);
                    assert_eq!(lat, ms(rank), "n={n} points={points} frac={frac}");
                }
            }
        }
    }

    #[test]
    fn cdf_empty_and_zero_points() {
        let mut empty = LatencySamples::default();
        assert!(empty.cdf(10).is_empty());
        assert!(empty.cdf(0).is_empty());
        let mut one = LatencySamples::default();
        one.record(ms(3));
        assert!(one.cdf(0).is_empty());
        assert_eq!(one.cdf(1), vec![(ms(3), 1.0)]);
    }

    #[test]
    fn cdf_is_monotonic() {
        let mut l = LatencySamples::default();
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
        let mut l = LatencySamples::default();
        for i in 1..=10 {
            l.record(ms(i));
        }
        assert_eq!(l.fraction_at_most(ms(5)), 0.5);
        assert_eq!(l.fraction_at_most(ms(0)), 0.0);
        assert_eq!(l.fraction_at_most(ms(10)), 1.0);
    }
}
