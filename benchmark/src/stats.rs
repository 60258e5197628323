//! The estimators the benchmark reports.

/// The floor (minimum) of a sample: the estimator for host time.
///
/// Interference on the benchmark box only ever adds time, so over
/// repetitions of identical work the minimum is the least contaminated
/// reading. Returns `NaN` for an empty sample.
pub fn floor(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// `(max - min) / min` of the timed repetitions: the noise indicator
/// printed with every run.
pub fn spread(xs: &[f64]) -> f64 {
    let lo = floor(xs);
    let hi = xs.iter().copied().fold(f64::NAN, f64::max);
    (hi - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_minimum_and_ignores_order() {
        assert_eq!(floor(&[2.5, 1.9, 2.2, 1.95]), 1.9);
        assert_eq!(floor(&[1.9, 2.5]), 1.9);
        assert_eq!(floor(&[3.0]), 3.0);
        assert!(floor(&[]).is_nan());
    }

    #[test]
    fn floor_is_unmoved_by_an_interference_spike() {
        let quiet = [1.90, 1.91, 1.92];
        let spiked = [1.90, 1.91, 1.92, 3.80];
        assert_eq!(floor(&quiet), floor(&spiked));
    }

    #[test]
    fn spread_is_relative_to_the_floor() {
        assert!((spread(&[2.0, 2.5, 2.2]) - 0.25).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
    }
}
