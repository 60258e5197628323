//! A minimal deterministic property-testing harness: seeded case
//! generation plus a shrink-on-failure loop. Replaces `proptest` for this
//! workspace's `tests/properties.rs` suites.
//!
//! # Model
//!
//! A [`Strategy`] generates values from a seeded [`StdRng`] and can
//! propose *shrink candidates* — structurally smaller variants — for a
//! failing value. [`check`] runs the property over `cases` generated
//! inputs; on the first failure it greedily walks shrink candidates to a
//! locally minimal counterexample and panics with it, the seed, and the
//! case index, so the failure replays exactly.
//!
//! Unlike `proptest`, strategies generate plain data (integers, strings,
//! vectors, tuples); tests construct domain objects from that data inside
//! the property body. This keeps shrinking working end to end without a
//! `prop_map`-style reverse mapping.
//!
//! # Example
//!
//! ```
//! use gcopss_compat::prop;
//!
//! prop::check(0xB10B, 64, &prop::vec(prop::range(0u32..100), 0..=8), |xs| {
//!     let mut sorted = xs.clone();
//!     sorted.sort_unstable();
//!     assert_eq!(sorted.len(), xs.len());
//! });
//! ```

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, SampleRange, SampleUniform, SeedableRng, StdRng};

/// Upper bound on shrink iterations, so pathological strategies terminate.
const MAX_SHRINK_STEPS: usize = 2_000;

/// A generator of test inputs with optional shrinking.
pub trait Strategy {
    /// The generated input type.
    type Value: Debug + Clone;

    /// Generates one value from the given deterministic RNG.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Proposes strictly "smaller" variants of a failing value, most
    /// aggressive first. The default proposes nothing (no shrinking).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Runs `test` over `cases` inputs generated from `strategy`,
/// deterministically from `seed`.
///
/// The property fails by panicking (use `assert!` family). On failure the
/// input is shrunk to a locally minimal counterexample and the harness
/// panics with it; re-running with the same arguments reproduces it.
///
/// # Panics
///
/// Panics if any generated or shrunken case fails the property.
pub fn check<S, F>(seed: u64, cases: u32, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(&S::Value),
{
    for case in 0..cases {
        // Decorrelate cases: each gets its own stream, all derived from
        // the top-level seed.
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let value = strategy.generate(&mut rng);
        if run_case(&test, &value).is_ok() {
            continue;
        }
        // Failure: shrink greedily, silencing the per-candidate panic
        // output (the final report re-raises with the minimal case).
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut minimal = value;
        let mut steps = 0;
        'outer: while steps < MAX_SHRINK_STEPS {
            for candidate in strategy.shrink(&minimal) {
                steps += 1;
                if run_case(&test, &candidate).is_err() {
                    minimal = candidate;
                    continue 'outer;
                }
                if steps >= MAX_SHRINK_STEPS {
                    break;
                }
            }
            break;
        }
        std::panic::set_hook(prev_hook);
        panic!(
            "property failed (seed={seed:#x}, case {case}/{cases}, {steps} shrink steps)\n\
             minimal counterexample: {minimal:?}"
        );
    }
}

fn run_case<V, F: Fn(&V)>(test: &F, value: &V) -> Result<(), ()> {
    catch_unwind(AssertUnwindSafe(|| test(value))).map_err(|_| ())
}

// ---------------------------------------------------------------------------
// Integer strategies
// ---------------------------------------------------------------------------

/// Integers (or floats) uniform over a range, shrinking toward the lower
/// bound. Accepts `a..b` and `a..=b`.
pub fn range<T, R>(r: R) -> RangeStrategy<T, R>
where
    R: SampleRange<T> + Clone,
{
    RangeStrategy {
        range: r,
        _marker: std::marker::PhantomData,
    }
}

/// See [`range`].
#[derive(Clone)]
pub struct RangeStrategy<T, R> {
    range: R,
    _marker: std::marker::PhantomData<T>,
}

/// Integer types that can halve toward a lower bound while shrinking.
pub trait ShrinkToward: Sized + Copy + PartialOrd {
    /// Candidates strictly between `lo` and `value`, most aggressive first.
    fn shrink_toward(lo: Self, value: Self) -> Vec<Self>;
}

macro_rules! shrink_int {
    ($($t:ty),*) => {$(
        impl ShrinkToward for $t {
            fn shrink_toward(lo: Self, value: Self) -> Vec<Self> {
                let mut out = Vec::new();
                if value > lo {
                    out.push(lo);
                    let mid = lo + (value - lo) / 2;
                    if mid != lo && mid != value {
                        out.push(mid);
                    }
                    out.push(value - 1);
                    out.dedup();
                }
                out
            }
        }
    )*};
}
shrink_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ShrinkToward for f64 {
    fn shrink_toward(lo: Self, value: Self) -> Vec<Self> {
        if value > lo {
            vec![lo, lo + (value - lo) / 2.0]
        } else {
            Vec::new()
        }
    }
}

impl<T> Strategy for RangeStrategy<T, Range<T>>
where
    T: SampleUniform + ShrinkToward + Debug + Clone,
{
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(self.range.start, *value)
    }
}

impl<T> Strategy for RangeStrategy<T, RangeInclusive<T>>
where
    T: SampleUniform + ShrinkToward + Debug + Clone,
{
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(*self.range.start(), *value)
    }
}

/// Fair booleans, shrinking toward `false`.
#[must_use]
pub fn bools() -> BoolStrategy {
    BoolStrategy
}

/// See [`bools`].
#[derive(Clone, Copy)]
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;

    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.gen()
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

/// Strings of length `len` over the given alphabet, shrinking by
/// shortening and by replacing characters with the first alphabet symbol.
pub fn string(alphabet: &str, len: RangeInclusive<usize>) -> StringStrategy {
    assert!(!alphabet.is_empty(), "alphabet must be non-empty");
    StringStrategy {
        alphabet: alphabet.chars().collect(),
        len,
    }
}

/// See [`string`].
#[derive(Clone)]
pub struct StringStrategy {
    alphabet: Vec<char>,
    len: RangeInclusive<usize>,
}

impl Strategy for StringStrategy {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let n = rng.gen_range(self.len.clone());
        (0..n)
            .map(|_| self.alphabet[rng.gen_range(0..self.alphabet.len())])
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let min = *self.len.start();
        let mut out = Vec::new();
        if value.chars().count() > min {
            // Drop the last character.
            let mut s = value.clone();
            s.pop();
            out.push(s);
        }
        // Canonicalize one non-minimal character at a time.
        let zero = self.alphabet[0];
        for (i, c) in value.char_indices() {
            if c != zero {
                let mut s: Vec<char> = value.chars().collect();
                s[value[..i].chars().count()] = zero;
                out.push(s.into_iter().collect());
                break;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Vectors and tuples
// ---------------------------------------------------------------------------

/// Vectors of `len` elements drawn from `element`, shrinking by removing
/// chunks/elements and shrinking individual elements.
pub fn vec<S: Strategy>(element: S, len: RangeInclusive<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// See [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: RangeInclusive<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = *self.len.start();
        let mut out = Vec::new();
        let n = value.len();
        // Halve first (fast length reduction)...
        if n / 2 >= min && n / 2 < n {
            out.push(value[..n / 2].to_vec());
        }
        // ...then drop single elements...
        if n > min {
            for i in 0..n.min(8) {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // ...then shrink the first shrinkable element (later elements get
        // their turn on subsequent rounds, once earlier ones are minimal).
        for (i, e) in value.iter().enumerate().take(8) {
            let candidates = self.element.shrink(e);
            if !candidates.is_empty() {
                for smaller in candidates {
                    let mut v = value.clone();
                    v[i] = smaller;
                    out.push(v);
                }
                break;
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($($name:ident: $S:ident => $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = candidate;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(a: A => 0);
tuple_strategy!(a: A => 0, b: B => 1);
tuple_strategy!(a: A => 0, b: B => 1, c: C => 2);
tuple_strategy!(a: A => 0, b: B => 1, c: C => 2, d: D => 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = std::cell::Cell::new(0u32);
        check(1, 37, &range(0u32..10), |x| {
            count.set(count.get() + 1);
            assert!(*x < 10);
        });
        assert_eq!(count.get_mut(), &37);
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        // Property: x < 50. Minimal counterexample is exactly 50.
        let result = catch_unwind(|| {
            check(2, 200, &range(0u32..100), |x| assert!(*x < 50));
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("minimal counterexample: 50"),
            "unexpected report: {msg}"
        );
    }

    #[test]
    fn vec_shrinks_toward_minimal_length() {
        // Property: vec has no element >= 7. Minimal failing case: [7].
        let result = catch_unwind(|| {
            check(3, 300, &vec(range(0u32..10), 0..=12), |xs| {
                assert!(xs.iter().all(|&x| x < 7));
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("minimal counterexample: [7]"),
            "unexpected report: {msg}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let collect = |seed| {
            let all = std::cell::RefCell::new(Vec::new());
            check(seed, 16, &vec(range(0u64..1000), 0..=6), |xs| {
                all.borrow_mut().push(xs.clone());
            });
            all.into_inner()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn string_strategy_respects_alphabet() {
        check(4, 64, &string("abc", 1..=5), |s| {
            assert!(!s.is_empty() && s.len() <= 5);
            assert!(s.chars().all(|c| "abc".contains(c)));
        });
    }

    #[test]
    fn tuple_strategy_generates_all_components() {
        check(5, 32, &(range(1u32..5), bools(), string("xy", 0..=3)), |(n, _b, s)| {
            assert!((1..5).contains(n));
            assert!(s.len() <= 3);
        });
    }
}
