//! Million-entry scaling sweep of the two hot lookup structures
//! (`exp_scale`): Subscription Table matching and FIB longest-prefix match
//! on the stride-based tree-bitmap, against the `O(faces)` Bloom-scan
//! baseline the Subscription Table replaced.
//!
//! The claim under test (ROADMAP item 1): per-lookup cost on the
//! tree-bitmap paths is a function of name *depth*, not of table *size* —
//! near-flat from 1k to 1M (and, under `--full`, 10M) subscriptions.
//! Everything is deterministic given the seed: the subscription universe,
//! the face assignment and the probe sequence.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use gcopss_compat::{Rng, SeedableRng, SmallRng};
use gcopss_copss::{RpId, SubscriptionTable};
use gcopss_names::{Cd, Name};
use gcopss_ndn::{FaceId, Fib};
use gcopss_sim::prof;

/// Number of distinct faces subscriptions are spread over (a router's
/// degree, not its subscriber count — stays bounded while tables grow).
const FACES: u32 = 256;

/// Parameters of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Master seed (probe selection).
    pub seed: u64,
    /// Table sizes to measure, in entries.
    pub sizes: Vec<usize>,
    /// Number of distinct probe CDs per size.
    pub probes: usize,
    /// Timing rounds per benchmark; the reported figure is the median.
    pub rounds: usize,
}

impl Default for ScaleParams {
    fn default() -> Self {
        Self {
            seed: 42,
            sizes: vec![1_000, 10_000, 100_000, 1_000_000],
            probes: 512,
            rounds: 5,
        }
    }
}

/// Measured costs at one table size. All lookup figures are median
/// nanoseconds per lookup across the timing rounds.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Entries in the table (subscriptions / FIB prefixes).
    pub entries: usize,
    /// `SubscriptionTable::matching_faces` — the tree-bitmap index walk.
    pub st_match_ns: f64,
    /// `SubscriptionTable::matching_faces_bloom` — the paper-literal
    /// per-face Bloom-scan baseline (`O(faces)`).
    pub st_bloom_ns: f64,
    /// `Fib::lookup_hashed` — tree-bitmap LPM on the precomputed chain.
    pub fib_lpm_ns: f64,
    /// Wall time to build the Subscription Table, in milliseconds.
    pub st_build_ms: f64,
    /// Wall time to build the FIB, in milliseconds.
    pub fib_build_ms: f64,
}

/// The `i`-th name of the deterministic subscription universe: a three-level
/// hierarchy `/z/y/x` with per-level branching `branch`, filled
/// lowest-level-first so the top-level fanout grows with the table.
fn universe_name(i: usize, branch: usize) -> Name {
    let x = (i % branch) as u32;
    let y = ((i / branch) % branch) as u32;
    let z = (i / (branch * branch)) as u32;
    Name::root().child_index(z).child_index(y).child_index(x)
}

/// Per-level branching for `n` names: the cube root, so all three levels
/// carry comparable fanout.
fn branching(n: usize) -> usize {
    let mut b = 1usize;
    while b * b * b < n {
        b += 1;
    }
    b.max(2)
}

/// Times `f` over `rounds` rounds of `iters` calls each; returns the median
/// per-call nanoseconds.
fn measure<T>(rounds: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f()); // warm caches before the first round
    let mut per_round: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_round.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_round.sort_by(f64::total_cmp);
    per_round[per_round.len() / 2]
}

/// Runs the sweep: one [`ScalePoint`] per requested size.
#[must_use]
pub fn run(p: &ScaleParams) -> Vec<ScalePoint> {
    p.sizes.iter().map(|&n| run_point(p, n)).collect()
}

fn run_point(p: &ScaleParams, n: usize) -> ScalePoint {
    let _pt = prof::scope("scale/point");
    let branch = branching(n);
    let anchors: BTreeSet<RpId> = [RpId(0)].into();
    let face_of = |i: usize| FaceId((i as u64).wrapping_mul(0x9e37_79b9) as u32 % FACES);

    // Build the Subscription Table: n leaf subscriptions spread over the
    // faces, plus one shallow subscription per top-level region on face 0
    // so every probe also exercises the hierarchical (ancestor) match.
    let build = prof::scope("scale/build");
    let t = Instant::now();
    let mut st = SubscriptionTable::default();
    for i in 0..n {
        st.subscribe(face_of(i), universe_name(i, branch), anchors.clone(), true);
    }
    for z in 0..branch.min(8) {
        st.subscribe(
            FaceId(0),
            Name::root().child_index(z as u32),
            anchors.clone(),
            true,
        );
    }
    let st_build_ms = t.elapsed().as_secs_f64() * 1e3;
    // The §III-C per-face summaries the Bloom-scan baseline reads, built
    // once from the finished table and outside every timer.
    let blooms = st.face_blooms();

    // Build the FIB over the same universe.
    let t = Instant::now();
    let mut fib = Fib::new();
    for i in 0..n {
        fib.add(universe_name(i, branch), face_of(i));
    }
    let fib_build_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(build);

    // Probes: one level below a subscribed leaf (publications land *in* a
    // subscribed area), with a miss sprinkled in every eighth probe.
    let mut rng = SmallRng::seed_from_u64(p.seed ^ n as u64);
    let probes: Vec<Cd> = (0..p.probes)
        .map(|k| {
            let name = if k % 8 == 7 {
                // No subscriber: a top-level region past the universe.
                Name::root()
                    .child_index((branch + 1 + k % 13) as u32)
                    .child_index(0)
            } else {
                universe_name(rng.gen_range(0..n), branch).child_index(7)
            };
            Cd::new(name)
        })
        .collect();
    let chains: Vec<(Name, Vec<u64>)> = probes
        .iter()
        .map(|cd| (cd.name().clone(), cd.name().hash_chain()))
        .collect();

    let mut k = 0usize;
    let st_match_ns = {
        let _m = prof::scope("scale/st_match");
        measure(p.rounds, 20_000, || {
            k = (k + 1) % probes.len();
            st.matching_faces(&probes[k], None, Some(RpId(0)))
        })
    };
    let st_bloom_ns = {
        let _m = prof::scope("scale/baselines");
        let mut k = 0usize;
        measure(p.rounds, 2_000, || {
            k = (k + 1) % probes.len();
            st.matching_faces_bloom(&blooms, &probes[k], None, Some(RpId(0)))
        })
    };
    let fib_lpm_ns = {
        let _m = prof::scope("scale/fib_lpm");
        let mut k = 0usize;
        measure(p.rounds, 20_000, || {
            k = (k + 1) % chains.len();
            let (name, chain) = &chains[k];
            fib.lookup_hashed(name, chain).map(<[FaceId]>::len)
        })
    };

    ScalePoint {
        entries: n,
        st_match_ns,
        st_bloom_ns,
        fib_lpm_ns,
        st_build_ms,
        fib_build_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_names_are_distinct() {
        let n = 5_000;
        let branch = branching(n);
        let names: BTreeSet<Name> = (0..n).map(|i| universe_name(i, branch)).collect();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn branching_covers_requested_size() {
        for n in [1, 10, 1_000, 999_983, 1_000_000] {
            let b = branching(n);
            assert!(b * b * b >= n, "branch {b} too small for {n}");
        }
    }

    #[test]
    fn sweep_produces_a_point_per_size() {
        let p = ScaleParams {
            sizes: vec![100, 1_000],
            probes: 64,
            rounds: 1,
            ..ScaleParams::default()
        };
        let points = run(&p);
        assert_eq!(points.len(), 2);
        for pt in &points {
            assert!(pt.st_match_ns > 0.0);
            assert!(pt.st_bloom_ns > 0.0);
            assert!(pt.fib_lpm_ns > 0.0);
        }
    }
}
