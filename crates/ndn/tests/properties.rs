//! Property-based tests for the NDN engine, on the deterministic
//! `gcopss_compat::prop` harness.

use std::collections::{BTreeMap, BTreeSet};

use gcopss_compat::bytes::Bytes;
use gcopss_compat::prop::{self, Strategy};
use gcopss_compat::{Rng, SeedableRng, SmallRng};
use gcopss_names::{Component, Name};
use gcopss_ndn::{
    ContentStore, ContentStoreConfig, Data, Fib, FaceId, Interest, NdnAction, NdnEngine,
};

const CASES: u32 = 64;

/// Raw name: 1–3 short components over a tiny alphabet, so distinct cases
/// collide often (exercising PIT aggregation and cache hits).
fn name_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::vec(prop::string("abc", 1..=2), 1..=3)
}

fn name(parts: &[String]) -> Name {
    Name::from_components(parts.iter().map(|s| Component::new(s.as_str()).unwrap()))
}

/// Every Interest that was forwarded and later answered produces Data on
/// exactly the faces that expressed it (no loss, no duplication).
#[test]
fn data_reaches_every_pending_face() {
    let consumers = prop::vec((prop::range(1u32..8), name_strategy()), 1..=15);
    prop::check(0xAD01, CASES, &consumers, |consumers| {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        let upstream = FaceId(99);
        e.fib_mut().add(Name::root(), upstream);

        // Track which faces asked for each name (cache hits answer some
        // consumers immediately).
        let mut pending: std::collections::BTreeMap<Name, Vec<FaceId>> = Default::default();
        let mut nonce = 0u64;
        let mut satisfied_from_cache = 0usize;
        for (f, parts) in consumers {
            let n = name(parts);
            nonce += 1;
            let acts = e.process_interest(0, FaceId(*f), Interest::new(n.clone(), nonce));
            let cache_hit = acts
                .iter()
                .any(|a| matches!(a, NdnAction::SendData { .. }));
            if cache_hit {
                satisfied_from_cache += 1;
            } else {
                let entry = pending.entry(n.clone()).or_default();
                if !entry.contains(&FaceId(*f)) {
                    entry.push(FaceId(*f));
                }
            }
            // Upstream answers each distinct name exactly once, as soon as
            // its first Interest leaves.
            if acts
                .iter()
                .any(|a| matches!(a, NdnAction::SendInterest { .. }))
            {
                let data = Data::new(n.clone(), Bytes::from_static(b"d"));
                let replies = e.process_data(1, upstream, data);
                let expect = pending.remove(&n).unwrap_or_default();
                let mut got: Vec<FaceId> = replies
                    .iter()
                    .map(|a| match a {
                        NdnAction::SendData { face, .. } => *face,
                        NdnAction::SendInterest { .. } => panic!("unexpected interest"),
                    })
                    .collect();
                got.sort_unstable();
                let mut expect = expect;
                expect.sort_unstable();
                assert_eq!(got, expect);
            }
        }
        // Everything was answered one way or another.
        assert!(pending.is_empty() || satisfied_from_cache <= consumers.len());
    });
}

/// A trivially correct FIB model: exact map plus prefix-scan LPM.
#[derive(Default)]
struct FibModel {
    entries: BTreeMap<Name, BTreeSet<FaceId>>,
}

impl FibModel {
    fn add(&mut self, prefix: Name, face: FaceId) -> bool {
        self.entries.entry(prefix).or_default().insert(face)
    }

    fn remove(&mut self, prefix: &Name, face: FaceId) -> bool {
        let Some(faces) = self.entries.get_mut(prefix) else {
            return false;
        };
        let had = faces.remove(&face);
        if faces.is_empty() {
            self.entries.remove(prefix);
        }
        had
    }

    fn remove_prefix(&mut self, prefix: &Name) -> Option<Vec<FaceId>> {
        self.entries
            .remove(prefix)
            .map(|s| s.into_iter().collect())
    }

    fn lookup(&self, name: &Name) -> Option<Vec<FaceId>> {
        name.prefixes()
            .filter_map(|p| self.entries.get(&p))
            .last()
            .map(|s| s.iter().copied().collect())
    }
}

fn check_fib_against_model(fib: &Fib, model: &FibModel, probe: &Name) {
    let got = fib.lookup(probe).map(<[FaceId]>::to_vec);
    assert_eq!(got, model.lookup(probe), "LPM diverged at {probe}");
    let hashed = fib
        .lookup_hashed(probe, &probe.hash_chain())
        .map(<[FaceId]>::to_vec);
    assert_eq!(got, hashed, "hashed LPM diverged at {probe}");
}

/// Randomized add/remove/remove_prefix interleavings agree with the model
/// on LPM, exact lookup and size.
#[test]
fn fib_churn_agrees_with_model() {
    let ops = prop::vec(
        (prop::range(0u32..5), name_strategy(), prop::range(0u32..6)),
        1..=47,
    );
    prop::check(0xAD04, CASES, &(ops, name_strategy()), |(ops, probe)| {
        let mut fib = Fib::new();
        let mut model = FibModel::default();
        for (kind, parts, face) in ops {
            let prefix = name(parts);
            let f = FaceId(*face);
            match kind {
                0..=2 => assert_eq!(fib.add(prefix.clone(), f), model.add(prefix, f)),
                3 => assert_eq!(fib.remove(&prefix, f), model.remove(&prefix, f)),
                _ => assert_eq!(fib.remove_prefix(&prefix), model.remove_prefix(&prefix)),
            }
        }
        assert_eq!(fib.len(), model.entries.len());
        let mut probes: Vec<Name> = ops.iter().map(|(_, p, _)| name(p)).collect();
        probes.push(name(probe));
        for p in &probes {
            check_fib_against_model(&fib, &model, p);
            let exact = fib.exact(p).map(<[FaceId]>::to_vec);
            let model_exact = model
                .entries
                .get(p)
                .map(|s| s.iter().copied().collect::<Vec<_>>());
            assert_eq!(exact, model_exact, "exact diverged at {p}");
        }
    });
}

/// Satellite (ISSUE 6): FIB churn at scale — 100k+ distinct prefixes with
/// interleaved add/remove/remove_prefix, LPM continuously sampled against
/// the model. One seeded run (the randomized-interleaving structure is the
/// point; the seed keeps it reproducible).
#[test]
fn fib_churn_at_100k_prefixes_matches_model() {
    const BRANCH: u32 = 64;
    const OPS: usize = 250_000;
    let mut rng = SmallRng::seed_from_u64(0xF1B5CA1E);
    let random_name = |rng: &mut SmallRng| {
        // Biased toward depth 3 (64³ ≈ 262k possible names) so the table
        // actually reaches the 100k+ range; shallower names keep LPM
        // fallback paths exercised.
        let depth = match rng.gen_range(0..12u32) {
            0 => 1,
            1..=2 => 2,
            _ => 3,
        };
        let mut n = Name::root();
        for _ in 0..depth {
            n = n.child_index(rng.gen_range(0..BRANCH));
        }
        n
    };

    let mut fib = Fib::new();
    let mut model = FibModel::default();
    let mut peak = 0usize;
    for i in 0..OPS {
        let prefix = random_name(&mut rng);
        let face = FaceId(rng.gen_range(0..8u32));
        match rng.gen_range(0..10u32) {
            // Weighted toward adds so the table grows into the 100k range.
            0..=6 => {
                assert_eq!(fib.add(prefix.clone(), face), model.add(prefix, face));
            }
            7..=8 => {
                assert_eq!(fib.remove(&prefix, face), model.remove(&prefix, face));
            }
            _ => {
                assert_eq!(fib.remove_prefix(&prefix), model.remove_prefix(&prefix));
            }
        }
        peak = peak.max(fib.len());
        if i % 1000 == 0 {
            assert_eq!(fib.len(), model.entries.len());
            let probe = random_name(&mut rng).child_index(rng.gen_range(0..BRANCH));
            check_fib_against_model(&fib, &model, &probe);
        }
    }
    assert!(
        peak >= 100_000,
        "churn must exercise 100k+ prefixes, peaked at {peak}"
    );
    assert_eq!(fib.len(), model.entries.len());
    for _ in 0..2_000 {
        let probe = random_name(&mut rng).child_index(rng.gen_range(0..BRANCH));
        check_fib_against_model(&fib, &model, &probe);
    }
}

/// The engine never reflects a packet back to its arrival face.
#[test]
fn no_reflection() {
    let input = (
        prop::vec((name_strategy(), prop::range(0u32..6)), 1..=9),
        name_strategy(),
        prop::range(0u32..6),
    );
    prop::check(0xAD02, CASES, &input, |(routes, probe, arrival)| {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        for (parts, f) in routes {
            e.fib_mut().add(name(parts), FaceId(*f));
        }
        let acts = e.process_interest(0, FaceId(*arrival), Interest::new(name(probe), 1));
        for a in acts {
            match a {
                NdnAction::SendInterest { face, .. } => assert_ne!(face, FaceId(*arrival)),
                NdnAction::SendData { face, .. } => assert_eq!(face, FaceId(*arrival)),
            }
        }
    });
}

/// PIT aggregation: for one name, at most one upstream forward happens
/// per distinct (face, nonce) burst until Data consumes the entry.
#[test]
fn at_most_one_upstream_forward_per_name() {
    let input = (prop::vec(prop::range(1u32..8), 2..=11), name_strategy());
    prop::check(0xAD03, CASES, &input, |(faces, parts)| {
        let n = name(parts);
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        let upstream = FaceId(99);
        e.fib_mut().add(Name::root(), upstream);
        let mut forwards = 0;
        let mut seen_faces: Vec<u32> = Vec::new();
        for (i, f) in faces.iter().enumerate() {
            let acts = e.process_interest(0, FaceId(*f), Interest::new(n.clone(), i as u64));
            let fwd = acts
                .iter()
                .filter(|a| matches!(a, NdnAction::SendInterest { .. }))
                .count();
            if seen_faces.contains(f) {
                // Retransmission from a known face is re-forwarded by design.
                assert!(fwd <= 1);
            } else if seen_faces.is_empty() {
                assert_eq!(fwd, 1, "first interest must forward");
            } else {
                assert_eq!(fwd, 0, "aggregated interest must not forward");
            }
            if !seen_faces.contains(f) {
                seen_faces.push(*f);
            }
            forwards += fwd;
        }
        assert!(forwards >= 1);
    });
}

/// A brute-force Content Store: a sorted map scanned linearly, LRU by a
/// use counter.
struct CsModel {
    capacity: usize,
    /// name -> (payload, absolute expiry ns, last use)
    entries: BTreeMap<Name, (Bytes, u64, u64)>,
    uses: u64,
}

impl CsModel {
    fn insert(&mut self, now: u64, name: Name, payload: Bytes, freshness: u64) {
        if freshness == 0 {
            return;
        }
        self.uses += 1;
        let entry = (payload, now + freshness, self.uses);
        if self.entries.insert(name, entry).is_none() && self.entries.len() > self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(n, _)| n.clone())
                .expect("over capacity, so non-empty");
            self.entries.remove(&lru);
        }
    }

    /// Exact fresh match, else the leftmost fresh entry below `name`.
    fn lookup(&mut self, now: u64, name: &Name) -> Option<(Name, Bytes)> {
        let fresh = |e: &(Bytes, u64, u64)| e.1 > now;
        let hit = match self.entries.get(name) {
            Some(e) if fresh(e) => name.clone(),
            _ => self
                .entries
                .iter()
                .find(|(n, e)| name.is_prefix_of(n) && fresh(e))
                .map(|(n, _)| n.clone())?,
        };
        self.uses += 1;
        let e = self.entries.get_mut(&hit).expect("just found");
        e.2 = self.uses;
        Some((hit, e.0.clone()))
    }
}

/// Insert / exact and leftmost-fresh-descendant lookup / freshness expiry /
/// LRU eviction agree with the brute-force model under churn, at
/// capacities small enough that eviction and the use-log sweep both run.
#[test]
fn content_store_churn_agrees_with_model() {
    let ops = prop::vec(
        (
            prop::bools(),
            prop::vec(prop::string("abc", 1..=2), 0..=3),
            prop::range(0u64..40),
            prop::range(0u64..12),
        ),
        1..=200,
    );
    let input = (prop::range(1usize..7), ops);
    prop::check(0xAD05, CASES, &input, |(capacity, ops)| {
        let mut cs = ContentStore::new(ContentStoreConfig {
            capacity: *capacity,
        });
        let mut model = CsModel {
            capacity: *capacity,
            entries: BTreeMap::new(),
            uses: 0,
        };
        let (mut now, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for (i, (insert, parts, freshness, dt)) in ops.iter().enumerate() {
            now += dt;
            let n = name(parts);
            if *insert {
                let payload = Bytes::from(i.to_le_bytes().to_vec());
                cs.insert(
                    now,
                    Data::with_freshness(n.clone(), payload.clone(), *freshness),
                );
                model.insert(now, n, payload, *freshness);
            } else {
                let got = cs.lookup(now, &n).map(|d| (d.name, d.payload));
                let want = model.lookup(now, &n);
                assert_eq!(got, want, "lookup of {n} at {now} ns diverged (op {i})");
                if want.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            assert_eq!(cs.len(), model.entries.len(), "size diverged at op {i}");
        }
        assert_eq!((cs.hits(), cs.misses()), (hits, misses));
    });
}
