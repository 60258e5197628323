//! `router_plane`: the router's tables driven directly, no simulator.
//!
//! A 200 k-subscription `SubscriptionTable`, a 200 k-route `Fib`, a 200 k
//! `NameTreeBitmap`, `Pit`, `ContentStore` and the gear-CDC chunk store,
//! under a seeded script of two phases with the same operation count:
//! *lookup* (reads only) and *churn* (writes that return every table to its
//! size). The tables are the frozen part of the workload; the seed draws the
//! probes, the fresh names and the blob edits. Every operation's result is
//! checked against what `BTreeMap`s and brute force said it must be.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use gcopss_compat::bytes::Bytes;
use gcopss_compat::{Rng, SeedableRng, SmallRng};
use gcopss_copss::{RpId, SubscriptionTable};
use gcopss_names::chunk::{ChunkId, ChunkStore, Chunker};
use gcopss_names::{Cd, Name, NameTreeBitmap};
use gcopss_ndn::{ContentStore, ContentStoreConfig, Data, FaceId, Fib, Interest, Pit, PitInsert};

use super::{Rep, Workload};
use crate::spans::Spans;
use crate::HEAP;

/// Entries in each of the three name-keyed tables.
const ENTRIES: usize = 200_000;
/// Faces the entries are spread over: a router's degree, not its table size.
const FACES: u32 = 256;
/// Top-level names that also carry a shallow entry on face 0, so probes
/// exercise the ancestor match.
const SHALLOW: u32 = 8;
/// Content Store size; the read store is filled to half of it.
const CS_CAPACITY: usize = 1 << 16;
/// Operations per kind and round: lookup kinds take three units, churn
/// kinds two, so six lookup kinds and nine churn kinds come to the same
/// count.
const UNIT: usize = 1024;
const LOOKUP_BATCH: usize = 3 * UNIT;
const CHURN_BATCH: usize = 2 * UNIT;
/// Bytes chunked per churn round.
const BLOB: usize = 256 << 10;
/// Draws the blob the chunk store is filled from.
const BLOB_SEED: u64 = 42;

/// Children per level of the table universe: 59³ ≥ ENTRIES.
const BRANCH: usize = 59;

/// The `i`-th name of the table universe: `/z/y/x`, lowest level fastest.
fn universe_name(i: usize) -> Name {
    let (x, y, z) = (i % BRANCH, (i / BRANCH) % BRANCH, i / (BRANCH * BRANCH));
    Name::root()
        .child_index(z as u32)
        .child_index(y as u32)
        .child_index(x as u32)
}

fn face_of(i: usize) -> FaceId {
    FaceId((i as u64).wrapping_mul(0x9e37_79b9) as u32 % FACES)
}

/// Folds a face list into one word (order matters: results are sorted).
fn digest(faces: &[FaceId]) -> u64 {
    faces.iter().fold(0xcbf2_9ce4_8422_2325, |h, f| {
        (h ^ u64::from(f.0)).wrapping_mul(0x100_0000_01b3)
    })
}

const NONE: u64 = u64::MAX;

struct Tables {
    st: SubscriptionTable,
    fib: Fib,
    tree: NameTreeBitmap<u32>,
    pit: Pit,
    /// Read in the lookup phase, never written after set-up.
    cs_read: ContentStore,
    /// Full; the churn phase inserts into it, evicting.
    cs_churn: ContentStore,
    chunks: ChunkStore,
}

fn payload() -> Bytes {
    Bytes::from_static(b"0123456789abcdef")
}

/// The Data name of universe entry `i`.
fn data_name(i: usize) -> Name {
    universe_name(i).child_index(0)
}

impl Tables {
    fn populate(base_blob: &[u8]) -> Self {
        let anchors: BTreeSet<RpId> = [RpId(0)].into();
        let mut t = Tables {
            st: SubscriptionTable::default(),
            fib: Fib::new(),
            tree: NameTreeBitmap::new(),
            pit: Pit::new(),
            cs_read: ContentStore::new(ContentStoreConfig {
                capacity: CS_CAPACITY,
            }),
            cs_churn: ContentStore::new(ContentStoreConfig {
                capacity: CS_CAPACITY,
            }),
            chunks: ChunkStore::new(),
        };
        for i in 0..ENTRIES {
            t.st.subscribe(face_of(i), universe_name(i), anchors.clone(), true);
            t.fib.add(universe_name(i), face_of(i));
            t.tree.insert(universe_name(i), tree_value(i));
        }
        for z in 0..SHALLOW {
            let top = Name::root().child_index(z);
            t.st.subscribe(FaceId(0), top.clone(), anchors.clone(), true);
            t.fib.add(top.clone(), FaceId(0));
            t.tree.insert(top, shallow_tree_value(z));
        }
        for i in 0..CS_CAPACITY {
            if i < CS_CAPACITY / 2 {
                t.cs_read.insert(0, Data::new(data_name(i), payload()));
            }
            t.cs_churn.insert(0, Data::new(data_name(i), payload()));
        }
        for c in Chunker::default().chunks(base_blob) {
            t.chunks.insert(c);
        }
        t
    }

    fn sizes(&self) -> [usize; 6] {
        [
            self.st.len(),
            self.fib.len(),
            self.tree.len(),
            self.pit.len(),
            self.cs_churn.len(),
            self.chunks.len(),
        ]
    }
}

/// A probe and what looking it up must return.
struct Probe {
    cd: Cd,
    chain: Vec<u64>,
    text: String,
    st_faces: u64,
    st_face_count: u32,
    fib_faces: u64,
    tree_hit: u64,
}

/// The seeded script: the probes (each lookup round takes the next
/// `LOOKUP_BATCH` of them), the fresh names the churn phase adds and
/// removes, and the blobs it chunks.
pub struct Script {
    probes: Vec<Probe>,
    /// Content Store probes: the name and whether the read store holds it.
    cs_probes: Vec<(Name, bool)>,
    fresh: Vec<Name>,
    /// What the chunk store holds: part of the tables, so not seeded.
    base_blob: Vec<u8>,
    /// Per churn round: the blob and how many of its chunks the store lacks.
    blobs: Vec<(Vec<u8>, usize)>,
}

/// What the tree stores under universe entry `i` / top-level name `z`.
fn tree_value(i: usize) -> u32 {
    i as u32
}
fn shallow_tree_value(z: u32) -> u32 {
    u32::MAX - z
}

fn tree_digest(prefix_len: usize, value: u32) -> u64 {
    u64::from(value) << 8 | prefix_len as u64
}

impl Script {
    pub fn generate(seed: u64, rounds: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);

        // The oracle: one plain ordered map over the same universe, holding
        // per name the subscribed (= routed) faces and the tree's value.
        let mut oracle: BTreeMap<Name, (BTreeSet<FaceId>, u32)> = BTreeMap::new();
        for i in 0..ENTRIES {
            oracle.insert(universe_name(i), ([face_of(i)].into(), tree_value(i)));
        }
        for z in 0..SHALLOW {
            oracle.insert(
                Name::root().child_index(z),
                ([FaceId(0)].into(), shallow_tree_value(z)),
            );
        }

        // Probes are one level below the universe, a ninth of them under
        // names the tables do not hold.
        let lookups = rounds * LOOKUP_BATCH;
        let probes = (0..lookups)
            .map(|_| {
                let i = rng.gen_range(0..ENTRIES + ENTRIES / 8);
                let name = universe_name(i).child_index(rng.gen_range(0..4u32));
                let held: Vec<(usize, &(BTreeSet<FaceId>, u32))> = name
                    .prefixes()
                    .filter_map(|p| oracle.get(&p).map(|e| (p.len(), e)))
                    .collect();
                let all: BTreeSet<FaceId> =
                    held.iter().flat_map(|(_, (f, _))| f).copied().collect();
                let all: Vec<FaceId> = all.into_iter().collect();
                let longest = held.last();
                Probe {
                    chain: name.hash_chain(),
                    text: name.to_string(),
                    st_faces: digest(&all),
                    st_face_count: all.len() as u32,
                    fib_faces: longest.map_or(NONE, |(_, (f, _))| {
                        digest(&f.iter().copied().collect::<Vec<_>>())
                    }),
                    tree_hit: longest.map_or(NONE, |&(len, &(_, v))| tree_digest(len, v)),
                    cd: Cd::new(name),
                }
            })
            .collect();
        // Half of the Content Store probes name Data the read store holds.
        let cs_probes = (0..lookups)
            .map(|_| {
                let held = rng.gen_bool(0.5);
                let i = if held {
                    rng.gen_range(0..CS_CAPACITY / 2)
                } else {
                    ENTRIES + rng.gen_range(0..ENTRIES)
                };
                (data_name(i), held)
            })
            .collect();

        // Fresh names lie past everything the tables or the probes name:
        // two leaves under each of `CHURN_BATCH / 2` consecutive `/z/y`
        // parents. The seed draws the leaves; the parents are the same for
        // every seed, because the interior nodes a table builds and drops for
        // them are most of what a churn round allocates (drawn freely, the
        // names moved `heap_alloc_gb` by 0.3 % between seeds).
        let fresh_base = (2 * ENTRIES).next_multiple_of(BRANCH);
        let fresh: Vec<usize> = (0..CHURN_BATCH / 2)
            .flat_map(|parent| {
                let x = rng.gen_range(0..BRANCH);
                let other = (x + rng.gen_range(1..BRANCH)) % BRANCH;
                let first = fresh_base + parent * BRANCH;
                [first + x.min(other), first + x.max(other)]
            })
            .collect();
        let fresh = fresh.into_iter().map(universe_name).collect();

        // A blob of records, and per round a copy with a few records
        // rewritten: most chunks keep their ids.
        let mut blob_rng = SmallRng::seed_from_u64(BLOB_SEED);
        let base_blob: Vec<u8> = (0..BLOB).map(|_| blob_rng.gen()).collect();
        let chunker = Chunker::default();
        let held: BTreeSet<ChunkId> = chunker
            .chunks(&base_blob)
            .iter()
            .map(|c| ChunkId::of(c))
            .collect();
        let blobs = (0..rounds)
            .map(|_| {
                let mut blob = base_blob.clone();
                for _ in 0..8 {
                    let at = rng.gen_range(0..BLOB - 64);
                    blob[at..at + 64].iter_mut().for_each(|b| *b = rng.gen());
                }
                let missing: BTreeSet<ChunkId> = chunker
                    .chunks(&blob)
                    .iter()
                    .map(|c| ChunkId::of(c))
                    .filter(|id| !held.contains(id))
                    .collect();
                (blob, missing.len())
            })
            .collect();

        Script {
            probes,
            cs_probes,
            fresh,
            base_blob,
            blobs,
        }
    }
}

pub struct PlaneWorkload {
    pub script: Script,
}

/// Counts an operation and whether its result was the expected one.
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn expect(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn lookup_round(
    t: &mut Tables,
    probes: &[Probe],
    cs_probes: &[(Name, bool)],
    tally: &mut Tally,
    faces_matched: &mut u64,
    s: &mut Spans,
) {
    let n = probes.len() as u64;
    s.scope("copss.st.match", n, |_| {
        for p in probes {
            let faces = t.st.matching_faces(&p.cd, None, None);
            *faces_matched += faces.len() as u64;
            tally.expect(digest(&faces) == p.st_faces && faces.len() as u32 == p.st_face_count);
        }
    });
    s.scope("ndn.fib.lpm", n, |_| {
        for p in probes {
            let got = t
                .fib
                .lookup_hashed(p.cd.name(), &p.chain)
                .map_or(NONE, digest);
            tally.expect(got == p.fib_faces);
        }
    });
    s.scope("names.tree_bitmap.lpm", n, |_| {
        for p in probes {
            let got = t
                .tree
                .longest_prefix_hashed(p.cd.name(), &p.chain)
                .map_or(NONE, |(prefix, v)| tree_digest(prefix.len(), *v));
            tally.expect(got == p.tree_hit);
        }
    });
    s.scope("ndn.cs.lookup", n, |_| {
        for (name, held) in cs_probes {
            tally.expect(t.cs_read.lookup(1, name).is_some() == *held);
        }
    });
    s.scope("names.name.parse", n, |_| {
        for p in probes {
            tally.expect(
                p.text
                    .parse::<Name>()
                    .is_ok_and(|name| &name == p.cd.name()),
            );
        }
    });
    s.scope("names.name.hash_chain", n, |_| {
        for p in probes {
            tally.expect(black_box(p.cd.name()).hash_chain() == p.chain);
        }
    });
}

fn churn_round(
    t: &mut Tables,
    fresh: &[Name],
    round: usize,
    blob: &(Vec<u8>, usize),
    tally: &mut Tally,
    s: &mut Spans,
) {
    let n = fresh.len() as u64;
    let anchors: BTreeSet<RpId> = [RpId(0)].into();
    let face = |k: usize| FaceId(k as u32 % FACES);
    s.scope("copss.st.subscribe", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.st.subscribe(face(k), name.clone(), anchors.clone(), true));
        }
    });
    s.scope("copss.st.unsubscribe", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.st.unsubscribe(face(k), name, None));
        }
    });
    s.scope("ndn.fib.add_remove", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.fib.add(name.clone(), face(k)));
        }
    });
    s.scope("ndn.fib.add_remove", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.fib.remove(name, face(k)));
        }
    });
    s.scope("names.tree_bitmap.insert", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.tree.insert(name.clone(), k as u32).is_none());
        }
    });
    s.scope("names.tree_bitmap.remove", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.tree.remove(name) == Some(k as u32));
        }
    });
    let now = round as u64;
    s.scope("ndn.pit.insert_consume", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            let interest = Interest::new(name.clone(), now << 32 | k as u64);
            tally.expect(t.pit.insert(now, face(k), &interest) == PitInsert::Forward);
        }
    });
    s.scope("ndn.pit.insert_consume", n, |_| {
        for (k, name) in fresh.iter().enumerate() {
            tally.expect(t.pit.consume(now, name) == [face(k)]);
        }
    });
    s.scope("ndn.cs.insert", n, |_| {
        for name in fresh {
            t.cs_churn
                .insert(now, Data::new(name.child_index(round as u32), payload()));
            tally.expect(t.cs_churn.len() == CS_CAPACITY);
        }
    });
    let (manifest, _) = s.scope("names.chunk.cdc", blob.0.len() as u64, |_| {
        Chunker::default().manifest(now, &blob.0)
    });
    let (missing, _) = s.scope("names.chunk.missing", 1, |_| {
        t.chunks.missing(&manifest).len()
    });
    tally.expect(manifest.chunk_len_sum() == blob.0.len() as u64);
    tally.expect(missing == blob.1);
}

impl PlaneWorkload {
    /// The span `setup`: populating the tables.
    fn set_up(&self, spans: &mut Spans) -> Tables {
        spans
            .scope("setup", 0, |_| Tables::populate(&self.script.base_blob))
            .0
    }
}

impl Workload for PlaneWorkload {
    fn name(&self) -> &'static str {
        "router_plane"
    }

    fn set_up_only(&self, spans: &mut Spans) {
        drop(self.set_up(spans));
    }

    fn rep(&self, spans: &mut Spans) -> Rep {
        let script = &self.script;
        let mut t = self.set_up(spans);
        let baseline = t.sizes();

        let mut rep = Rep::default();
        let mut tally = Tally {
            attempted: 0,
            failed: 0,
        };
        let mut faces_matched = 0;
        HEAP.reset_peak();
        let before = HEAP.stats();
        spans.scope("pass", 0, |s| {
            s.scope("plane.lookup", 0, |s| {
                let batches = script
                    .probes
                    .chunks(LOOKUP_BATCH)
                    .zip(script.cs_probes.chunks(LOOKUP_BATCH));
                for (probes, cs_probes) in batches {
                    lookup_round(&mut t, probes, cs_probes, &mut tally, &mut faces_matched, s);
                }
            });
            s.scope("plane.churn", 0, |s| {
                for (round, blob) in script.blobs.iter().enumerate() {
                    churn_round(&mut t, &script.fresh, round, blob, &mut tally, s);
                }
            });
        });
        rep.heap = HEAP.stats().since(before);

        rep.attempted = tally.attempted;
        rep.failed = tally.failed;
        rep.check(t.sizes() == baseline, || {
            format!(
                "table sizes {:?} after churn, {baseline:?} before",
                t.sizes()
            )
        });
        let lookups = script.probes.len() as f64;
        rep.exact.extend([
            ("copss.st.match_faces_mean", faces_matched as f64 / lookups),
            (
                "ndn.cs.hit_ratio",
                t.cs_read.hits() as f64 / (t.cs_read.hits() + t.cs_read.misses()) as f64,
            ),
        ]);
        rep
    }
}
