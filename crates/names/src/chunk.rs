//! Content-addressed snapshot chunking: ids, manifests and chunk stores.
//!
//! Production game-content pipelines (NGDP/TACT + CASC) identify every piece
//! of content by the hash of its bytes, describe a snapshot as a *manifest*
//! (an ordered list of chunk ids) and ship only the chunks the receiver does
//! not already hold. This module is the in-tree, dependency-free core of
//! that pattern for G-COPSS snapshot brokers:
//!
//! * [`ChunkId`] — the FNV-1a hash of a chunk's bytes. Content-addressed:
//!   two chunks with equal bytes have equal ids, so routers and clients
//!   dedup across CDs for free.
//! * [`Chunker`] — rolling-hash *content-defined* boundary cutting. Cutting
//!   on content (not fixed offsets) keeps chunk boundaries stable when a
//!   small edit shifts bytes, so an update to one object perturbs only the
//!   chunks covering it.
//! * [`Manifest`] — an ordered chunk list plus total length, with a compact
//!   little-endian wire encoding and strict decode validation.
//! * [`ChunkStore`] — a verified hash → bytes map with manifest diffing
//!   ([`ChunkStore::missing`]) and integrity-checked reassembly.
//!
//! Everything here is deterministic and seed-free (FNV-1a throughout), so
//! same-seed simulation runs chunk identically.

use std::collections::BTreeMap;
use std::fmt;

use crate::fnv1a;

/// The content-addressed identity of a chunk: the FNV-1a hash of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// Hashes `bytes` into their chunk id.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        Self(fnv1a(bytes))
    }

    /// Fixed-width lowercase hex, usable as a name component
    /// (`/chunk/<hex>`).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`ChunkId::to_hex`] form back.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// No boundary before this many bytes of the current chunk.
///
/// Boundaries are cut where a rolling hash of the last bytes matches
/// [`BOUNDARY_MASK`], clamped to `[MIN_CHUNK, MAX_CHUNK]`. The three are
/// sized so the chunk grain sits *below* the typical game-object snapshot
/// (~0.5–1.7 KB): an update that rewrites a field-sized window of one object
/// then dirties one or two chunks, and the rest of the object — let alone
/// the CD blob — keeps its chunk ids. Much coarser chunks would erase the
/// delta resolution; much finer ones would turn a catch-up into a
/// per-packet Interest flood.
pub const MIN_CHUNK: usize = 128;

/// Boundary when `rolling_hash & BOUNDARY_MASK == BOUNDARY_MASK`; must be
/// `2^k - 1`. Average chunk ≈ `MIN_CHUNK + BOUNDARY_MASK + 1` (~256 B past
/// the minimum).
pub const BOUNDARY_MASK: u64 = 0xff;

/// Force a boundary at this many bytes even without a hash match.
pub const MAX_CHUNK: usize = 1024;

/// The per-byte mixing table of the gear rolling hash, derived
/// deterministically from FNV-1a so no random seed is needed.
fn gear(b: u8) -> u64 {
    fnv1a(&[b, 0x9e, 0x37, 0x79, 0xb9])
}

/// Content-defined chunker cutting at [`MIN_CHUNK`] / [`BOUNDARY_MASK`] /
/// [`MAX_CHUNK`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunker;

impl Chunker {
    /// Splits `data` into content-defined chunks. Every byte lands in
    /// exactly one chunk and chunks concatenate back to `data`; an empty
    /// input yields no chunks.
    #[must_use]
    pub fn chunks<'d>(&self, data: &'d [u8]) -> Vec<&'d [u8]> {
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut h = 0u64;
        for (i, &b) in data.iter().enumerate() {
            let len = i - start + 1;
            h = (h << 1).wrapping_add(gear(b));
            let hash_cut = len >= MIN_CHUNK && (h & BOUNDARY_MASK) == BOUNDARY_MASK;
            if hash_cut || len >= MAX_CHUNK {
                out.push(&data[start..=i]);
                start = i + 1;
                h = 0;
            }
        }
        if start < data.len() {
            out.push(&data[start..]);
        }
        out
    }

    /// Chunks `data` and returns the manifest describing it (chunks are
    /// *not* stored; pair with [`ChunkStore::insert`]).
    #[must_use]
    pub fn manifest(&self, version: u64, data: &[u8]) -> Manifest {
        let chunks = self
            .chunks(data)
            .iter()
            .map(|c| ChunkRef {
                id: ChunkId::of(c),
                len: c.len() as u32,
            })
            .collect();
        Manifest {
            version,
            total_len: data.len() as u64,
            chunks,
        }
    }
}

/// One chunk as referenced by a manifest: its id and byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Content-addressed id.
    pub id: ChunkId,
    /// Chunk length in bytes.
    pub len: u32,
}

/// An ordered description of one snapshot version: which chunks, in which
/// order, reassemble it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Snapshot version this manifest describes (monotonic per CD).
    pub version: u64,
    /// Total reassembled length in bytes (integrity cross-check).
    pub total_len: u64,
    /// Chunks in reassembly order.
    pub chunks: Vec<ChunkRef>,
}

/// Wire-format magic for encoded manifests (`"GCMF"` + format version 1).
const MANIFEST_MAGIC: u32 = 0x4743_4d01;

impl Manifest {
    /// Total bytes across all referenced chunks (equals `total_len` for a
    /// well-formed manifest).
    #[must_use]
    pub fn chunk_len_sum(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.len)).sum()
    }

    /// Encodes to the little-endian wire format:
    /// `magic:u32 | version:u64 | total_len:u64 | count:u32 |
    /// (id:u64 | len:u32)*`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.chunks.len() * 12);
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.id.0.to_le_bytes());
            out.extend_from_slice(&c.len.to_le_bytes());
        }
        out
    }

    /// Decodes the [`Manifest::encode`] format, validating magic, exact
    /// length and the `total_len` / chunk-length-sum invariant.
    pub fn decode(bytes: &[u8]) -> Result<Self, ChunkError> {
        let take4 = |b: &[u8], at: usize| -> Option<u32> {
            b.get(at..at + 4).map(|s| {
                let mut a = [0u8; 4];
                a.copy_from_slice(s);
                u32::from_le_bytes(a)
            })
        };
        let take8 = |b: &[u8], at: usize| -> Option<u64> {
            b.get(at..at + 8).map(|s| {
                let mut a = [0u8; 8];
                a.copy_from_slice(s);
                u64::from_le_bytes(a)
            })
        };
        let magic = take4(bytes, 0).ok_or(ChunkError::Truncated)?;
        if magic != MANIFEST_MAGIC {
            return Err(ChunkError::BadMagic(magic));
        }
        let version = take8(bytes, 4).ok_or(ChunkError::Truncated)?;
        let total_len = take8(bytes, 12).ok_or(ChunkError::Truncated)?;
        let count = take4(bytes, 20).ok_or(ChunkError::Truncated)? as usize;
        if bytes.len() != 24 + count * 12 {
            return Err(ChunkError::Truncated);
        }
        let mut chunks = Vec::with_capacity(count);
        for i in 0..count {
            let at = 24 + i * 12;
            chunks.push(ChunkRef {
                id: ChunkId(take8(bytes, at).ok_or(ChunkError::Truncated)?),
                len: take4(bytes, at + 8).ok_or(ChunkError::Truncated)?,
            });
        }
        let m = Self {
            version,
            total_len,
            chunks,
        };
        if m.chunk_len_sum() != m.total_len {
            return Err(ChunkError::LengthMismatch {
                expected: m.total_len,
                actual: m.chunk_len_sum(),
            });
        }
        Ok(m)
    }
}

/// Errors from manifest decoding, chunk verification and reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkError {
    /// Encoded manifest shorter (or longer) than its header implies.
    Truncated,
    /// Encoded manifest does not start with the expected magic.
    BadMagic(u32),
    /// Manifest `total_len` disagrees with the sum of its chunk lengths.
    LengthMismatch {
        /// Declared total length.
        expected: u64,
        /// Sum of chunk lengths.
        actual: u64,
    },
    /// Reassembly needs a chunk the store does not hold.
    MissingChunk(ChunkId),
    /// A held chunk's length disagrees with the manifest's reference.
    WrongLength {
        /// The chunk in question.
        id: ChunkId,
        /// Length the manifest declares.
        expected: u32,
        /// Length held in the store.
        actual: u32,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "manifest truncated"),
            Self::BadMagic(m) => write!(f, "bad manifest magic {m:#010x}"),
            Self::LengthMismatch { expected, actual } => {
                write!(f, "manifest total_len {expected} != chunk sum {actual}")
            }
            Self::MissingChunk(id) => write!(f, "missing chunk {id}"),
            Self::WrongLength {
                id,
                expected,
                actual,
            } => write!(f, "chunk {id} length {actual} != manifest {expected}"),
        }
    }
}

impl std::error::Error for ChunkError {}

/// A verified content-addressed chunk cache: every held entry's bytes hash
/// to its key, so reassembly integrity reduces to membership checks.
#[derive(Debug, Clone, Default)]
pub struct ChunkStore {
    by_id: BTreeMap<u64, Vec<u8>>,
}

impl ChunkStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Hashes and stores `bytes`, returning their id. Idempotent: equal
    /// bytes dedup onto one entry.
    pub fn insert(&mut self, bytes: &[u8]) -> ChunkId {
        let id = ChunkId::of(bytes);
        self.insert_hashed(id, bytes);
        id
    }

    /// Stores `bytes` under `id`, which the caller has already checked to
    /// be their hash: the receive path verifies a chunk against its name
    /// before it takes it, so hashing again here would be the same work.
    pub fn insert_hashed(&mut self, id: ChunkId, bytes: &[u8]) {
        debug_assert_eq!(ChunkId::of(bytes), id, "chunk bytes must hash to their id");
        self.by_id.insert(id.0, bytes.to_vec());
    }

    /// Whether the store holds `id`.
    #[must_use]
    pub fn contains(&self, id: ChunkId) -> bool {
        self.by_id.contains_key(&id.0)
    }

    /// The bytes of `id`, if held.
    #[must_use]
    pub fn get(&self, id: ChunkId) -> Option<&[u8]> {
        self.by_id.get(&id.0).map(Vec::as_slice)
    }

    /// Number of distinct chunks held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The manifest entries this store does *not* hold — the delta a
    /// catching-up client must fetch. Duplicate references within the
    /// manifest are reported once.
    #[must_use]
    pub fn missing(&self, manifest: &Manifest) -> Vec<ChunkRef> {
        let mut seen = std::collections::BTreeSet::new();
        manifest
            .chunks
            .iter()
            .filter(|c| !self.contains(c.id) && seen.insert(c.id.0))
            .copied()
            .collect()
    }

    /// Reassembles the manifest's content from held chunks, verifying every
    /// chunk's length and the total length.
    pub fn reassemble(&self, manifest: &Manifest) -> Result<Vec<u8>, ChunkError> {
        let mut out = Vec::with_capacity(manifest.total_len as usize);
        for c in &manifest.chunks {
            let bytes = self.get(c.id).ok_or(ChunkError::MissingChunk(c.id))?;
            if bytes.len() as u32 != c.len {
                return Err(ChunkError::WrongLength {
                    id: c.id,
                    expected: c.len,
                    actual: bytes.len() as u32,
                });
            }
            out.extend_from_slice(bytes);
        }
        if out.len() as u64 != manifest.total_len {
            return Err(ChunkError::LengthMismatch {
                expected: manifest.total_len,
                actual: out.len() as u64,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (FNV stream over a counter).
    fn synth(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut h = seed | 1;
        for i in 0..len {
            h = fnv1a(&(h ^ i as u64).to_le_bytes());
            out.push((h >> 32) as u8);
        }
        out
    }

    #[test]
    fn chunks_cover_input_exactly() {
        let chunker = Chunker;
        for len in [0usize, 1, 63, 64, 100, 1024, 5000, 40_000] {
            let data = synth(len as u64 + 7, len);
            let chunks = chunker.chunks(&data);
            let rejoined: Vec<u8> = chunks.concat();
            assert_eq!(rejoined, data, "len {len}");
            for c in &chunks {
                assert!(c.len() <= MAX_CHUNK);
                assert!(!c.is_empty());
            }
            // All chunks but the last respect the minimum size.
            for c in chunks.iter().rev().skip(1) {
                assert!(c.len() >= MIN_CHUNK, "len {len}");
            }
        }
    }

    #[test]
    fn boundaries_are_content_defined() {
        // Prepending bytes shifts offsets but the tail re-synchronizes:
        // most chunks of the shifted input match chunks of the original.
        let chunker = Chunker;
        let data = synth(3, 20_000);
        let mut shifted = synth(99, 17);
        shifted.extend_from_slice(&data);
        let ids: std::collections::BTreeSet<u64> = chunker
            .chunks(&data)
            .iter()
            .map(|c| ChunkId::of(c).0)
            .collect();
        let shared = chunker
            .chunks(&shifted)
            .iter()
            .filter(|c| ids.contains(&ChunkId::of(c).0))
            .count();
        let total = chunker.chunks(&shifted).len();
        assert!(
            shared * 2 > total,
            "only {shared}/{total} chunks survived a 17-byte prepend"
        );
    }

    #[test]
    fn manifest_roundtrip_and_reassembly() {
        let chunker = Chunker;
        let data = synth(11, 9_137);
        let manifest = chunker.manifest(42, &data);
        assert_eq!(manifest.total_len, data.len() as u64);
        assert_eq!(manifest.chunk_len_sum(), data.len() as u64);

        let wire = manifest.encode();
        let decoded = Manifest::decode(&wire).unwrap();
        assert_eq!(decoded, manifest);

        let mut store = ChunkStore::new();
        for c in chunker.chunks(&data) {
            store.insert(c);
        }
        assert_eq!(store.reassemble(&manifest).unwrap(), data);
    }

    #[test]
    fn decode_rejects_malformed() {
        let manifest = Chunker.manifest(1, &synth(5, 3000));
        let wire = manifest.encode();
        assert_eq!(Manifest::decode(&wire[..10]), Err(ChunkError::Truncated));
        let mut extra = wire.clone();
        extra.push(0);
        assert_eq!(Manifest::decode(&extra), Err(ChunkError::Truncated));
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            Manifest::decode(&bad_magic),
            Err(ChunkError::BadMagic(_))
        ));
        let mut bad_len = wire;
        bad_len[12] ^= 0x01; // perturb total_len
        assert!(matches!(
            Manifest::decode(&bad_len),
            Err(ChunkError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn store_verifies_and_diffs() {
        let chunker = Chunker;
        let data = synth(21, 4_096);
        let manifest = chunker.manifest(1, &data);
        let mut store = ChunkStore::new();

        // Nothing held: everything is missing.
        assert_eq!(store.missing(&manifest).len(), manifest.chunks.len());

        // Hold the first half.
        let chunks = chunker.chunks(&data);
        let half = chunks.len() / 2;
        for c in &chunks[..half] {
            store.insert(c);
        }
        let missing = store.missing(&manifest);
        assert_eq!(missing.len(), chunks.len() - half);
        assert!(missing.iter().all(|m| !store.contains(m.id)));

        // Reassembly refuses while chunks are missing.
        assert!(matches!(
            store.reassemble(&manifest),
            Err(ChunkError::MissingChunk(_))
        ));

        // Complete the store; reassembly succeeds.
        for c in &chunks[half..] {
            store.insert(c);
        }
        assert_eq!(store.reassemble(&manifest).unwrap(), data);
        assert!(store.missing(&manifest).is_empty());
    }

    #[test]
    fn small_delta_dedups_most_chunks() {
        // Flip a small region of a large blob: the new manifest should
        // reuse the overwhelming majority of the old chunks.
        let chunker = Chunker;
        let mut data = synth(31, 50_000);
        let mut store = ChunkStore::new();
        for c in chunker.chunks(&data) {
            store.insert(c);
        }
        for b in &mut data[25_000..25_200] {
            *b ^= 0x5a;
        }
        let new_manifest = chunker.manifest(2, &data);
        let missing = store.missing(&new_manifest);
        let frac = missing.len() as f64 / new_manifest.chunks.len() as f64;
        assert!(
            frac < 0.05,
            "a 200-byte edit dirtied {frac:.1}% of {} chunks",
            new_manifest.chunks.len()
        );
        // And the delta alone completes reassembly.
        for m in &missing {
            let c = chunker
                .chunks(&data)
                .into_iter()
                .find(|c| ChunkId::of(c) == m.id)
                .unwrap()
                .to_vec();
            assert_eq!(store.insert(&c), m.id);
        }
        assert_eq!(store.reassemble(&new_manifest).unwrap(), data);
    }

    /// Property sweep: for a spread of seeded random blobs, the full
    /// chunk → manifest → store → reassemble pipeline is the identity, and
    /// a warm store re-fetches nothing.
    #[test]
    fn prop_roundtrip_over_random_blobs() {
        let chunker = Chunker;
        for seed in 0..40u64 {
            let len = (fnv1a(&seed.to_le_bytes()) % 20_000) as usize;
            let data = synth(seed, len);
            let chunks = chunker.chunks(&data);
            assert_eq!(chunks.concat(), data, "seed {seed}: coverage");
            let manifest = chunker.manifest(seed, &data);
            assert_eq!(
                Manifest::decode(&manifest.encode()).unwrap(),
                manifest,
                "seed {seed}: wire roundtrip"
            );
            let mut store = ChunkStore::new();
            for c in &chunks {
                store.insert(c);
            }
            assert_eq!(store.reassemble(&manifest).unwrap(), data, "seed {seed}");
            assert!(
                store.missing(&manifest).is_empty(),
                "seed {seed}: warm store must fetch zero chunks"
            );
        }
    }

    /// Property sweep: whatever subset of chunks a store holds, `missing`
    /// is exactly the distinct complement, and fetching precisely that
    /// delta (nothing more) closes reassembly.
    #[test]
    fn prop_missing_is_exact_complement() {
        let chunker = Chunker;
        for seed in 0..20u64 {
            let data = synth(seed ^ 0xdead, 12_000);
            let chunks = chunker.chunks(&data);
            let manifest = chunker.manifest(seed, &data);
            let mut store = ChunkStore::new();
            let mut held = std::collections::BTreeSet::new();
            for (i, c) in chunks.iter().enumerate() {
                if fnv1a(&(seed ^ i as u64).to_le_bytes()).is_multiple_of(3) {
                    held.insert(store.insert(c).0);
                }
            }
            let missing = store.missing(&manifest);
            let expect: std::collections::BTreeSet<u64> = manifest
                .chunks
                .iter()
                .map(|c| c.id.0)
                .filter(|id| !held.contains(id))
                .collect();
            let got: std::collections::BTreeSet<u64> = missing.iter().map(|c| c.id.0).collect();
            assert_eq!(got, expect, "seed {seed}: exact complement");
            assert_eq!(got.len(), missing.len(), "seed {seed}: no duplicates");
            for c in &chunks {
                if got.contains(&ChunkId::of(c).0) {
                    store.insert(c);
                }
            }
            assert_eq!(store.reassemble(&manifest).unwrap(), data, "seed {seed}");
        }
    }

    /// Property sweep: field-sized random edits at random offsets dirty a
    /// small, bounded fraction of a large blob's chunks, and the delta
    /// alone closes reassembly.
    #[test]
    fn prop_random_edits_stay_local() {
        let chunker = Chunker;
        for seed in 0..20u64 {
            let mut data = synth(seed ^ 0xbeef, 30_000);
            let mut store = ChunkStore::new();
            for c in chunker.chunks(&data) {
                store.insert(c);
            }
            let at = (fnv1a(&(seed ^ 0x77).to_le_bytes()) % 29_900) as usize;
            for (i, b) in data[at..at + 64].iter_mut().enumerate() {
                *b ^= (fnv1a(&(seed ^ i as u64).to_le_bytes()) >> 16) as u8;
            }
            let manifest = chunker.manifest(seed + 1, &data);
            let missing = store.missing(&manifest);
            assert!(
                missing.len() * 10 < manifest.chunks.len(),
                "seed {seed}: a 64-byte edit dirtied {}/{} chunks",
                missing.len(),
                manifest.chunks.len()
            );
            for m in &missing {
                let c = chunker
                    .chunks(&data)
                    .into_iter()
                    .find(|c| ChunkId::of(c) == m.id)
                    .unwrap()
                    .to_vec();
                assert_eq!(store.insert(&c), m.id, "seed {seed}");
            }
            assert_eq!(store.reassemble(&manifest).unwrap(), data, "seed {seed}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let id = ChunkId::of(b"hello");
        assert_eq!(ChunkId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(ChunkId::from_hex("xyz"), None);
        assert_eq!(ChunkId::from_hex(""), None);
    }
}
