//! The Content Store: an LRU cache of Data packets with freshness expiry.

use std::collections::VecDeque;

use gcopss_names::{Name, NameTreeBitmap};

use crate::Data;

/// Configuration for a [`ContentStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentStoreConfig {
    /// Maximum number of Data packets kept; the least recently used entry
    /// is evicted when full. Zero disables caching entirely.
    pub capacity: usize,
}

impl Default for ContentStoreConfig {
    fn default() -> Self {
        Self { capacity: 4096 }
    }
}

/// An LRU Content Store.
///
/// Lookup matches an Interest name against cached Data exactly, or — when
/// the Interest name is a proper prefix — against the first (lexicographically
/// smallest) cached Data below it, mirroring NDN's "leftmost child" default.
/// Entries whose freshness has lapsed are ignored and lazily evicted; the
/// paper notes gaming traffic "ages out quickly", which is modeled by small
/// `freshness_ns` on update Data.
///
/// # Example
///
/// ```
/// # use gcopss_ndn::{ContentStore, ContentStoreConfig, Data};
/// # use gcopss_names::Name;
/// # use gcopss_compat::bytes::Bytes;
/// let mut cs = ContentStore::new(ContentStoreConfig { capacity: 8 });
/// cs.insert(0, Data::new(Name::parse_lit("/a/1"), Bytes::from_static(b"x")));
/// assert!(cs.lookup(1, &Name::parse_lit("/a")).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ContentStore {
    config: ContentStoreConfig,
    /// name -> (data, absolute expiry ns, lru stamp)
    by_name: NameTreeBitmap<Entry>,
    /// The use log, oldest first: one `(stamp, name)` per insert or hit.
    /// A pair is *current* while the entry's stamp still equals it; stale
    /// pairs are skipped on eviction and swept by `log_use`.
    uses: VecDeque<(u64, Name)>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    data: Data,
    expires_ns: u64,
    stamp: u64,
}

impl ContentStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new(config: ContentStoreConfig) -> Self {
        Self {
            config,
            by_name: NameTreeBitmap::new(),
            uses: VecDeque::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Inserts (or refreshes) a Data packet at `now_ns`.
    ///
    /// Data with zero freshness is not cached. When the store is full the
    /// least recently used entry is evicted.
    pub fn insert(&mut self, now_ns: u64, data: Data) {
        if self.config.capacity == 0 || data.freshness_ns == 0 {
            return;
        }
        let name = data.name.clone();
        let expires_ns = now_ns.saturating_add(data.freshness_ns);
        let entry = Entry {
            data,
            expires_ns,
            stamp: self.next_stamp,
        };
        if self.by_name.insert(name.clone(), entry).is_none() {
            // The new entry has no pair in the log yet, so it is never the
            // victim — and a full store's log does not grow by the insert.
            while self.by_name.len() > self.config.capacity {
                self.evict_lru();
            }
        }
        self.log_use(name);
    }

    /// Looks up fresh Data matching `interest_name` (exact, or leftmost
    /// descendant for prefix Interests), refreshing its LRU position.
    pub fn lookup(&mut self, now_ns: u64, interest_name: &Name) -> Option<Data> {
        // Exact match first.
        let matched: Option<Name> = match self.by_name.get(interest_name) {
            Some(e) if e.expires_ns > now_ns => Some(interest_name.clone()),
            _ => {
                // Leftmost fresh descendant.
                self.by_name
                    .descendants(interest_name)
                    .into_iter()
                    .find(|(_, e)| e.expires_ns > now_ns)
                    .map(|(n, _)| n)
            }
        };
        match matched {
            Some(name) => {
                let e = self.by_name.get_mut(&name).expect("entry just matched");
                e.stamp = self.next_stamp;
                let data = e.data.clone();
                self.log_use(name);
                self.hits += 1;
                Some(data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Number of cached entries (including possibly stale ones awaiting
    /// lazy eviction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Returns `true` if the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `(stamp, name)` is the latest use of an entry of `by_name`.
    fn is_current(by_name: &NameTreeBitmap<Entry>, stamp: u64, name: &Name) -> bool {
        by_name.get(name).is_some_and(|e| e.stamp == stamp)
    }

    /// Appends the use `(next_stamp, name)`; the caller has already written
    /// that stamp into the entry. Hits on a store below capacity never reach
    /// `evict_lru`, so a full log is swept of its stale pairs instead of
    /// grown whenever they are at least half of it: the log stays within
    /// four times the entries at an amortised two trie probes per use.
    fn log_use(&mut self, name: Name) {
        if self.uses.len() == self.uses.capacity() && self.uses.len() >= 2 * self.by_name.len() {
            let by_name = &self.by_name;
            self.uses
                .retain(|(stamp, name)| Self::is_current(by_name, *stamp, name));
        }
        self.uses.push_back((self.next_stamp, name));
        self.next_stamp += 1;
    }

    fn evict_lru(&mut self) {
        while let Some((stamp, name)) = self.uses.pop_front() {
            if Self::is_current(&self.by_name, stamp, &name) {
                self.by_name.remove(&name);
                return;
            }
        }
    }
}

impl Default for ContentStore {
    fn default() -> Self {
        Self::new(ContentStoreConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_compat::bytes::Bytes;

    fn d(name: &str, body: &'static [u8]) -> Data {
        Data::new(Name::parse_lit(name), Bytes::from_static(body))
    }

    #[test]
    fn exact_hit_and_miss() {
        let mut cs = ContentStore::default();
        cs.insert(0, d("/a/1", b"x"));
        assert_eq!(
            cs.lookup(1, &Name::parse_lit("/a/1")).unwrap().payload,
            Bytes::from_static(b"x")
        );
        assert!(cs.lookup(1, &Name::parse_lit("/a/2")).is_none());
        assert_eq!(cs.hits(), 1);
        assert_eq!(cs.misses(), 1);
    }

    #[test]
    fn prefix_lookup_returns_leftmost() {
        let mut cs = ContentStore::default();
        cs.insert(0, d("/a/2", b"two"));
        cs.insert(0, d("/a/1", b"one"));
        let got = cs.lookup(1, &Name::parse_lit("/a")).unwrap();
        assert_eq!(got.name, Name::parse_lit("/a/1"));
    }

    #[test]
    fn freshness_expiry() {
        let mut cs = ContentStore::default();
        cs.insert(0, Data::with_freshness(Name::parse_lit("/a"), Bytes::new(), 100));
        assert!(cs.lookup(50, &Name::parse_lit("/a")).is_some());
        assert!(cs.lookup(150, &Name::parse_lit("/a")).is_none());
    }

    #[test]
    fn zero_freshness_not_cached() {
        let mut cs = ContentStore::default();
        cs.insert(0, Data::with_freshness(Name::parse_lit("/a"), Bytes::new(), 0));
        assert!(cs.is_empty());
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut cs = ContentStore::new(ContentStoreConfig { capacity: 0 });
        cs.insert(0, d("/a", b"x"));
        assert!(cs.lookup(1, &Name::parse_lit("/a")).is_none());
    }

    #[test]
    fn lru_eviction() {
        let mut cs = ContentStore::new(ContentStoreConfig { capacity: 2 });
        cs.insert(0, d("/a", b"a"));
        cs.insert(0, d("/b", b"b"));
        // Touch /a so /b becomes LRU.
        assert!(cs.lookup(1, &Name::parse_lit("/a")).is_some());
        cs.insert(2, d("/c", b"c"));
        assert_eq!(cs.len(), 2);
        assert!(cs.lookup(3, &Name::parse_lit("/b")).is_none(), "/b evicted");
        assert!(cs.lookup(3, &Name::parse_lit("/a")).is_some());
        assert!(cs.lookup(3, &Name::parse_lit("/c")).is_some());
    }

    #[test]
    fn use_log_stays_bounded_under_hits() {
        // A full-but-not-overfull store never evicts, so only the sweep in
        // `log_use` keeps the log from growing by one name per hit.
        let mut cs = ContentStore::new(ContentStoreConfig { capacity: 4 });
        for name in ["/a", "/b", "/c", "/d"] {
            cs.insert(0, d(name, b"x"));
        }
        for i in 0..100_000usize {
            let name = ["/a", "/b", "/c"][i % 3];
            assert!(cs.lookup(1, &Name::parse_lit(name)).is_some());
        }
        assert!(cs.uses.len() <= 4 * cs.len());
        // LRU order survived the sweeps: /d is still the oldest use.
        cs.insert(2, d("/e", b"x"));
        assert!(cs.lookup(3, &Name::parse_lit("/d")).is_none(), "/d evicted");
        assert!(cs.lookup(3, &Name::parse_lit("/a")).is_some());
    }

    #[test]
    fn reinsert_refreshes() {
        let mut cs = ContentStore::new(ContentStoreConfig { capacity: 2 });
        cs.insert(0, Data::with_freshness(Name::parse_lit("/a"), Bytes::new(), 100));
        cs.insert(50, Data::with_freshness(Name::parse_lit("/a"), Bytes::new(), 100));
        assert_eq!(cs.len(), 1);
        assert!(cs.lookup(120, &Name::parse_lit("/a")).is_some());
    }
}
