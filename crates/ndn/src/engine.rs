//! The NDN forwarding pipeline.

use crate::{ContentStore, ContentStoreConfig, Data, FaceId, Fib, Interest, Pit, PitInsert};

/// An action the host must carry out after the engine processed a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdnAction {
    /// Transmit an Interest out of a face.
    SendInterest {
        /// Outgoing face.
        face: FaceId,
        /// The Interest to transmit.
        interest: Interest,
    },
    /// Transmit a Data packet out of a face.
    SendData {
        /// Outgoing face.
        face: FaceId,
        /// The Data to transmit.
        data: Data,
    },
}

/// The NDN forwarding engine: FIB + PIT + Content Store wired into the
/// standard pipeline.
///
/// * Interest: Content Store hit → Data straight back; otherwise PIT
///   insert (aggregate / drop duplicates) and FIB longest-prefix forward to
///   every registered face except the arrival face.
/// * Data: consume matching PIT entries, cache, and send out of each
///   recorded downstream face. Unsolicited Data is cached but not
///   forwarded (cache-and-drop).
///
/// The engine never performs I/O; see [`NdnAction`].
#[derive(Debug, Default)]
pub struct NdnEngine {
    fib: Fib,
    pit: Pit,
    cs: ContentStore,
    dropped_interests: u64,
    unsolicited_data: u64,
}

impl NdnEngine {
    /// Creates an engine with empty tables and a Content Store sized by
    /// `content_store`.
    #[must_use]
    pub fn new(content_store: ContentStoreConfig) -> Self {
        Self {
            fib: Fib::new(),
            pit: Pit::new(),
            cs: ContentStore::new(content_store),
            dropped_interests: 0,
            unsolicited_data: 0,
        }
    }

    /// The FIB (read-only).
    #[must_use]
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// The FIB, for route manipulation (`FibAdd`/`FibRemove` handling).
    pub fn fib_mut(&mut self) -> &mut Fib {
        &mut self.fib
    }

    /// The PIT (read-only).
    #[must_use]
    pub fn pit(&self) -> &Pit {
        &self.pit
    }

    /// The PIT, for fault handling (purging dead faces, clearing on
    /// restart, sweeping expired entries).
    pub fn pit_mut(&mut self) -> &mut Pit {
        &mut self.pit
    }

    /// The Content Store (read-only).
    #[must_use]
    pub fn content_store(&self) -> &ContentStore {
        &self.cs
    }

    /// Interests dropped for lack of a FIB route or duplicate nonce.
    #[must_use]
    pub fn dropped_interests(&self) -> u64 {
        self.dropped_interests
    }

    /// Data packets that matched no PIT entry.
    #[must_use]
    pub fn unsolicited_data(&self) -> u64 {
        self.unsolicited_data
    }

    /// Processes an Interest arriving on `face` at `now_ns`.
    pub fn process_interest(
        &mut self,
        now_ns: u64,
        face: FaceId,
        interest: Interest,
    ) -> Vec<NdnAction> {
        // 1. Content store.
        if let Some(data) = self.cs.lookup(now_ns, &interest.name) {
            return vec![NdnAction::SendData { face, data }];
        }
        // 2. PIT.
        match self.pit.insert(now_ns, face, &interest) {
            PitInsert::Forward => {}
            PitInsert::Aggregated => return Vec::new(),
            PitInsert::DuplicateNonce => {
                self.dropped_interests += 1;
                return Vec::new();
            }
        }
        // 3. FIB.
        let Some(faces) = self.fib.lookup(&interest.name) else {
            self.dropped_interests += 1;
            return Vec::new();
        };
        let upstream = faces.iter().copied().filter(|f| *f != face);
        fan_out(upstream, interest, |face, interest| {
            NdnAction::SendInterest { face, interest }
        })
    }

    /// Processes a Data packet arriving on `face` at `now_ns`.
    pub fn process_data(&mut self, now_ns: u64, face: FaceId, data: Data) -> Vec<NdnAction> {
        let downstream = self.pit.consume(now_ns, &data.name);
        if downstream.is_empty() {
            // Cache-and-drop: under congestion Data can outlive its PIT
            // breadcrumbs (the entries expired before it got back). It is
            // not forwarded — no breadcrumb says where — but admitting it
            // to the Content Store turns the wasted round trip into a
            // shorter path for the consumer's inevitable retry.
            self.cs.insert(now_ns, data);
            self.unsolicited_data += 1;
            return Vec::new();
        }
        self.cs.insert(now_ns, data.clone());
        let downstream = downstream.into_iter().filter(|f| *f != face);
        fan_out(downstream, data, |face, data| NdnAction::SendData {
            face,
            data,
        })
    }
}

/// One action per face, each carrying `pkt`: every face but the last gets a
/// clone, the last takes the packet itself.
fn fan_out<P: Clone>(
    faces: impl Iterator<Item = FaceId>,
    pkt: P,
    action: impl Fn(FaceId, P) -> NdnAction,
) -> Vec<NdnAction> {
    let mut faces = faces.peekable();
    let mut out = Vec::new();
    while let Some(face) = faces.next() {
        if faces.peek().is_none() {
            out.push(action(face, pkt));
            break;
        }
        out.push(action(face, pkt.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_compat::bytes::Bytes;
    use gcopss_names::Name;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    fn data(name: &str) -> Data {
        Data::new(n(name), Bytes::from_static(b"payload"))
    }

    #[test]
    fn interest_forwarded_along_fib() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        let acts = e.process_interest(0, FaceId(1), Interest::new(n("/a/b"), 1));
        assert_eq!(acts.len(), 1);
        assert!(matches!(&acts[0], NdnAction::SendInterest { face: FaceId(5), .. }));
    }

    #[test]
    fn interest_without_route_dropped() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        let acts = e.process_interest(0, FaceId(1), Interest::new(n("/a"), 1));
        assert!(acts.is_empty());
        assert_eq!(e.dropped_interests(), 1);
    }

    #[test]
    fn interest_not_reflected_to_arrival_face() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(1));
        e.fib_mut().add(n("/a"), FaceId(2));
        let acts = e.process_interest(0, FaceId(1), Interest::new(n("/a"), 1));
        assert_eq!(acts.len(), 1);
        assert!(matches!(&acts[0], NdnAction::SendInterest { face: FaceId(2), .. }));
    }

    #[test]
    fn aggregation_suppresses_second_forward() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        let a1 = e.process_interest(0, FaceId(1), Interest::new(n("/a"), 1));
        let a2 = e.process_interest(0, FaceId(2), Interest::new(n("/a"), 2));
        assert_eq!(a1.len(), 1);
        assert!(a2.is_empty());
        // Data satisfies both downstream faces.
        let acts = e.process_data(1, FaceId(5), data("/a"));
        let mut faces: Vec<FaceId> = acts
            .iter()
            .map(|a| match a {
                NdnAction::SendData { face, .. } => *face,
                NdnAction::SendInterest { .. } => panic!("unexpected"),
            })
            .collect();
        faces.sort_unstable();
        assert_eq!(faces, vec![FaceId(1), FaceId(2)]);
    }

    #[test]
    fn content_store_short_circuits() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        e.process_interest(0, FaceId(1), Interest::new(n("/a"), 1));
        e.process_data(1, FaceId(5), data("/a"));
        // Second consumer hits the cache; no new Interest forwarded.
        let acts = e.process_interest(2, FaceId(2), Interest::new(n("/a"), 3));
        assert_eq!(acts.len(), 1);
        assert!(matches!(&acts[0], NdnAction::SendData { face: FaceId(2), .. }));
        assert_eq!(e.content_store().hits(), 1);
    }

    #[test]
    fn unsolicited_data_dropped() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        let acts = e.process_data(0, FaceId(5), data("/nobody/asked"));
        assert!(acts.is_empty());
        assert_eq!(e.unsolicited_data(), 1);
    }

    #[test]
    fn data_satisfies_prefix_interest() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        e.process_interest(0, FaceId(1), Interest::new(n("/a"), 1));
        // Producer answers with a more specific name.
        let acts = e.process_data(1, FaceId(5), data("/a/v1"));
        assert_eq!(acts.len(), 1);
        assert!(matches!(&acts[0], NdnAction::SendData { face: FaceId(1), .. }));
    }

    #[test]
    fn duplicate_nonce_counted() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        let i = Interest::new(n("/a"), 42);
        e.process_interest(0, FaceId(1), i.clone());
        let acts = e.process_interest(0, FaceId(2), i);
        assert!(acts.is_empty());
        assert_eq!(e.dropped_interests(), 1);
    }
}
