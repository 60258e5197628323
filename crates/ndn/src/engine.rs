//! The NDN forwarding pipeline.

use crate::{ContentStore, ContentStoreConfig, Data, FaceId, Fib, Interest, Pit, PitInsert};

/// An action the host must carry out for a packet the engine processes,
/// handed to the `emit` sink of [`NdnEngine::process_interest`] /
/// [`NdnEngine::process_data`].
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
/// The engine never performs I/O: each processed packet hands its
/// [`NdnAction`]s to a caller-supplied sink, so a forwarding hop collects
/// nothing into a buffer of its own.
#[derive(Debug, Default)]
pub struct NdnEngine {
    fib: Fib,
    pit: Pit,
    cs: ContentStore,
    /// Reused by `process_data`: the faces one Data goes back out of.
    downstream: Vec<FaceId>,
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
            downstream: Vec::new(),
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

    /// Data packets that matched no PIT entry.
    #[must_use]
    pub fn unsolicited_data(&self) -> u64 {
        self.unsolicited_data
    }

    /// Processes an Interest arriving on `face` at `now_ns`, handing each
    /// resulting action to `emit`.
    pub fn process_interest(
        &mut self,
        now_ns: u64,
        face: FaceId,
        interest: Interest,
        mut emit: impl FnMut(NdnAction),
    ) {
        // 1. Content store.
        if let Some(data) = self.cs.lookup(now_ns, &interest.name) {
            emit(NdnAction::SendData { face, data });
            return;
        }
        // 2. PIT.
        match self.pit.insert(now_ns, face, &interest) {
            PitInsert::Forward => {}
            PitInsert::Aggregated | PitInsert::DuplicateNonce => return,
        }
        // 3. FIB.
        let Some(faces) = self.fib.lookup(&interest.name) else {
            return;
        };
        let upstream = faces.iter().copied().filter(|f| *f != face);
        fan_out(upstream, interest, |face, interest| {
            emit(NdnAction::SendInterest { face, interest });
        });
    }

    /// Processes a Data packet arriving on `face` at `now_ns`, handing each
    /// resulting action to `emit`.
    pub fn process_data(
        &mut self,
        now_ns: u64,
        face: FaceId,
        data: Data,
        mut emit: impl FnMut(NdnAction),
    ) {
        self.pit
            .consume_into(now_ns, &data.name, &mut self.downstream);
        if self.downstream.is_empty() {
            // Cache-and-drop: under congestion Data can outlive its PIT
            // breadcrumbs (the entries expired before it got back). It is
            // not forwarded — no breadcrumb says where — but admitting it
            // to the Content Store turns the wasted round trip into a
            // shorter path for the consumer's inevitable retry.
            self.cs.insert(now_ns, data);
            self.unsolicited_data += 1;
            return;
        }
        self.cs.insert(now_ns, data.clone());
        let downstream = self.downstream.iter().copied().filter(|f| *f != face);
        fan_out(downstream, data, |face, data| {
            emit(NdnAction::SendData { face, data });
        });
    }
}

/// Sends `pkt` out of each face: every face but the last gets a clone, the
/// last takes the packet itself.
fn fan_out<P: Clone>(faces: impl Iterator<Item = FaceId>, pkt: P, mut send: impl FnMut(FaceId, P)) {
    let mut faces = faces.peekable();
    while let Some(face) = faces.next() {
        if faces.peek().is_none() {
            send(face, pkt);
            return;
        }
        send(face, pkt.clone());
    }
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

    fn interest(e: &mut NdnEngine, now: u64, face: FaceId, i: Interest) -> Vec<NdnAction> {
        let mut acts = Vec::new();
        e.process_interest(now, face, i, |a| acts.push(a));
        acts
    }

    fn answer(e: &mut NdnEngine, now: u64, face: FaceId, d: Data) -> Vec<NdnAction> {
        let mut acts = Vec::new();
        e.process_data(now, face, d, |a| acts.push(a));
        acts
    }

    #[test]
    fn interest_forwarded_along_fib() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        let acts = interest(&mut e, 0, FaceId(1), Interest::new(n("/a/b"), 1));
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            &acts[0],
            NdnAction::SendInterest {
                face: FaceId(5),
                ..
            }
        ));
    }

    #[test]
    fn interest_without_route_dropped() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        let acts = interest(&mut e, 0, FaceId(1), Interest::new(n("/a"), 1));
        assert!(acts.is_empty());
    }

    #[test]
    fn interest_not_reflected_to_arrival_face() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(1));
        e.fib_mut().add(n("/a"), FaceId(2));
        let acts = interest(&mut e, 0, FaceId(1), Interest::new(n("/a"), 1));
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            &acts[0],
            NdnAction::SendInterest {
                face: FaceId(2),
                ..
            }
        ));
    }

    #[test]
    fn aggregation_suppresses_second_forward() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        let a1 = interest(&mut e, 0, FaceId(1), Interest::new(n("/a"), 1));
        let a2 = interest(&mut e, 0, FaceId(2), Interest::new(n("/a"), 2));
        assert_eq!(a1.len(), 1);
        assert!(a2.is_empty());
        // Data satisfies both downstream faces.
        let acts = answer(&mut e, 1, FaceId(5), data("/a"));
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
        interest(&mut e, 0, FaceId(1), Interest::new(n("/a"), 1));
        answer(&mut e, 1, FaceId(5), data("/a"));
        // Second consumer hits the cache; no new Interest forwarded.
        let acts = interest(&mut e, 2, FaceId(2), Interest::new(n("/a"), 3));
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            &acts[0],
            NdnAction::SendData {
                face: FaceId(2),
                ..
            }
        ));
        assert_eq!(e.content_store().hits(), 1);
    }

    #[test]
    fn unsolicited_data_dropped() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        let acts = answer(&mut e, 0, FaceId(5), data("/nobody/asked"));
        assert!(acts.is_empty());
        assert_eq!(e.unsolicited_data(), 1);
    }

    #[test]
    fn data_satisfies_prefix_interest() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        interest(&mut e, 0, FaceId(1), Interest::new(n("/a"), 1));
        // Producer answers with a more specific name.
        let acts = answer(&mut e, 1, FaceId(5), data("/a/v1"));
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            &acts[0],
            NdnAction::SendData {
                face: FaceId(1),
                ..
            }
        ));
    }

    #[test]
    fn duplicate_nonce_dropped() {
        let mut e = NdnEngine::new(ContentStoreConfig::default());
        e.fib_mut().add(n("/a"), FaceId(5));
        let i = Interest::new(n("/a"), 42);
        interest(&mut e, 0, FaceId(1), i.clone());
        let acts = interest(&mut e, 0, FaceId(2), i);
        assert!(acts.is_empty());
    }
}
