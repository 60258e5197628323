//! Allocation regression for the NDN forwarding hop (DESIGN.md §3.5,
//! "Allocation discipline"): over a warm engine, Interest→Data round trips,
//! a PIT consume over a multi-level Data name and a Content Store miss under
//! stale content make no heap call.

use gcopss_compat::bytes::Bytes;
use gcopss_names::Name;
use gcopss_ndn::{
    ContentStore, ContentStoreConfig, Data, FaceId, Interest, NdnAction, NdnEngine, Pit,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const UPSTREAM: FaceId = FaceId(9);
/// Data freshness: a round trip `ROUND` ns later finds the cached copy
/// stale, so every Interest misses the store and goes through the PIT.
const FRESH: u64 = 10;
const ROUND: u64 = 100;

fn prefix() -> Name {
    Name::parse_lit("/snapshot/1/3")
}

fn objects() -> Vec<Name> {
    (0..16).map(|k| prefix().child_index(k)).collect()
}

/// Heap calls `f` makes.
fn calls(f: impl FnOnce()) -> u64 {
    let before = counting_alloc::heap_calls();
    f();
    counting_alloc::heap_calls() - before
}

/// One round of fetches at `now`: per object, an Interest from face 1, its
/// looping copy from face 1 again (same nonce: dropped on the inline
/// nonce), then Data from upstream. Returns how many Interests left
/// upstream and how many Data went back down face 1.
fn round(e: &mut NdnEngine, names: &[Name], now: u64, nonce: u64) -> [u64; 2] {
    let payload = Bytes::from_static(b"object");
    let mut sent = [0u64; 2];
    let mut sink = |a: NdnAction| match a {
        NdnAction::SendInterest { face, .. } => sent[0] += u64::from(face == UPSTREAM),
        NdnAction::SendData { face, .. } => sent[1] += u64::from(face == FaceId(1)),
    };
    for name in names {
        let i = Interest::new(name.clone(), nonce);
        e.process_interest(now, FaceId(1), i.clone(), &mut sink);
        e.process_interest(now, FaceId(1), i, &mut sink);
        let d = Data::with_freshness(name.clone(), payload.clone(), FRESH);
        e.process_data(now + 1, UPSTREAM, d, &mut sink);
    }
    sent
}

#[test]
fn warm_round_trips_make_no_heap_calls() {
    let names = objects();
    let mut e = NdnEngine::new(ContentStoreConfig::default());
    e.fib_mut().add(Name::parse_lit("/snapshot"), UPSTREAM);
    // Warm the PIT's map, the store's trie and use log, and the engine's
    // face buffer.
    for r in 0..64 {
        round(&mut e, &names, r * ROUND, r);
    }

    let mut sent = [0; 2];
    let n = calls(|| {
        for r in 64..128 {
            let s = round(&mut e, &names, r * ROUND, r);
            sent = [sent[0] + s[0], sent[1] + s[1]];
        }
    });
    let trips = 64 * names.len() as u64;
    assert_eq!(sent, [trips, trips], "every Interest forwarded, every Data returned");
    assert_eq!(n, 0, "{n} heap calls over {trips} warm round trips");

    // A fresh copy answers from the store: the hit is no heap call either.
    let now = 128 * ROUND;
    round(&mut e, &names[..1], now, 128);
    let mut hits = 0;
    let n = calls(|| {
        let i = Interest::new(names[0].clone(), 129);
        e.process_interest(now + 2, FaceId(2), i, |a| {
            hits += u64::from(matches!(a, NdnAction::SendData { .. }));
        });
    });
    assert_eq!((hits, n), (1, 0));
}

#[test]
fn aggregation_costs_only_the_overflow() {
    let name = objects().swap_remove(0);
    let mut pit = Pit::new();
    let mut faces = Vec::with_capacity(4);
    pit.insert(0, FaceId(1), &Interest::new(name.clone(), 1));
    pit.consume_into(1, &name, &mut faces);

    pit.insert(2, FaceId(1), &Interest::new(name.clone(), 2));
    // A second downstream face spills: the box and its two vectors.
    let n = calls(|| {
        pit.insert(2, FaceId(2), &Interest::new(name.clone(), 3));
    });
    assert_eq!(n, 3);
    let n = calls(|| pit.consume_into(3, &name, &mut faces));
    assert_eq!((faces.as_slice(), n), ([FaceId(1), FaceId(2)].as_slice(), 0));
}

#[test]
fn consume_into_over_a_multi_level_name_makes_no_heap_calls() {
    let data = prefix().child_index(7).child_index(0);
    let levels: Vec<(Name, FaceId)> = vec![
        (Name::parse_lit("/snapshot"), FaceId(3)),
        (prefix(), FaceId(1)),
        (prefix().child_index(7), FaceId(1)),
        (data.clone(), FaceId(2)),
    ];
    let mut pit = Pit::new();
    let mut faces = Vec::new();
    let fill = |pit: &mut Pit, nonce: u64| {
        for (name, face) in &levels {
            pit.insert(0, *face, &Interest::new(name.clone(), nonce));
        }
    };
    fill(&mut pit, 0);
    pit.consume_into(1, &data, &mut faces);

    fill(&mut pit, 1);
    let n = calls(|| pit.consume_into(1, &data, &mut faces));
    assert_eq!(faces, [FaceId(1), FaceId(2), FaceId(3)]);
    assert!(pit.is_empty());
    assert_eq!(n, 0);
}

#[test]
fn a_miss_under_stale_descendants_makes_no_heap_calls() {
    let mut cs = ContentStore::new(ContentStoreConfig::default());
    for name in objects() {
        cs.insert(0, Data::with_freshness(name, Bytes::from_static(b"x"), FRESH));
    }
    let probe = prefix();
    assert!(cs.lookup(1, &probe).is_some(), "fresh: the leftmost object");

    let n = calls(|| assert!(cs.lookup(FRESH, &probe).is_none()));
    assert_eq!(n, 0);
    assert_eq!((cs.hits(), cs.misses()), (1, 1));
}
