//! Integration tests of the NDN engine pipeline: multi-hop chains of
//! engines, cache interaction, and PIT expiry under load.

use gcopss_compat::bytes::Bytes;
use gcopss_ndn::{ContentStoreConfig, Data, FaceId, Interest, NdnAction, NdnEngine};
use gcopss_names::Name;

/// A chain of engines r0 - r1 - r2, consumer behind r0, producer behind r2.
/// Face convention per router: 0 = downstream, 1 = upstream.
fn chain() -> Vec<NdnEngine> {
    (0..3)
        .map(|_| {
            let mut e = NdnEngine::new(ContentStoreConfig::default());
            e.fib_mut().add(Name::parse_lit("/p"), FaceId(1));
            e
        })
        .collect()
}

/// Pushes an interest up the chain and the data back down, hop by hop.
fn fetch(chain: &mut [NdnEngine], name: &str, nonce: u64, now: u64) -> bool {
    let mut pkt = Interest::new(Name::parse_lit(name), nonce);
    let mut reached_producer = false;
    let len = chain.len();
    for i in 0..len {
        let actions = chain[i].process_interest(now, FaceId(0), pkt.clone());
        match actions.first().cloned() {
            Some(NdnAction::SendInterest { interest, .. }) => pkt = interest,
            Some(NdnAction::SendData { data, .. }) => {
                // Cache hit part-way: send the data back down.
                let mut d = data;
                for j in (0..i).rev() {
                    let acts = chain[j].process_data(now, FaceId(1), d.clone());
                    match acts.first() {
                        Some(NdnAction::SendData { data, .. }) => d = data.clone(),
                        _ => return true, // consumer reached below r0
                    }
                }
                return true;
            }
            _ => return false,
        }
        if i == len - 1 {
            reached_producer = true;
        }
    }
    if reached_producer {
        // Producer answers; data flows back down the chain.
        let mut d = Data::new(pkt.name.clone(), Bytes::from_static(b"content"));
        for e in chain.iter_mut().rev() {
            let acts = e.process_data(now, FaceId(1), d.clone());
            match acts.first() {
                Some(NdnAction::SendData { data, .. }) => d = data.clone(),
                _ => return false,
            }
        }
        return true;
    }
    false
}

#[test]
fn multi_hop_fetch_and_cache() {
    let mut c = chain();
    assert!(fetch(&mut c, "/p/seg0", 1, 0));
    // Every router on the path cached the data: a second fetch for the
    // same name is served by r0's content store without touching r1/r2.
    let before_r1 = c[1].pit().len();
    let acts = c[0].process_interest(10, FaceId(0), Interest::new(Name::parse_lit("/p/seg0"), 2));
    assert!(matches!(acts.first(), Some(NdnAction::SendData { .. })));
    assert_eq!(c[1].pit().len(), before_r1, "upstream untouched");
    assert_eq!(c[0].content_store().hits(), 1);
}

#[test]
fn distinct_names_travel_independently() {
    let mut c = chain();
    for k in 0..5u64 {
        assert!(fetch(&mut c, &format!("/p/seg{k}"), 100 + k, k));
    }
    assert_eq!(c[0].content_store().hits(), 0);
    assert!(c[0].content_store().len() >= 5);
}

#[test]
fn pit_expiry_under_unanswered_load() {
    let mut e = NdnEngine::new(ContentStoreConfig::default());
    e.fib_mut().add(Name::parse_lit("/p"), FaceId(1));
    for k in 0..50u64 {
        let i = Interest::with_lifetime(Name::parse_lit(&format!("/p/{k}")), k, 1_000);
        e.process_interest(0, FaceId(0), i);
    }
    assert_eq!(e.pit().len(), 50);
    assert_eq!(e.pit_mut().expire(500), 0, "still alive");
    assert_eq!(e.pit_mut().expire(2_000), 50, "all lapsed");
    assert_eq!(e.pit().len(), 0);
}

#[test]
fn zero_capacity_store_never_caches() {
    let mut e = NdnEngine::new(ContentStoreConfig { capacity: 0 });
    e.fib_mut().add(Name::parse_lit("/p"), FaceId(1));
    e.process_interest(0, FaceId(0), Interest::new(Name::parse_lit("/p/x"), 1));
    e.process_data(1, FaceId(1), Data::new(Name::parse_lit("/p/x"), Bytes::new()));
    // A repeat interest is forwarded again, not served from cache.
    let acts = e.process_interest(2, FaceId(0), Interest::new(Name::parse_lit("/p/x"), 2));
    assert!(matches!(acts.first(), Some(NdnAction::SendInterest { .. })));
}
