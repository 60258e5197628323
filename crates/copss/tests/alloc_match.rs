//! Allocation regression: the two table lookups on the forwarding path —
//! the ST match into a warm caller-owned buffer and the FIB longest-prefix
//! match — never call the allocator (DESIGN.md, "Allocation discipline");
//! an RP traffic window costs nothing until it records.

use gcopss_copss::{RpId, SubscriptionTable, TrafficWindow};
use gcopss_names::{Cd, Name};
use gcopss_ndn::{FaceId, Fib};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// `/r/z` for `r, z < 8`, plus each region `/r` and the root: a three-level
/// hierarchy, so every probe below matches at several depths.
fn names() -> Vec<Name> {
    let mut out = vec![Name::root()];
    for r in 0..8 {
        let region = Name::root().child_index(r);
        out.extend((0..8).map(|z| region.child_index(z)));
        out.push(region);
    }
    out
}

#[test]
fn warm_st_match_and_fib_lookup_make_no_heap_calls() {
    let mut st = SubscriptionTable::default();
    let mut fib = Fib::new();
    for (i, name) in names().into_iter().enumerate() {
        let face = FaceId(i as u32 % 16);
        st.subscribe(face, name.clone(), [RpId(i as u32 % 2)].into(), i % 3 == 0);
        fib.add(name, face);
    }
    let probes: Vec<Cd> = (0..8)
        .flat_map(|r| (0..8).map(move |z| (r, z)))
        .map(|(r, z)| Cd::new(Name::root().child_index(r).child_index(z).child_index(9)))
        .collect();

    // Warm the buffer to the largest result it will hold.
    let mut faces = Vec::new();
    for cd in &probes {
        st.matching_faces_into(cd, None, None, &mut faces);
    }

    let before = counting_alloc::heap_calls();
    let mut matched = 0usize;
    let mut routed = 0usize;
    for cd in &probes {
        for tree in [None, Some(RpId(0)), Some(RpId(1))] {
            st.matching_faces_into(cd, Some(FaceId(3)), tree, &mut faces);
            matched += faces.len();
        }
        routed += fib.lookup(cd.name()).map_or(0, <[FaceId]>::len);
        routed += fib
            .lookup_hashed(cd.name(), cd.hashes().as_slice())
            .map_or(0, <[FaceId]>::len);
    }
    let calls = counting_alloc::heap_calls() - before;

    assert!(matched > probes.len() && routed >= 2 * probes.len());
    assert_eq!(
        calls,
        0,
        "{calls} heap calls over {} warm lookups",
        probes.len() * 5
    );
}

/// Heap calls `f` makes on this thread.
fn calls_of(f: impl FnOnce()) -> u64 {
    let before = counting_alloc::heap_calls();
    f();
    counting_alloc::heap_calls() - before
}

/// What a subscription costs the table, in allocator calls. Anchor sets of
/// up to two RPs live inline in their entry, and a name with one face holds
/// it in a one-slot vector, so the costs are those of the name, not of the
/// sets around it. Each RP set is built before its measurement: the caller
/// pays for that, and the table moves it in.
#[test]
fn subscription_costs_are_pinned() {
    let mut st = SubscriptionTable::default();
    for (i, name) in names().into_iter().enumerate() {
        st.subscribe(FaceId(i as u32 % 16), name, [RpId(0)].into(), true);
    }
    let two = || -> std::collections::BTreeSet<RpId> { [RpId(0), RpId(1)].into() };
    let fresh = Name::root().child_index(3).child_index(5).child_index(9);

    let rps = two();
    let new_name = calls_of(|| {
        assert!(st.subscribe(FaceId(1), fresh.clone(), rps, true));
    });
    // Two for the name's node in the index trie, one for its face vector.
    assert_eq!(new_name, 3, "a host subscription to a new name");

    // A face the table has never seen costs no more: it brings only a name
    // count, which fits a leaf of the face map.
    let rps = two();
    let newcomer = Name::root().child_index(3).child_index(6).child_index(9);
    let new_face = calls_of(|| {
        assert!(st.subscribe(FaceId(16), newcomer, rps, true));
    });
    assert_eq!(new_face, 3, "a new name through a face never seen");

    let rps = two();
    let again = calls_of(|| {
        assert!(!st.subscribe(FaceId(1), fresh.clone(), rps, true));
    });
    assert_eq!(again, 0, "re-subscribing the same (face, name, RPs)");

    // A router join beside the host entry, then its tagged leave: the entry
    // lives on through its host anchors.
    st.subscribe(FaceId(1), fresh.clone(), [RpId(4)].into(), false);
    let leave = calls_of(|| {
        assert!(!st.unsubscribe(FaceId(1), &fresh, Some(RpId(4))));
    });
    assert_eq!(leave, 0, "a tagged unsubscribe that leaves the entry alive");

    // The same past two RPs: a spilled set shrinks back inline for free, and
    // an unchanged re-subscribe reuses the index copy's buffer.
    let three: std::collections::BTreeSet<RpId> = [RpId(5), RpId(6), RpId(7)].into();
    st.subscribe(FaceId(1), fresh.clone(), three.clone(), false);
    let spilled_again = calls_of(|| {
        st.subscribe(FaceId(1), fresh.clone(), three, false);
    });
    assert_eq!(spilled_again, 0, "re-subscribing a spilled set");
    let shrink = calls_of(|| {
        assert!(!st.unsubscribe(FaceId(1), &fresh, Some(RpId(6))));
    });
    assert_eq!(shrink, 0, "a tagged unsubscribe that shrinks a spilled set");

    let rps = two();
    let second_face = calls_of(|| {
        assert!(st.subscribe(FaceId(2), fresh.clone(), rps, true));
    });
    assert!(
        second_face <= 1,
        "a second face on an existing name: {second_face} calls"
    );

    let cd = Cd::new(fresh.child_index(0));
    assert_eq!(st.matching_faces(&cd, None, Some(RpId(7))), vec![FaceId(1)]);
    assert!(st.matching_faces(&cd, None, Some(RpId(6))).is_empty());
    assert_eq!(
        st.matching_faces(&cd, None, Some(RpId(1))),
        vec![FaceId(1), FaceId(2)]
    );
}

/// The table's walks over its index hand out the names they store and
/// build none: a retag pays only for the sets its caller's closure returns,
/// and a face going down only for the vector of names it returns.
#[test]
fn index_walks_build_no_names() {
    let mut st = SubscriptionTable::default();
    let mut hosts = 0;
    for (i, name) in names().into_iter().enumerate() {
        let auto = i % 3 != 0;
        if st.subscribe(FaceId(i as u32 % 4), name, [RpId(0)].into(), auto) && auto {
            hosts += 1;
        }
    }
    // Face 7 holds 16 names: eight it shares with another face, eight of
    // its own.
    let shared = names().into_iter().take(8);
    let own = (0..8).map(|z| Name::root().child_index(9).child_index(z));
    for name in shared.chain(own) {
        st.subscribe(FaceId(7), name, [RpId(0)].into(), false);
    }
    assert_eq!(st.len(), names().len() + 16);

    let retag = calls_of(|| st.retag_auto(|_| [RpId(1), RpId(2)].into()));
    assert_eq!(retag, hosts, "a retag over {hosts} host entries");

    let mut purged = Vec::new();
    let down = calls_of(|| purged = st.remove_face(FaceId(7)));
    assert_eq!(purged.len(), 16);
    assert_eq!(down, 1, "a face holding 16 names going down");
    assert_eq!(st.len(), names().len());
    assert_eq!(
        calls_of(|| assert!(st.remove_face(FaceId(7)).is_empty())),
        0
    );
}

/// Every router holds a §IV-B traffic window but only an RP records into
/// one, so a window allocates nothing until its first packet, which
/// reserves the whole window at once: three windows' worth of packets cost
/// that one reservation plus the count map's one node.
#[test]
fn a_traffic_window_reserves_once_on_first_record() {
    let mut w = None;
    assert_eq!(calls_of(|| w = Some(TrafficWindow::new(2_000))), 0, "new");
    let mut w = w.unwrap();
    let cd = Name::root().child_index(1).child_index(2);
    let first = calls_of(|| w.record(cd.clone()));
    assert_eq!(
        first, 2,
        "the window's reservation and the count map's node"
    );
    let rest = calls_of(|| (1..3 * 2_000).for_each(|_| w.record(cd.clone())));
    assert_eq!(rest, 0, "{rest} heap calls once the window is reserved");
}
