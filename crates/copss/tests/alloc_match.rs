//! Allocation regression: the two table lookups on the forwarding path —
//! the ST match into a warm caller-owned buffer and the FIB longest-prefix
//! match — never call the allocator (DESIGN.md, "Allocation discipline").

use gcopss_copss::{RpId, SubscriptionTable};
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
