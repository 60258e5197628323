//! Property-based tests for the COPSS layer, on the deterministic
//! `gcopss_compat::prop` harness.

use gcopss_compat::prop::{self, Strategy};
use gcopss_copss::{CopssEngine, RpId, RpTable, SubscriptionTable, TrafficWindow};
use gcopss_names::{Cd, Component, Name};
use gcopss_ndn::FaceId;

const CASES: u32 = 64;

/// Raw name: 1–3 index components drawn from a 4-symbol space, so the
/// generated names overlap and nest heavily.
fn name_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::vec(prop::range(0u32..4), 1..=3)
}

fn name(parts: &[u32]) -> Name {
    Name::from_components(parts.iter().map(|&c| Component::index(c)))
}

/// Bloom-filter forwarding is a superset of exact forwarding (no false
/// negatives) under arbitrary subscribe/unsubscribe churn.
#[test]
fn bloom_superset_of_exact_under_churn() {
    let input = (
        prop::vec((prop::bools(), prop::range(0u32..6), name_strategy()), 1..=59),
        name_strategy(),
    );
    prop::check(0xC0501, CASES, &input, |(ops, probe_parts)| {
        let probe = name(probe_parts);
        let mut st = SubscriptionTable::default();
        let mut model: std::collections::BTreeSet<(u32, Name)> = Default::default();
        let anchor: std::collections::BTreeSet<RpId> = [RpId(0)].into();
        for (sub, face, parts) in ops {
            let n = name(parts);
            if *sub {
                st.subscribe(FaceId(*face), n.clone(), anchor.clone(), true);
                model.insert((*face, n));
            } else if model.remove(&(*face, n.clone())) {
                st.unsubscribe(FaceId(*face), &n, None);
            }
        }
        let cd = Cd::new(probe.clone());
        let exact = st.matching_faces_exact(&cd, None, Some(RpId(0)));
        let bloom = st.matching_faces(&cd, None, Some(RpId(0)));
        // exact must equal the model...
        let want: Vec<FaceId> = {
            let mut v: Vec<FaceId> = model
                .iter()
                .filter(|(_, s)| s.is_prefix_of(&probe))
                .map(|(f, _)| FaceId(*f))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(exact, want);
        // ...and bloom must contain every exact face.
        for f in &exact {
            assert!(bloom.contains(f));
        }
    });
}

/// Raw name over *string* components whose lexicographic order is tricky
/// ("1" < "12" < "2" < "b"), so range-based scans that assume numeric or
/// per-level ordering diverge if wrong. Length 0 generates the root name.
fn tricky_name_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::vec(prop::string("ab12", 1..=2), 0..=4)
}

fn tricky_name(parts: &[String]) -> Name {
    Name::from_components(
        parts
            .iter()
            .map(|s| Component::new(s.as_str()).expect("valid component")),
    )
}

/// One randomized Subscription Table op: (kind, face, name, rp).
fn churn_ops() -> impl Strategy<Value = Vec<(u32, u32, Vec<String>, u32)>> {
    prop::vec(
        (
            prop::range(0u32..8),
            prop::range(0u32..5),
            tricky_name_strategy(),
            prop::range(0u32..3),
        ),
        1..=59,
    )
}

/// Applies one encoded op to `st`.
fn apply_op(st: &mut SubscriptionTable, op: &(u32, u32, Vec<String>, u32)) {
    let (kind, face, parts, rp) = op;
    let f = FaceId(*face);
    let nm = tricky_name(parts);
    let r = RpId(*rp);
    match kind {
        0 | 1 => {
            st.subscribe(f, nm, [r].into(), true);
        }
        2 | 3 => {
            st.subscribe(f, nm, [r].into(), false);
        }
        4 => {
            st.unsubscribe(f, &nm, None);
        }
        5 => {
            st.unsubscribe(f, &nm, Some(r));
        }
        6 => {
            // RpUpdate settled: host anchors recomputed by a name-dependent
            // (deterministic) RP table.
            st.retag_auto(|n| [RpId(n.len() as u32 % 3)].into());
        }
        _ => {
            st.remove_face(f);
        }
    }
}

/// Tentpole equivalence proof (ISSUE 6): after any sequence of
/// subscribe/unsubscribe/retag/remove-face ops, the tree-bitmap index path
/// is byte-identical to the brute-force per-face scan — for every name seen
/// in the run, every tree, every arrival face — and so is the paper-literal
/// Bloom-prefiltered path.
#[test]
fn index_match_identical_to_exact_under_churn() {
    prop::check(
        0xC0505,
        CASES,
        &(churn_ops(), tricky_name_strategy()),
        |(ops, probe_parts)| {
            let mut st = SubscriptionTable::default();
            for op in ops {
                apply_op(&mut st, op);
            }
            let mut probes: Vec<Name> = ops.iter().map(|(_, _, p, _)| tricky_name(p)).collect();
            probes.push(tricky_name(probe_parts));
            // Also probe below each subscribed name (hierarchical match).
            let deeper: Vec<Name> = probes
                .iter()
                .map(|p| p.child(Component::new("x").unwrap()))
                .collect();
            probes.extend(deeper);
            // The forwarder's buffer, reused across every probe and dirty on
            // first use: the in-place matcher must replace, not append.
            let mut reused = vec![FaceId(77), FaceId(3), FaceId(77)];
            for probe in &probes {
                let cd = Cd::new(probe.clone());
                for tree in [None, Some(RpId(0)), Some(RpId(1)), Some(RpId(2))] {
                    for arrival in [None, Some(FaceId(0)), Some(FaceId(3))] {
                        let exact = st.matching_faces_exact(&cd, arrival, tree);
                        assert_eq!(
                            st.matching_faces(&cd, arrival, tree),
                            exact,
                            "index path diverged at cd={probe} tree={tree:?} arrival={arrival:?}"
                        );
                        st.matching_faces_into(&cd, arrival, tree, &mut reused);
                        assert_eq!(
                            reused, exact,
                            "in-place path diverged at cd={probe} tree={tree:?} arrival={arrival:?}"
                        );
                        assert_eq!(
                            st.matching_faces_bloom(&cd, arrival, tree),
                            exact,
                            "bloom path diverged at cd={probe} tree={tree:?} arrival={arrival:?}"
                        );
                    }
                }
            }
        },
    );
}

/// The RP table stays prefix-free under random valid assignment and
/// splitting, and publication coverage is unique.
#[test]
fn rp_table_invariants() {
    let input = (
        prop::vec(name_strategy(), 1..=11),
        prop::vec(name_strategy(), 1..=7),
    );
    prop::check(0xC0502, CASES, &input, |(raw_prefixes, raw_probes)| {
        let prefixes: std::collections::BTreeSet<Name> =
            raw_prefixes.iter().map(|p| name(p)).collect();
        let mut t = RpTable::new();
        let mut accepted = 0u32;
        for (i, p) in prefixes.iter().enumerate() {
            if t.assign(p.clone(), RpId(i as u32)).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted > 0);
        assert!(t.is_prefix_free());
        for raw in raw_probes {
            let probe = name(raw);
            // At most one served prefix covers the probe.
            let covering: Vec<_> = t
                .assignments()
                .into_iter()
                .filter(|(p, _)| p.is_prefix_of(&probe))
                .collect();
            assert!(covering.len() <= 1);
            assert_eq!(t.rp_for(&probe), covering.first().map(|(_, rp)| *rp));
        }
    });
}

/// After any sequence of subscriptions, reconcile() is a fixpoint and
/// the joined set covers exactly the subscribed names per overlapping RP.
#[test]
fn reconcile_reaches_fixpoint() {
    let input = prop::vec((prop::range(0u32..5), name_strategy()), 1..=19);
    prop::check(0xC0503, CASES, &input, |subs| {
        let mut e = CopssEngine::new();
        e.rp_table_mut().assign(Name::root(), RpId(0)).unwrap();
        for (f, parts) in subs {
            e.handle_subscribe(FaceId(*f), &[name(parts)], None);
        }
        let (j, p) = e.reconcile();
        assert!(j.is_empty());
        assert!(p.is_empty());
        // Every subscribed name is covered by some join.
        let joined = e.joined_toward(RpId(0));
        for (_, parts) in subs {
            let n = name(parts);
            assert!(
                joined.iter().any(|jn| jn.is_prefix_of(&n)),
                "subscription {} not covered by joins {:?}",
                n,
                joined
            );
        }
        // Joins are minimal: none covers another.
        for a in &joined {
            for b in &joined {
                assert!(!(a != b && a.is_strict_prefix_of(b)));
            }
        }
    });
}

/// Splitting a traffic window always produces two disjoint, non-empty,
/// prefix-free sides that jointly cover all observed traffic.
#[test]
fn split_plan_partitions_load() {
    let input = prop::vec(name_strategy(), 2..=79);
    prop::check(0xC0504, CASES, &input, |raw_cds| {
        let cds: Vec<Name> = raw_cds.iter().map(|p| name(p)).collect();
        let mut w = TrafficWindow::new(128);
        for cd in &cds {
            w.record(cd.clone());
        }
        if let Some(plan) = w.plan_split(&[Name::root()], 0.5, |_| true) {
            assert!(!plan.moved.is_empty());
            assert!(!plan.retained.is_empty());
            let mut all = plan.moved.clone();
            all.extend(plan.retained.clone());
            // Pairwise prefix-free.
            for (i, a) in all.iter().enumerate() {
                for b in all.iter().skip(i + 1) {
                    assert!(!a.is_prefix_of(b) && !b.is_prefix_of(a));
                }
            }
            // Every observed CD is covered by exactly one side.
            for cd in &cds {
                let m = plan.moved.iter().filter(|p| p.is_prefix_of(cd)).count();
                let r = plan.retained.iter().filter(|p| p.is_prefix_of(cd)).count();
                assert_eq!(m + r, 1, "cd {} covered {}+{} times", cd, m, r);
            }
        }
    });
}
