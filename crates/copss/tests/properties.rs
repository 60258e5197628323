//! Property-based tests for the COPSS layer, on the deterministic
//! `gcopss_compat::prop` harness.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

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

/// The per-face Bloom filters built after arbitrary subscribe/unsubscribe
/// churn admit every face that subscribes to a prefix of the probe (no false
/// negatives), so Bloom-prefiltered forwarding equals exact forwarding.
#[test]
fn bloom_superset_of_exact_under_churn() {
    let input = (
        prop::vec(
            (prop::bools(), prop::range(0u32..6), name_strategy()),
            1..=59,
        ),
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
        // ...every matched face's filter must admit the probe...
        let blooms = st.face_blooms();
        for f in &want {
            assert!(blooms[f].contains_any(cd.hashes().as_slice()));
        }
        // ...so the Bloom-prefiltered path loses no face.
        assert_eq!(
            st.matching_faces_bloom(&blooms, &cd, None, Some(RpId(0))),
            exact
        );
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

/// One randomized Subscription Table op: (kind, face, name, (RPs, again)).
/// The RP list holds 0–4 draws from five trees, so anchor sets cross the
/// table's two-inline limit in both directions; `again` sends the op back to
/// the entry the previous op touched, so joins merge into live sets and
/// leaves meet the joins they retract.
type Op = (u32, u32, Vec<String>, (Vec<u32>, bool));

/// A run of 1–59 ops.
fn churn_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::vec(
        (
            prop::range(0u32..8),
            prop::range(0u32..5),
            tricky_name_strategy(),
            (prop::vec(prop::range(0u32..5), 0..=4), prop::bools()),
        ),
        1..=59,
    )
}

/// The RP trees probed: every tree an op can anchor at.
const TREES: u32 = 5;

/// The plain model of the table: (face, name) → (host anchors, router
/// anchors), each `None` when that provenance never subscribed.
type Model = BTreeMap<(FaceId, Name), (Option<BTreeSet<RpId>>, Option<BTreeSet<RpId>>)>;

/// The RP table a retag reads: deterministic and name-dependent, from no
/// anchor at the root to four at depth four.
fn retag_anchors(n: &Name) -> BTreeSet<RpId> {
    (0..n.len() as u32).map(RpId).collect()
}

/// Applies op `kind` on entry `key` with RPs `rps` to `st` and to `model`,
/// checking what the table returns against the model.
fn apply_op(
    st: &mut SubscriptionTable,
    model: &mut Model,
    kind: u32,
    key: &(FaceId, Name),
    rps: &[u32],
) {
    let (f, nm) = key.clone();
    let set: BTreeSet<RpId> = rps.iter().map(|&r| RpId(r)).collect();
    match kind {
        0..=3 => {
            let auto = kind < 2;
            let created = !model.contains_key(key);
            assert_eq!(
                st.subscribe(f, nm, set.clone(), auto),
                created,
                "subscribe's created"
            );
            let (host, router) = model.entry(key.clone()).or_default();
            let side = if auto { host } else { router };
            side.get_or_insert_with(BTreeSet::new).extend(set);
        }
        4 => {
            let gone = model.remove(key).is_some();
            assert_eq!(
                st.unsubscribe(f, &nm, None),
                gone,
                "untagged unsubscribe's gone"
            );
        }
        5 => {
            // Router leaves, one per RP drawn.
            for r in set {
                let gone = st.unsubscribe(f, &nm, Some(r));
                let Some((host, router)) = model.get_mut(key) else {
                    assert!(!gone, "a leave of an absent entry removed it");
                    continue;
                };
                if let Some(joined) = router {
                    joined.remove(&r);
                    if joined.is_empty() {
                        *router = None;
                    }
                }
                let emptied = host.is_none() && router.is_none();
                if emptied {
                    model.remove(key);
                }
                assert_eq!(gone, emptied, "tagged unsubscribe's gone");
            }
        }
        6 => {
            // RpUpdate settled: host anchors recomputed from the RP table.
            st.retag_auto(retag_anchors);
            for ((_, n), (host, _)) in model.iter_mut() {
                if host.is_some() {
                    *host = Some(retag_anchors(n));
                }
            }
        }
        _ => {
            // The model's keys sort by face, then name: the face's names in
            // name order, as `remove_face` returns them.
            let names: Vec<Name> = model
                .keys()
                .filter(|(mf, _)| *mf == f)
                .map(|(_, n)| n.clone())
                .collect();
            assert_eq!(st.remove_face(f), names, "remove_face's names");
            model.retain(|(mf, _), _| *mf != f);
        }
    }
}

/// The faces `model` forwards `probe` on tree `tree` to, excluding
/// `arrival`: the match rule, read straight off the subscriptions.
fn model_match(
    model: &Model,
    probe: &Name,
    arrival: Option<FaceId>,
    tree: Option<RpId>,
) -> Vec<FaceId> {
    let holds = |side: &Option<BTreeSet<RpId>>, t| side.as_ref().is_some_and(|s| s.contains(&t));
    let mut out: Vec<FaceId> = model
        .iter()
        .filter(|((f, n), _)| Some(*f) != arrival && n.is_prefix_of(probe))
        .filter(|(_, (host, router))| tree.is_none_or(|t| holds(host, t) || holds(router, t)))
        .map(|((f, _), _)| *f)
        .collect();
    out.dedup();
    out
}

/// Tentpole equivalence proof (ISSUE 6): after any sequence of
/// subscribe/unsubscribe/retag/remove-face ops, the tree-bitmap index path
/// is byte-identical to the brute-force scan over every stored name — for
/// every name seen in the run, every tree, every arrival face — and so is
/// the paper-literal Bloom-prefiltered path over the filters built after the
/// churn. All three read the one copy of each subscription the index holds,
/// so each is also checked against a plain model kept in
/// standard sets, as are every op's return value, `len()`, `is_empty()` and
/// `all_subscriptions_tagged()`.
#[test]
fn index_match_identical_to_exact_under_churn() {
    // Some run must grow a router set past two RPs and a leave must shrink
    // it to one or two in place, or the spilled arm went untested.
    let spilled_then_shrank = Cell::new(false);
    // Some `remove_face` must take a face off a name another face keeps, or
    // the index value outliving one of its faces went untested.
    let shared_name_survived = Cell::new(false);
    prop::check(
        0xC0505,
        CASES,
        &(churn_ops(), tricky_name_strategy()),
        |(ops, probe_parts)| {
            let mut st = SubscriptionTable::default();
            let mut model = Model::new();
            let mut last: Option<(FaceId, Name)> = None;
            for (kind, face, parts, (rps, again)) in ops {
                let key = match last.take() {
                    Some(prev) if *again => prev,
                    _ => (FaceId(*face), tricky_name(parts)),
                };
                let router_len = |m: &Model| {
                    m.get(&key)
                        .and_then(|(_, router)| router.as_ref())
                        .map_or(0, BTreeSet::len)
                };
                let before = router_len(&model);
                let shares = |(g, n): &(FaceId, Name)| {
                    *g != key.0 && model.contains_key(&(key.0, n.clone()))
                };
                if *kind >= 7 && model.keys().any(shares) {
                    shared_name_survived.set(true);
                }
                apply_op(&mut st, &mut model, *kind, &key, rps);
                if before > 2 && (1..=2).contains(&router_len(&model)) {
                    spilled_then_shrank.set(true);
                }
                last = Some(key);
            }

            assert_eq!(st.len(), model.len(), "len() diverged from the model");
            assert_eq!(st.is_empty(), model.is_empty(), "is_empty() diverged");
            let mut tagged: BTreeMap<Name, BTreeSet<RpId>> = BTreeMap::new();
            for ((_, n), (host, router)) in &model {
                let union = tagged.entry(n.clone()).or_default();
                union.extend(host.iter().chain(router).flatten());
            }
            assert_eq!(
                st.all_subscriptions_tagged(),
                tagged,
                "all_subscriptions_tagged() diverged from the model"
            );

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
            let blooms = st.face_blooms();
            let trees = std::iter::once(None).chain((0..TREES).map(|t| Some(RpId(t))));
            for probe in &probes {
                let cd = Cd::new(probe.clone());
                for tree in trees.clone() {
                    for arrival in [None, Some(FaceId(0)), Some(FaceId(3))] {
                        let exact = st.matching_faces_exact(&cd, arrival, tree);
                        assert_eq!(
                            exact,
                            model_match(&model, probe, arrival, tree),
                            "exact path diverged from the model at cd={probe} tree={tree:?} arrival={arrival:?}"
                        );
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
                            st.matching_faces_bloom(&blooms, &cd, arrival, tree),
                            exact,
                            "bloom path diverged at cd={probe} tree={tree:?} arrival={arrival:?}"
                        );
                    }
                }
            }
        },
    );
    assert!(
        spilled_then_shrank.get(),
        "no run grew a router set past two RPs and shrank it back in place"
    );
    assert!(
        shared_name_survived.get(),
        "no remove_face left another face on a shared name"
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
