//! Property-based tests for the naming substrate, on the deterministic
//! `gcopss_compat::prop` harness. Strategies generate raw component
//! strings; names are built inside each property so shrinking stays
//! structural.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use gcopss_compat::prop::{self, Strategy};
use gcopss_names::{BloomFilter, Cd, Component, Name, NameTreeBitmap};

const CASES: u32 = 128;

/// Raw name: up to 6 components over a small alphabet.
fn name_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::vec(
        prop::string("abcdefghijklmnopqrstuvwxyz0123456789", 1..=6),
        0..=6,
    )
}

fn name(parts: &[String]) -> Name {
    Name::from_components(
        parts
            .iter()
            .map(|s| Component::new(s.as_str()).expect("valid component")),
    )
}

/// Byte lengths on both sides of `Component::INLINE_LEN` (14).
const LABEL_LENS: [usize; 7] = [1, 13, 14, 15, 16, 17, 40];

/// Raw label: a tail of up to five 1- to 4-byte characters and an index
/// into `LABEL_LENS`. [`label`] pads it to exactly that many bytes, so a
/// multi-byte character can sit across the inline boundary.
fn label_strategy() -> impl Strategy<Value = (String, usize)> {
    (
        prop::string("b0é€😀", 0..=5),
        prop::range(0..LABEL_LENS.len()),
    )
}

fn label((tail, len): &(String, usize)) -> String {
    let len = LABEL_LENS[*len];
    let mut tail = tail.as_str();
    while tail.len() > len {
        tail = &tail[..tail.char_indices().next_back().expect("non-empty").0];
    }
    let label = "a".repeat(len - tail.len()) + tail;
    assert_eq!(label.len(), len);
    label
}

/// Raw name whose labels straddle the inline boundary.
fn wide_name_strategy() -> impl Strategy<Value = Vec<(String, usize)>> {
    prop::vec(label_strategy(), 0..=5)
}

fn wide_labels(raw: &[(String, usize)]) -> Vec<String> {
    raw.iter().map(label).collect()
}

fn std_hash<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[test]
fn parse_display_round_trip() {
    let law = |n: Name| {
        let s = n.to_string();
        let back: Name = s.parse().unwrap();
        assert_eq!(n, back);
    };
    prop::check(0x6f01, CASES, &name_strategy(), |parts| law(name(parts)));
    prop::check(0x6f11, CASES, &wide_name_strategy(), |raw| {
        let labels = wide_labels(raw);
        assert_eq!(name(&labels).to_string(), format!("/{}", labels.join("/")));
        law(name(&labels));
    });
}

#[test]
fn component_behaves_like_its_str_on_both_sides_of_the_inline_limit() {
    prop::check(
        0x6f12,
        4 * CASES,
        &(label_strategy(), label_strategy()),
        |(a, b)| {
            let (a, b) = (label(a), label(b));
            let (ca, cb) = (Component::new(&a).unwrap(), Component::new(&b).unwrap());
            assert_eq!(ca.as_str(), a);
            assert_eq!(ca.as_bytes(), a.as_bytes());
            assert_eq!(ca.to_string(), a);
            assert_eq!(<Component as Borrow<str>>::borrow(&ca), a);
            assert_eq!(ca == cb, a == b);
            assert_eq!(ca.cmp(&cb), a.cmp(&b));
            assert_eq!(std_hash(&ca), std_hash(a.as_str()));
            assert_eq!(ca, ca.clone());
            // `Borrow<str>` in use: both map kinds find a component by its str.
            let tree: BTreeMap<Component, u8> = [(ca.clone(), 1), (cb.clone(), 2)].into();
            let table: HashMap<Component, u8> = [(ca, 1), (cb, 2)].into();
            let expect = if a == b { 2 } else { 1 };
            assert_eq!(tree.get(a.as_str()), Some(&expect));
            assert_eq!(table.get(a.as_str()), Some(&expect));
            assert_eq!(table.get(b.as_str()), Some(&2));
        },
    );
}

#[test]
fn name_orders_like_its_labels_and_hashes_like_its_slice() {
    prop::check(
        0x6f13,
        2 * CASES,
        &(wide_name_strategy(), wide_name_strategy()),
        |(a, b)| {
            let (la, lb) = (wide_labels(a), wide_labels(b));
            let (na, nb) = (name(&la), name(&lb));
            assert_eq!(na.cmp(&nb), la.cmp(&lb));
            assert_eq!(na == nb, la == lb);
            assert_eq!(std_hash(&na), std_hash(na.components()));
            // A map keyed by `Name` answers a borrowed-slice probe for every
            // prefix (how `Pit::consume_into` walks a Data name).
            let by_prefix: HashMap<Name, usize> =
                na.prefixes().map(|p| (p.clone(), p.len())).collect();
            for k in 0..=na.len() {
                assert_eq!(by_prefix.get(&na.components()[..k]), Some(&k));
            }
            // …and for nothing else.
            let common = la.iter().zip(&lb).take_while(|(x, y)| x == y).count();
            for k in 0..=nb.len() {
                assert_eq!(by_prefix.contains_key(&nb.components()[..k]), k <= common);
            }
        },
    );
}

/// Lineage ids, supersede keys and catch-up ledger keys are built from
/// these, and every export fingerprint depends on them: a change of name
/// representation must not move a single value.
#[test]
fn stable_hashes_are_pinned() {
    let golden: [(&str, &[u64]); 5] = [
        ("/", &[0xcbf2_9ce4_8422_2325]),
        (
            "/1/2",
            &[
                0xcbf2_9ce4_8422_2325,
                0x07f8_9907_b4ba_1489,
                0x4b05_6ff1_1ba5_6f6a,
            ],
        ),
        (
            "/snapshot/1/3/obj/7",
            &[
                0xcbf2_9ce4_8422_2325,
                0x99dc_0754_a680_a3e6,
                0xfa33_5834_0390_214e,
                0x1ba5_f59d_a2c0_ff58,
                0x5113_7e36_6f22_a206,
                0xf4a9_0888_c6bf_b284,
            ],
        ),
        (
            "/chunk/0123456789abcdef",
            &[
                0xcbf2_9ce4_8422_2325,
                0x9903_0967_cbe5_6017,
                0x784d_e9e0_602c_400c,
            ],
        ),
        (
            "/é€😀/0123456789abcdé",
            &[
                0xcbf2_9ce4_8422_2325,
                0xdcfc_53ae_b8a4_13ab,
                0x0f65_7280_00ff_47d9,
            ],
        ),
    ];
    for (text, chain) in golden {
        let n = Name::parse_lit(text);
        assert_eq!(n.hash_chain(), chain, "{text}");
        assert_eq!(n.stable_hash(), *chain.last().unwrap(), "{text}");
        assert_eq!(Cd::new(n).hashes().as_slice(), chain, "{text}");
    }
}

#[test]
fn prefix_reflexive_and_antisymmetric() {
    prop::check(
        0x6f02,
        CASES,
        &(name_strategy(), name_strategy()),
        |(a, b)| {
            let (a, b) = (name(a), name(b));
            assert!(a.is_prefix_of(&a));
            if a.is_prefix_of(&b) && b.is_prefix_of(&a) {
                assert_eq!(a, b);
            }
        },
    );
}

#[test]
fn prefix_transitive() {
    prop::check(
        0x6f03,
        CASES,
        &(name_strategy(), name_strategy(), name_strategy()),
        |(a, suffix1, suffix2)| {
            let a = name(a);
            let b = a.join(&name(suffix1));
            let c = b.join(&name(suffix2));
            assert!(a.is_prefix_of(&b));
            assert!(b.is_prefix_of(&c));
            assert!(a.is_prefix_of(&c));
        },
    );
}

#[test]
fn parent_is_strict_prefix() {
    prop::check(0x6f04, CASES, &name_strategy(), |parts| {
        let n = name(parts);
        if let Some(p) = n.parent() {
            assert!(p.is_strict_prefix_of(&n));
            assert_eq!(p.len() + 1, n.len());
        } else {
            assert!(n.is_empty());
        }
    });
}

#[test]
fn hash_chain_consistent_with_prefixes() {
    prop::check(0x6f05, CASES, &name_strategy(), |parts| {
        let n = name(parts);
        let chain = n.hash_chain();
        assert_eq!(chain.len(), n.len() + 1);
        for (i, p) in n.prefixes().enumerate() {
            assert_eq!(chain[i], p.stable_hash());
        }
    });
}

#[test]
fn cd_hashes_match_name_hash_chain() {
    prop::check(0x6f06, CASES, &name_strategy(), |parts| {
        let n = name(parts);
        let cd = Cd::new(n.clone());
        assert_eq!(cd.hashes().as_slice(), &n.hash_chain()[..]);
    });
}

/// Raw (name, value) entries; collecting into a BTreeMap dedups keys, the
/// same shape `prop::collection::btree_map` produced.
fn entries_strategy() -> impl Strategy<Value = Vec<(Vec<String>, u32)>> {
    prop::vec((name_strategy(), prop::range(0u32..=u32::MAX)), 0..=23)
}

fn entry_map(raw: &[(Vec<String>, u32)]) -> BTreeMap<Name, u32> {
    raw.iter().map(|(k, v)| (name(k), *v)).collect()
}

#[test]
fn tree_longest_prefix_matches_naive_scan() {
    prop::check(
        0x6f07,
        CASES,
        &(entries_strategy(), name_strategy()),
        |(raw, probe_parts)| {
            let entries = entry_map(raw);
            let probe = name(probe_parts);
            let tree: NameTreeBitmap<u32> = entries.clone().into_iter().collect();
            let naive = entries
                .iter()
                .filter(|(k, _)| k.is_prefix_of(&probe))
                .max_by_key(|(k, _)| k.len())
                .map(|(k, v)| (k.clone(), *v));
            let got = tree.longest_prefix(&probe).map(|(k, v)| (k, *v));
            assert_eq!(got, naive);
        },
    );
}

#[test]
fn tree_insert_remove_round_trip() {
    prop::check(0x6f08, CASES, &entries_strategy(), |raw| {
        let entries = entry_map(raw);
        let mut tree: NameTreeBitmap<u32> = entries.clone().into_iter().collect();
        assert_eq!(tree.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(tree.get(k), Some(v));
        }
        for (k, v) in &entries {
            assert_eq!(tree.remove(k), Some(*v));
        }
        assert!(tree.is_empty());
    });
}

#[test]
fn tree_descendants_agree_with_filter() {
    prop::check(
        0x6f09,
        CASES,
        &(entries_strategy(), name_strategy()),
        |(raw, prefix_parts)| {
            let entries = entry_map(raw);
            let prefix = name(prefix_parts);
            let tree: NameTreeBitmap<u32> = entries.clone().into_iter().collect();
            let mut naive: Vec<Name> = entries
                .keys()
                .filter(|k| prefix.is_prefix_of(k))
                .cloned()
                .collect();
            naive.sort();
            let got: Vec<Name> = tree
                .descendants(&prefix)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(got, naive);
        },
    );
}

/// The tree-bitmap behaves as a plain sorted map under arbitrary
/// insert/remove churn: every operation, including the hashed lookup
/// variants fed by the precomputed per-level chain, `len()` and
/// `is_empty()` after each op, and the value walks, agrees with a
/// `BTreeMap<Name, u32>` scanned by brute force.
#[test]
fn tree_bitmap_agrees_with_btreemap_model_under_churn() {
    let ops = prop::vec(
        (prop::bools(), name_strategy(), prop::range(0u32..=u32::MAX)),
        0..=31,
    );
    prop::check(
        0x6f0d,
        CASES,
        &(ops, name_strategy()),
        |(ops, probe_parts)| {
            let mut model: BTreeMap<Name, u32> = BTreeMap::new();
            let mut bitmap: NameTreeBitmap<u32> = NameTreeBitmap::new();
            for (insert, parts, v) in ops {
                let k = name(parts);
                if *insert {
                    assert_eq!(model.insert(k.clone(), *v), bitmap.insert(k, *v));
                } else {
                    assert_eq!(model.remove(&k), bitmap.remove(&k));
                }
                assert_eq!(model.len(), bitmap.len());
                assert_eq!(model.is_empty(), bitmap.is_empty());
            }
            // The value walks visit each stored value once, in hash order.
            bitmap.for_each_value_mut(|v| *v = v.wrapping_add(1));
            model.values_mut().for_each(|v| *v = v.wrapping_add(1));
            let mut walked = Vec::new();
            bitmap.for_each_value(|v| walked.push(*v));
            walked.sort_unstable();
            let mut values: Vec<u32> = model.values().copied().collect();
            values.sort_unstable();
            assert_eq!(walked, values, "the value walks diverged from the model");

            let probe = name(probe_parts);
            let chain = probe.hash_chain();
            // Stored prefixes of the probe, shallowest first.
            let ancestors: Vec<(Name, u32)> = (0..=probe.len())
                .map(|level| probe.prefix(level))
                .filter_map(|p| model.get(&p).map(|v| (p, *v)))
                .collect();
            let owned = |(k, v): (Name, &u32)| (k, *v);
            assert_eq!(
                bitmap.longest_prefix(&probe).map(owned),
                ancestors.last().cloned()
            );
            assert_eq!(
                bitmap.longest_prefix_hashed(&probe, &chain).map(owned),
                ancestors.last().cloned()
            );
            assert_eq!(bitmap.get(&probe), model.get(&probe));
            assert_eq!(
                bitmap
                    .all_prefixes(&probe)
                    .into_iter()
                    .map(owned)
                    .collect::<Vec<_>>(),
                ancestors,
                "stored ancestors of {probe} diverged"
            );
            assert_eq!(
                bitmap.prefix_values_hashed(&probe, &chain).count(),
                ancestors.len()
            );

            // `BTreeMap` iterates in `Name` order — the order `descendants`
            // promises.
            let below: Vec<(Name, u32)> = model
                .iter()
                .filter(|(k, _)| probe.is_prefix_of(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(
                bitmap
                    .descendants(&probe)
                    .into_iter()
                    .map(owned)
                    .collect::<Vec<_>>(),
                below,
                "descendant order of {probe} diverged"
            );
        },
    );
}

/// Raw name of 0–4 one- or two-character components over four symbols, so
/// stored names nest, share prefixes and collide on whole components
/// constantly ("1" vs "12" vs "1/2"). Length 0 generates the root name.
fn tricky_name_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::vec(prop::string("ab12", 1..=2), 0..=4)
}

/// The lazy prefix walk yields exactly what the collecting walk it replaced
/// returned — every stored prefix of the probe with its level, shallowest
/// first — with and without the precomputed chain, and stopping early
/// yields a prefix of that list.
#[test]
fn lazy_prefix_walk_equals_collected_result() {
    let entries = prop::vec(
        (tricky_name_strategy(), prop::range(0u32..=u32::MAX)),
        0..=31,
    );
    prop::check(
        0x6f0e,
        CASES,
        &(entries, tricky_name_strategy()),
        |(raw, probe_parts)| {
            let bitmap: NameTreeBitmap<u32> = raw.iter().map(|(k, v)| (name(k), *v)).collect();
            let probe = name(probe_parts);
            let chain = probe.hash_chain();
            let collected: Vec<(usize, u32)> = (0..=probe.len())
                .filter_map(|level| bitmap.get(&probe.prefix(level)).map(|v| (level, *v)))
                .collect();
            let walk = || bitmap.prefix_values(&probe).map(|(l, v)| (l, *v));
            let hashed = || {
                bitmap
                    .prefix_values_hashed(&probe, &chain)
                    .map(|(l, v)| (l, *v))
            };
            assert_eq!(walk().collect::<Vec<_>>(), collected, "probe {probe}");
            assert_eq!(hashed().collect::<Vec<_>>(), collected, "probe {probe}");
            for k in 0..=collected.len() {
                assert_eq!(walk().take(k).collect::<Vec<_>>(), collected[..k]);
                assert_eq!(hashed().take(k).collect::<Vec<_>>(), collected[..k]);
            }
            let deepest = collected.last().map(|&(l, v)| (probe.prefix(l), v));
            assert_eq!(bitmap.longest_prefix(&probe).map(|(p, v)| (p, *v)), deepest);
        },
    );
}

/// The buffer-free walk finds exactly what searching the collected,
/// sorted descendants finds: `first_under(p, pred)` ≡
/// `descendants(p).into_iter().find(pred)`, for predicates that accept
/// nothing, everything, or values by residue.
#[test]
fn first_under_equals_find_over_descendants() {
    let entries = prop::vec(
        (tricky_name_strategy(), prop::range(0u32..=u32::MAX)),
        0..=31,
    );
    let input = (entries, tricky_name_strategy(), prop::range(0u32..6));
    prop::check(0x6f14, CASES, &input, |(raw, prefix_parts, modulus)| {
        let bitmap: NameTreeBitmap<u32> = raw.iter().map(|(k, v)| (name(k), *v)).collect();
        let prefix = name(prefix_parts);
        // 0 accepts nothing, 1 everything, m > 1 a residue class.
        let pred = |v: &u32| *modulus != 0 && v.is_multiple_of(*modulus);
        let want = bitmap
            .descendants(&prefix)
            .into_iter()
            .find(|(_, v)| pred(v))
            .map(|(_, v)| v);
        assert_eq!(bitmap.first_under(&prefix, pred), want, "under {prefix}");
    });
}

#[test]
fn bloom_has_no_false_negatives() {
    prop::check(0x6f0a, CASES, &prop::vec(name_strategy(), 1..=63), |raw| {
        let names: std::collections::BTreeSet<Name> = raw.iter().map(|p| name(p)).collect();
        let mut f = BloomFilter::default();
        for n in &names {
            f.insert(n.stable_hash());
        }
        for n in &names {
            assert!(f.contains(n.stable_hash()));
        }
    });
}
