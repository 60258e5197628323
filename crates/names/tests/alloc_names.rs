//! Allocation regression for the name representation (DESIGN.md §3.1,
//! "Allocation discipline"): copying a `Name` or a `Component` never calls
//! the allocator, and a derived name costs exactly one call.

use gcopss_names::{Component, Name};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Heap calls `f` makes; its result is dropped after the count is read.
fn calls<T>(f: impl FnOnce() -> T) -> u64 {
    let before = counting_alloc::heap_calls();
    let out = f();
    let n = counting_alloc::heap_calls() - before;
    drop(std::hint::black_box(out));
    n
}

#[test]
fn handles_are_sixteen_bytes() {
    assert_eq!(std::mem::size_of::<Component>(), 16);
    // A `Vec` handle is 24.
    assert_eq!(std::mem::size_of::<Name>(), 16);
    assert_eq!(std::mem::size_of::<Option<Name>>(), 24);
}

#[test]
fn copies_and_short_labels_make_no_heap_call() {
    let name = Name::parse_lit("/snapshot/1/3/obj/7");
    let spilled = Component::new("0123456789abcdef").unwrap();
    let longest_inline = "0123456789abcd";
    assert_eq!(longest_inline.len(), Component::INLINE_LEN);

    assert_eq!(calls(|| name.clone()), 0);
    assert_eq!(calls(|| name.prefix(name.len())), 0);
    assert_eq!(calls(|| name.join(&Name::root())), 0);
    assert_eq!(calls(|| Name::root().join(&name)), 0);
    assert_eq!(calls(|| name.prefix(0)), 0);
    assert_eq!(calls(|| name.last().cloned()), 0);
    assert_eq!(calls(|| spilled.clone()), 0);
    assert_eq!(calls(|| Component::index(u32::MAX)), 0);
    assert_eq!(calls(Component::own_area), 0);
    assert_eq!(calls(|| Component::new(longest_inline)), 0);
    // One byte more spills: the string and the shared pointer to it.
    assert_eq!(calls(|| Component::new("0123456789abcde")), 2);
}

#[test]
fn a_derived_name_is_one_heap_call() {
    let name = Name::parse_lit("/snapshot/1/3/obj/7");
    let suffix = Name::parse_lit("/a/b");

    assert_eq!(calls(|| name.child_index(u32::MAX)), 1);
    assert_eq!(calls(|| name.own_area()), 1);
    assert_eq!(calls(|| Name::root().child_index(1)), 1);
    for k in 1..name.len() {
        assert_eq!(calls(|| name.prefix(k)), 1, "prefix({k})");
    }
    assert_eq!(calls(|| name.parent()), 1);
    assert_eq!(calls(|| name.join(&suffix)), 1);
    assert_eq!(calls(|| Name::from(Component::index(7))), 1);
    assert_eq!(
        calls(|| Name::from_components([Component::index(1), Component::index(2)])),
        1
    );
    // Every prefix but the root (no slice) and the name itself (a clone).
    assert_eq!(calls(|| name.prefixes().count()), name.len() as u64 - 1);
}

#[test]
fn parsing_is_at_most_two_heap_calls_at_any_depth() {
    assert_eq!(calls(|| "/".parse::<Name>()), 0);
    for text in ["/1", "/1/2/3/4", "/a/b/c/d/e/f/g/h/i/j/k/l/m/n/o/p/q"] {
        let n = calls(|| text.parse::<Name>());
        assert!((1..=2).contains(&n), "{n} calls to parse {text}");
    }
}
