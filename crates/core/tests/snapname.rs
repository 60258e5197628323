//! The snapshot plane's name grammar (`gcopss_core::SnapName`): every value
//! survives a trip through its wire name, names outside the grammar read as
//! `None`, and the wire names are the ones the brokers and clients have
//! always exchanged.

use std::cell::Cell;

use gcopss_compat::prop;
use gcopss_core::SnapName;
use gcopss_names::chunk::ChunkId;
use gcopss_names::{Component, Name};

/// CD labels: digits, plus the letters of every protocol word, so a
/// generated CD may itself contain `meta`, `obj`, `join` or `leave`; up to
/// 16 bytes, so some labels spill past the 14-byte inline limit.
const LABELS: &str = "0123456789abcehijlmnortv";

/// Names the grammar does not cover.
const NOT_SNAPSHOT_PLANE: [&str; 6] = [
    "/chunk/nothex",
    "/snapshot/1/2/obj/x",
    "/snapcastctl/1/2/bogus/7",
    "/snapcastctl/1/join",
    "/rp/0",
    "/player/3/1",
];

#[test]
fn every_snap_name_round_trips_through_its_wire_name() {
    let input = (
        prop::range(0u8..6),
        prop::vec(prop::string(LABELS, 1..=16), 0..=3),
        (prop::range(0u32..=u32::MAX), prop::bools()),
        (prop::range(1u32..=20), prop::range(0u64..=u64::MAX)),
    );
    let (inline_nonces, spilled_nonces) = (Cell::new(0u32), Cell::new(0u32));
    prop::check(
        0x5a4e,
        512,
        &input,
        |(variant, labels, (k, join), (digits, raw))| {
            let cd: Vec<Component> = labels.iter().map(|l| Component::new(l).unwrap()).collect();
            let cd = cd.as_slice();
            // A nonce of exactly `digits` decimal digits at most.
            let nonce = 10u64.checked_pow(*digits).map_or(*raw, |m| raw % m);
            let x = match variant {
                0 => SnapName::Meta { cd },
                1 => SnapName::Object { cd, k: *k },
                2 => SnapName::Manifest { cd },
                3 => SnapName::Stream { cd },
                4 => {
                    let long = nonce.to_string().len() > Component::INLINE_LEN;
                    let seen = if long {
                        &spilled_nonces
                    } else {
                        &inline_nonces
                    };
                    seen.set(seen.get() + 1);
                    SnapName::Command {
                        cd,
                        join: *join,
                        nonce,
                    }
                }
                _ => SnapName::Chunk(ChunkId(*raw)),
            };
            let name = x.name();
            assert_eq!(SnapName::parse(&name), Some(x), "{name}");
            assert!(
                x.prefix().is_prefix_of(&name),
                "{name} is under {}",
                x.prefix()
            );
        },
    );
    assert!(inline_nonces.get() > 0 && spilled_nonces.get() > 0);

    for text in NOT_SNAPSHOT_PLANE {
        assert_eq!(SnapName::parse(&Name::parse_lit(text)), None, "{text}");
    }
}

/// The wire names and FIB prefixes, spelled out: what `SnapName` builds is
/// byte for byte what brokers and clients exchanged before it existed.
#[test]
fn wire_names_are_the_established_ones() {
    let cd = Name::parse_lit("/1/2");
    let cd = cd.components();
    let id = ChunkId::of(b"some chunk");
    let cases = [
        (SnapName::Meta { cd }, "/snapshot/1/2/meta", "/snapshot/1/2"),
        (
            SnapName::Object { cd, k: 17 },
            "/snapshot/1/2/obj/17",
            "/snapshot/1/2",
        ),
        (SnapName::Manifest { cd }, "/snapmani/1/2", "/snapmani/1/2"),
        (SnapName::Stream { cd }, "/snapcast/1/2", "/snapcast/1/2"),
        (
            SnapName::Command {
                cd,
                join: true,
                nonce: 4_294_967_297,
            },
            "/snapcastctl/1/2/join/4294967297",
            "/snapcastctl/1/2",
        ),
        (
            SnapName::Command {
                cd,
                join: false,
                nonce: 7,
            },
            "/snapcastctl/1/2/leave/7",
            "/snapcastctl/1/2",
        ),
    ];
    for (x, name, prefix) in cases {
        assert_eq!(x.name(), Name::parse_lit(name));
        assert_eq!(x.prefix(), Name::parse_lit(prefix));
    }
    let chunk = SnapName::Chunk(id);
    assert_eq!(
        chunk.name(),
        Name::parse_lit(&format!("/chunk/{}", id.to_hex()))
    );
    assert_eq!(chunk.prefix(), Name::parse_lit("/chunk"));
    assert_eq!(
        SnapName::Stream { cd: &[] }.name(),
        Name::parse_lit("/snapcast")
    );

    // Inside `/snapshot`, `meta` is read before an `obj/<k>` tail.
    let both = Name::parse_lit("/snapshot/1/obj/meta");
    let cd = Name::parse_lit("/1/obj");
    assert_eq!(
        SnapName::parse(&both),
        Some(SnapName::Meta {
            cd: cd.components()
        })
    );
}
