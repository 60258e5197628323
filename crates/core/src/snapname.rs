//! The snapshot plane's name grammar (DESIGN §8.2 *Names*), owned here:
//! every module builds and reads its `/snapshot`, `/snapmani`, `/snapcast`,
//! `/snapcastctl` and `/chunk` names through [`SnapName`].

use gcopss_names::chunk::ChunkId;
use gcopss_names::{Component, Name};

/// One snapshot-plane name, its leaf CD (of any depth) borrowed from the
/// name it was parsed from. `SnapName::parse(&x.name()) == Some(x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapName<'a> {
    /// `/snapshot/<cd>/meta`: the query for a leaf CD's object count.
    Meta {
        /// The leaf CD.
        cd: &'a [Component],
    },
    /// `/snapshot/<cd>/obj/<k>`: the query for a leaf CD's `k`-th object.
    Object {
        /// The leaf CD.
        cd: &'a [Component],
        /// The object's index within the CD.
        k: u32,
    },
    /// `/snapmani/<cd>`: the query for a leaf CD's chunk manifest.
    Manifest {
        /// The leaf CD.
        cd: &'a [Component],
    },
    /// `/snapcast/<cd>`: the COPSS group a broker streams a leaf CD's
    /// objects to while anyone has joined.
    Stream {
        /// The leaf CD.
        cd: &'a [Component],
    },
    /// `/snapcastctl/<cd>/{join,leave}/<nonce>`: a command counting its
    /// sender into a CD's stream or out of it. The nonce makes every
    /// command its own name, so no PIT aggregates it and no Content Store
    /// answers it with a cached ack: each one reaches the broker.
    Command {
        /// The leaf CD.
        cd: &'a [Component],
        /// `join`, or else `leave`.
        join: bool,
        /// The Interest's nonce; its high half is the sending player.
        nonce: u64,
    },
    /// `/chunk/<16 hex>`: one chunk, named by the hash of its bytes.
    Chunk(ChunkId),
}

impl<'a> SnapName<'a> {
    /// Reads `name`, or `None` where the grammar does not cover it; makes
    /// no heap call. Inside `/snapshot`, `meta` is read before `obj/<k>`.
    #[must_use]
    pub fn parse(name: &'a Name) -> Option<Self> {
        let (ns, rest) = name.components().split_first()?;
        match (ns.as_str(), rest) {
            ("snapshot", [cd @ .., last]) if last.as_str() == "meta" => Some(Self::Meta { cd }),
            ("snapshot", [cd @ .., obj, k]) if obj.as_str() == "obj" => {
                let k = k.as_str().parse().ok()?;
                Some(Self::Object { cd, k })
            }
            ("snapmani", cd) => Some(Self::Manifest { cd }),
            ("snapcast", cd) => Some(Self::Stream { cd }),
            ("snapcastctl", [cd @ .., verb, nonce])
                if matches!(verb.as_str(), "join" | "leave") =>
            {
                let (join, nonce) = (verb.as_str() == "join", nonce.as_str().parse().ok()?);
                Some(Self::Command { cd, join, nonce })
            }
            ("chunk", [id]) => ChunkId::from_hex(id.as_str()).map(Self::Chunk),
            _ => None,
        }
    }

    /// The wire name: one heap call for `Meta`, `Object`, `Manifest` and
    /// `Stream`.
    #[must_use]
    pub fn name(&self) -> Name {
        match *self {
            Self::Meta { cd } => scoped("snapshot", cd, [word("meta")]),
            Self::Object { cd, k } => scoped("snapshot", cd, [word("obj"), Component::index(k)]),
            Self::Manifest { cd } => scoped("snapmani", cd, []),
            Self::Stream { cd } => scoped("snapcast", cd, []),
            Self::Command { cd, join, nonce } => {
                let verb = word(if join { "join" } else { "leave" });
                scoped("snapcastctl", cd, [verb, word(nonce.to_string())])
            }
            Self::Chunk(id) => Name::from_components([word("chunk"), word(id.to_hex())]),
        }
    }

    /// The FIB prefix that routes this name to the broker serving its CD:
    /// `/<namespace>/<cd>`, or `/chunk` for any chunk (its name has no CD).
    #[must_use]
    pub fn prefix(&self) -> Name {
        match *self {
            Self::Meta { cd } | Self::Object { cd, .. } => scoped("snapshot", cd, []),
            Self::Manifest { .. } | Self::Stream { .. } => self.name(),
            Self::Command { cd, .. } => scoped("snapcastctl", cd, []),
            Self::Chunk(_) => word("chunk").into(),
        }
    }

    /// The leaf CD this name is about (`None` for a chunk).
    #[must_use]
    pub fn cd(self) -> Option<&'a [Component]> {
        match self {
            Self::Meta { cd }
            | Self::Object { cd, .. }
            | Self::Manifest { cd }
            | Self::Stream { cd }
            | Self::Command { cd, .. } => Some(cd),
            Self::Chunk(_) => None,
        }
    }
}

/// A protocol word or a nonce's digits as a component: inline, so no heap
/// call, up to 14 bytes.
fn word(w: impl AsRef<str>) -> Component {
    Component::new(w).expect("a protocol word is a valid component")
}

/// `/<ns>/<cd…>/<tail…>` in one heap call: the chain knows its exact
/// length, so the name's slice is allocated once at its final size.
fn scoped<const N: usize>(ns: &str, cd: &[Component], tail: [Component; N]) -> Name {
    Name::from_components(
        std::iter::once(word(ns))
            .chain(cd.iter().cloned())
            .chain(tail),
    )
}
