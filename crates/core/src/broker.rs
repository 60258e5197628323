//! Snapshot brokers and player movement (§IV-A, Table III).
//!
//! When a player moves into a new sub-world it must obtain the current
//! snapshot of the areas that just became visible. G-COPSS uses a
//! decentralized set of *brokers*, each subscribing to the leaf CDs of its
//! serving area and maintaining up-to-date object snapshots. Two retrieval
//! modes are evaluated:
//!
//! * **Query/response (QR)**: the mover queries `/snapshot/<cd>/…` with NDN
//!   Interests, pipelining a window of outstanding queries (Table III uses
//!   windows of 5 and 15); each Data carries one object.
//! * **Cyclic multicast**: the mover subscribes to `/snapcast/<cd>`; the
//!   broker, as the group's only publisher, multicasts the area's objects
//!   round-robin from the first join until the last leave, so simultaneous
//!   movers share one stream.
//!
//! Modeling notes (documented deviations):
//! * The "first Subscribe / last Unsubscribe" signal that starts/stops a
//!   cyclic stream is carried by explicit
//!   `/snapcastctl/<cd>/{join,leave}/<nonce>` command Interests addressed to
//!   the broker (in COPSS the Subscribe itself would reach the broker's
//!   first-hop router).
//! * Update events keep following the trace's static placement while a
//!   player moves; movement drives subscriptions and snapshot retrieval.
//!   Convergence time depends on object counts/sizes, which the trace's
//!   updates fully determine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gcopss_compat::bytes::Bytes;
use gcopss_copss::{CopssPacket, MulticastPacket};
use gcopss_game::trace::TraceEvent;
use gcopss_game::{GameMap, ObjectId, ObjectModel};
use gcopss_names::chunk::{ChunkId, ChunkStore, Chunker, Manifest};
use gcopss_names::{Cd, Component, Name};
use gcopss_ndn::Data;
use gcopss_sim::{Ctx, NodeBehavior, NodeId, SimDuration};

use crate::client::DedupWindow;
use crate::params::{adaptive_cache, BROKER_PER_OBJECT, CYCLIC_GAP};
use crate::router::cs_prefix_key;
use crate::scenario::ExtraHost;
use crate::{payload_of, GPacket, GameWorld, SimParams};

/// The QR namespace: `/snapshot/<cd>/meta`, `/snapshot/<cd>/obj/<k>`.
pub(crate) const SNAPSHOT: &str = "snapshot";
/// The cyclic-multicast group namespace: `/snapcast/<cd>`.
pub(crate) const SNAPCAST: &str = "snapcast";
/// The join/leave control namespace: `/snapcastctl/<cd>/<verb>/<nonce>`.
pub(crate) const SNAPCASTCTL: &str = "snapcastctl";
/// The per-CD snapshot-manifest namespace (content-addressed delta
/// distribution): `/snapmani/<cd>`.
pub(crate) const SNAPMANI: &str = "snapmani";
/// The content-addressed chunk namespace: `/chunk/<16-hex>`.
const CHUNK: &str = "chunk";

/// A protocol word (`snapshot`, `meta`, `join`, a nonce's digits) as a
/// component. Words of at most 14 bytes are stored inline: no heap call.
pub(crate) fn word(w: impl AsRef<str>) -> Component {
    Component::new(w).expect("a protocol word is a valid component")
}

/// `/<ns>/<cd…>/<tail…>` built in one heap call — the name a client or
/// broker puts on a packet, so it is not assembled from a parsed literal
/// and a `join` and a `child` per component.
pub(crate) fn scoped<const N: usize>(ns: &str, cd: &Name, tail: [Component; N]) -> Name {
    Name::from_components(
        std::iter::once(word(ns))
            .chain(cd.components().iter().cloned())
            .chain(tail),
    )
}

/// The `/snapcast` cyclic-multicast namespace root.
#[must_use]
pub fn snapcast_ns() -> Name {
    word(SNAPCAST).into()
}

/// The NDN name of one chunk: `/chunk/<16-hex-digit id>`. Chunk names embed
/// the hash of their bytes, so router Content Stores caching by name
/// automatically dedup identical content across CDs.
#[must_use]
pub fn chunk_name(id: ChunkId) -> Name {
    Name::from_components([word(CHUNK), word(id.to_hex())])
}

/// Parses a [`chunk_name`] back into its id.
#[must_use]
pub fn parse_chunk_name(name: &Name) -> Option<ChunkId> {
    let comps = name.components();
    if comps.len() != 2 || comps[0].as_str() != CHUNK {
        return None;
    }
    ChunkId::from_hex(comps[1].as_str())
}

/// Bytes an update is allowed to rewrite inside an object's snapshot. Game
/// updates mutate a few fields (position, health), not the whole object, so
/// the synthetic content must keep most bytes stable across versions or
/// chunk-level delta sync would have nothing to dedup.
const OBJECT_DIRTY_WINDOW: usize = 64;

/// Deterministic synthetic content of one object's snapshot, `len` bytes
/// long: a stable FNV-1a base stream keyed by the object id alone, with a
/// small `OBJECT_DIRTY_WINDOW`-byte region (at a version-keyed offset)
/// rewritten per version. Unchanged objects reproduce identical bytes on
/// every call, a growing object extends its tail without disturbing earlier
/// bytes, and an update perturbs only a field-sized window — so
/// content-defined chunks away from the touched fields keep their ids.
#[must_use]
pub fn object_content(obj: ObjectId, version: u64, len: usize) -> Vec<u8> {
    let seed = gcopss_names::fnv1a(&u64::from(obj.0).to_le_bytes());
    let mut out = Vec::with_capacity(len);
    let mut h = seed;
    for i in 0..len {
        h = gcopss_names::fnv1a(&(h ^ i as u64).to_le_bytes());
        out.push((h >> 24) as u8);
    }
    if version > 0 && len > 0 {
        let w = OBJECT_DIRTY_WINDOW.min(len);
        let span = (len - w + 1) as u64;
        let vkey = gcopss_names::fnv1a_extend(seed, &version.to_le_bytes());
        let start = (vkey % span) as usize;
        let mut h = gcopss_names::fnv1a_extend(vkey, b"dirty");
        for b in &mut out[start..start + w] {
            h = gcopss_names::fnv1a(&h.to_le_bytes());
            *b = (h >> 24) as u8;
        }
    }
    out
}

/// The full snapshot blob of one leaf CD (concatenated object contents,
/// pristine objects omitted) and its *epoch* — the sum of the CD's object
/// versions, strictly monotonic under updates, so equal epochs imply equal
/// blobs.
#[must_use]
pub fn cd_snapshot_content(objects: &ObjectModel, cd: &Name) -> (u64, Vec<u8>) {
    let mut epoch = 0u64;
    let mut blob = Vec::new();
    for &o in objects.objects_in(cd) {
        let st = objects.state(o);
        epoch += st.version;
        let len = st.snapshot_bytes() as usize;
        if len > 0 {
            blob.extend_from_slice(&object_content(o, st.version, len));
        }
    }
    (epoch, blob)
}

/// How a moving player retrieves snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// NDN query/response with a pipelining window.
    QueryResponse {
        /// Maximum outstanding object queries.
        window: u32,
    },
    /// Cyclic multicast groups.
    CyclicMulticast,
}

/// A snapshot broker host: subscribes to its serving leaf CDs, applies
/// every update to its object model, and serves snapshots in both modes.
pub struct SnapshotBroker {
    params: SimParams,
    edge: NodeId,
    /// Leaf CDs this broker is responsible for.
    serving: Vec<Name>,
    objects: ObjectModel,
    /// The shared trace: publication id → (object, size), to apply updates.
    trace: Arc<Vec<TraceEvent>>,
    dedup: DedupWindow,
    /// Active cyclic streams: cd index → (subscriber count, next object).
    cyclic: BTreeMap<usize, CyclicStream>,
    /// Monotonic id source for snapshot multicasts: above every update
    /// publication id (trace indices) and, once `on_start` has folded the
    /// broker's own node into the base, disjoint from every other broker's
    /// — receivers dedup and lineage keys on [`MulticastPacket::id`] alone.
    next_snap_id: u64,
    /// Content-addressed chunk cache for the manifest/chunk serve path.
    chunks: BrokerChunkCache,
    /// Prefix keys currently classified *hot* by the adaptive cache policy:
    /// snapshot Data under these prefixes is stamped with a longer freshness
    /// so path content stores absorb flash crowds. Empty unless
    /// [`SimParams::cache_adaptive`] is set and metric streams are running.
    hot: BTreeSet<u64>,
}

/// The broker's lazily rebuilt chunk view of its serving CDs. Manifests are
/// regenerated when a CD's epoch (object-version sum) moves; the chunk store
/// only grows, so chunks of superseded manifests stay servable while
/// stragglers finish fetching them.
struct BrokerChunkCache {
    chunker: Chunker,
    /// serving index → (epoch, manifest) of the last build.
    manifests: BTreeMap<usize, (u64, Manifest)>,
    store: ChunkStore,
}

impl BrokerChunkCache {
    fn new() -> Self {
        Self {
            chunker: Chunker,
            manifests: BTreeMap::new(),
            store: ChunkStore::new(),
        }
    }

    /// Returns the current manifest of serving CD `idx`, rebuilding (and
    /// absorbing the new chunks) if updates moved the CD's epoch.
    fn manifest_of(&mut self, objects: &ObjectModel, cd: &Name, idx: usize) -> &Manifest {
        let (epoch, blob) = cd_snapshot_content(objects, cd);
        let stale = self
            .manifests
            .get(&idx)
            .is_none_or(|(cached, _)| *cached != epoch);
        if stale {
            let manifest = self.chunker.manifest(epoch, &blob);
            for c in self.chunker.chunks(&blob) {
                self.store.insert(c);
            }
            self.manifests.insert(idx, (epoch, manifest));
        }
        &self.manifests.get(&idx).expect("just built").1
    }
}

#[derive(Debug, Default)]
struct CyclicStream {
    /// The players counted into the stream. A set, so a join re-expressed
    /// after a fault (the mover cannot know the first one arrived) counts
    /// its player once.
    subscribers: BTreeSet<u32>,
    next_obj: u32,
}

impl SnapshotBroker {
    /// Creates a broker serving `serving` (leaf CDs), attached to `edge`.
    #[must_use]
    pub fn new(
        params: SimParams,
        edge: NodeId,
        serving: Vec<Name>,
        objects: ObjectModel,
        trace: Arc<Vec<TraceEvent>>,
    ) -> Self {
        Self {
            params,
            edge,
            serving,
            objects,
            trace,
            dedup: DedupWindow::new(1024),
            cyclic: BTreeMap::new(),
            next_snap_id: 1 << 60,
            chunks: BrokerChunkCache::new(),
            hot: BTreeSet::new(),
        }
    }

    /// One broker host per entry of `serving` (a
    /// [`partition_cds_to_brokers`] result), broker `i` hanging off router
    /// `attach_at(i)`: each routes its snapshot QR namespaces — plus the
    /// chunked-delta namespaces when `chunked` — and starts from a copy of
    /// `objects`.
    #[must_use]
    pub fn hosts(
        serving: Vec<Vec<Name>>,
        attach_at: impl Fn(usize) -> NodeId,
        chunked: bool,
        params: &SimParams,
        objects: &ObjectModel,
        trace: &Arc<Vec<TraceEvent>>,
    ) -> Vec<ExtraHost> {
        let host = |(i, cds): (usize, Vec<Name>)| {
            let mut routes = Self::fib_prefixes(&cds);
            if chunked {
                routes.extend(Self::chunk_fib_prefixes(&cds));
            }
            let (p, objects, trace) = (params.clone(), objects.clone(), Arc::clone(trace));
            ExtraHost {
                attach_to: attach_at(i),
                routes,
                make: Box::new(move |_node, edge| {
                    Box::new(Self::new(p, edge, cds, objects, trace))
                }),
            }
        };
        serving.into_iter().enumerate().map(host).collect()
    }

    /// The FIB prefixes the network must route toward this broker.
    #[must_use]
    pub fn fib_prefixes(serving: &[Name]) -> Vec<Name> {
        serving
            .iter()
            .flat_map(|cd| [scoped(SNAPSHOT, cd, []), scoped(SNAPCASTCTL, cd, [])])
            .collect()
    }

    /// The additional FIB prefixes of the chunked-delta path: per-CD
    /// manifest names plus the shared `/chunk` namespace. `/chunk` routes
    /// to *every* broker (chunk names carry no CD), so an Interest fans out
    /// and brokers not holding the chunk answer with a tagged drop.
    #[must_use]
    pub fn chunk_fib_prefixes(serving: &[Name]) -> Vec<Name> {
        let mut out: Vec<Name> = serving.iter().map(|cd| scoped(SNAPMANI, cd, [])).collect();
        out.push(word(CHUNK).into());
        out
    }

    fn serving_index(&self, cd: &Name) -> Option<usize> {
        self.serving.iter().position(|c| c == cd)
    }

    /// Parses `/snapshot/<cd>/meta` or `/snapshot/<cd>/obj/<k>`, returning
    /// the serving index and the request kind.
    fn parse_snapshot_name(&self, name: &Name) -> Option<(usize, SnapshotRequest)> {
        let comps = name.components();
        if comps.first()?.as_str() != SNAPSHOT {
            return None;
        }
        if comps.last()?.as_str() == "meta" {
            let cd = Name::from_components(comps[1..comps.len() - 1].iter().cloned());
            return Some((self.serving_index(&cd)?, SnapshotRequest::Meta));
        }
        if comps.len() >= 3 && comps[comps.len() - 2].as_str() == "obj" {
            let k: u32 = comps.last()?.as_str().parse().ok()?;
            let cd = Name::from_components(comps[1..comps.len() - 2].iter().cloned());
            return Some((self.serving_index(&cd)?, SnapshotRequest::Object(k)));
        }
        None
    }

    /// Parses `/snapmani/<cd>`, returning the serving index.
    fn parse_manifest_name(&self, name: &Name) -> Option<usize> {
        let comps = name.components();
        if comps.first()?.as_str() != SNAPMANI {
            return None;
        }
        let cd = Name::from_components(comps[1..].iter().cloned());
        self.serving_index(&cd)
    }

    /// Parses `/snapcastctl/<cd>/{join,leave}/<nonce>`, returning the
    /// serving index, whether the command is a join, and the sending player
    /// (the high half of every client nonce).
    ///
    /// Why command Interests carry a nonce component: a join or a leave is
    /// a *command*, not a request for content — each one must reach the
    /// broker and be counted. Under one shared name per CD and verb, a CCN
    /// forwarder does what it does for any Interest: the PIT aggregates a
    /// second mover's join into the pending first, and the Content Store
    /// answers a third with the cached ack — joins vanish (the stream stops
    /// under a mover still fetching) and leaves vanish (the stream never
    /// stops). The sender's nonce as the last component makes every command
    /// its own name.
    fn parse_ctl_name(&self, name: &Name) -> Option<(usize, bool, u32)> {
        let comps = name.components();
        if comps.len() < 4 || comps[0].as_str() != SNAPCASTCTL {
            return None;
        }
        let join = match comps[comps.len() - 2].as_str() {
            "join" => true,
            "leave" => false,
            _ => return None,
        };
        let nonce: u64 = comps[comps.len() - 1].as_str().parse().ok()?;
        let cd = Name::from_components(comps[1..comps.len() - 2].iter().cloned());
        Some((self.serving_index(&cd)?, join, (nonce >> 32) as u32))
    }

    fn send_data(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, name: Name, payload: Bytes) {
        // Snapshot data ages out quickly in a gaming scenario (§V-B): keep
        // freshness short so concurrent movers may share router caches but
        // stale state does not linger. Under the adaptive cache policy,
        // prefixes the popularity stream classifies hot get a longer
        // freshness so path content stores absorb flash crowds.
        let mut freshness: u64 = 50_000_000;
        if self.params.cache_adaptive && self.hot.contains(&cs_prefix_key(&name)) {
            freshness *= adaptive_cache::HOT_FRESHNESS_MUL;
        }
        let data = Data::with_freshness(name, payload, freshness);
        let g = GPacket::Data(data);
        let size = g.wire_size();
        ctx.send(self.edge, g, size);
    }

    /// Re-classifies `key` as hot/cold from the live `qr-pop` popularity
    /// sketch. Entry requires the sketch to have seen a full warm-up window
    /// and the key to hold at least [`adaptive_cache::HOT`] of the monitored
    /// mass; exit fires at half that share (hysteresis, so a prefix
    /// straddling the threshold does not flap its cache class every request).
    fn update_hot(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, key: u64) {
        if !self.params.cache_adaptive || !ctx.streams_enabled() {
            return;
        }
        let (monitored, _offered) = ctx.stream_mass("qr-pop");
        let count = ctx.stream_count("qr-pop", key).map_or(0, |(c, _)| c);
        let (num, den) = adaptive_cache::HOT;
        if self.hot.contains(&key) {
            if count * den * 2 < monitored * num {
                self.hot.remove(&key);
                ctx.world().bump("cache-class-demotions");
                ctx.counter("cache-class-demotions", 1);
            }
        } else if monitored >= adaptive_cache::MIN_WINDOW && count * den >= monitored * num {
            self.hot.insert(key);
            ctx.world().bump("cache-class-promotions");
            ctx.counter("cache-class-promotions", 1);
        }
    }

    fn send_chunk(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, name: Name, payload: Bytes) {
        // Chunks are immutable — the name commits to the bytes — so they
        // can outlive mutable snapshot data in router caches by orders of
        // magnitude, letting every rejoiner of a storm share one copy per
        // chunk for the storm's whole duration (prewarm plus rejoin phases
        // span minutes of simulated time).
        let data = Data::with_freshness(name, payload, 600_000_000_000);
        let g = GPacket::Data(data);
        let size = g.wire_size();
        ctx.send(self.edge, g, size);
    }

    fn object_payload(&self, serving_idx: usize, k: u32) -> Bytes {
        let cd = &self.serving[serving_idx];
        let objs = self.objects.objects_in(cd);
        let size = objs
            .get(k as usize)
            .map_or(0, |&o| self.objects.state(o).snapshot_bytes());
        // Pristine objects are not shipped: a 1-byte marker stands in.
        payload_of((size.max(1) as usize).min(4096))
    }

    fn emit_cyclic(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, idx: usize) {
        let Some(stream) = self.cyclic.get_mut(&idx) else {
            return;
        };
        if stream.subscribers.is_empty() {
            self.cyclic.remove(&idx);
            return;
        }
        let cd = &self.serving[idx];
        let total = self.objects.objects_in(cd).len() as u32;
        if total == 0 {
            return;
        }
        let k = stream.next_obj % total;
        stream.next_obj = (stream.next_obj + 1) % total;
        // Payload carries [k, total] so receivers can detect a full cycle;
        // padded to the object's snapshot size.
        let obj_size = {
            let objs = self.objects.objects_in(cd);
            self.objects.state(objs[k as usize]).snapshot_bytes()
        };
        let mut body = vec![0u8; (obj_size.max(8) as usize).min(4096)];
        body[..4].copy_from_slice(&k.to_le_bytes());
        body[4..8].copy_from_slice(&total.to_le_bytes());
        let id = self.next_snap_id;
        self.next_snap_id += 1;
        let m = MulticastPacket::new(Cd::new(scoped(SNAPCAST, cd, [])), Bytes::from(body), id);
        let g = GPacket::Copss(CopssPacket::Multicast(m));
        let size = g.wire_size();
        ctx.send(self.edge, g, size);
        if ctx.telemetry_enabled() {
            ctx.counter("broker-cyclic-sent", 1);
            ctx.observe("broker-snapshot-bytes", u64::from(size));
        }
        ctx.world().bump("broker-cyclic-sent");
        ctx.schedule(CYCLIC_GAP, idx as u64);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapshotRequest {
    Meta,
    Object(u32),
}

impl NodeBehavior<GPacket, GameWorld> for SnapshotBroker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let _p = gcopss_sim::prof::scope("broker/start");
        self.next_snap_id |= u64::from(ctx.node().0) << 32;
        // Subscribe to the serving areas to keep snapshots current (§IV-A:
        // "it only subscribes to the leaf CDs representing its serving
        // area").
        let g = GPacket::Copss(CopssPacket::Subscribe {
            cds: self.serving.clone(),
            rp: None,
        });
        let size = g.wire_size();
        ctx.send(self.edge, g, size);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, key: u64) {
        let _p = gcopss_sim::prof::scope("broker/timer");
        self.emit_cyclic(ctx, key as usize);
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        _from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let _p = gcopss_sim::prof::scope("broker/packet");
        match pkt {
            // Updates for the serving areas: apply to the object model.
            GPacket::Copss(CopssPacket::Multicast(m)) => {
                if !self.dedup.insert(m.id) {
                    return;
                }
                if let Some(e) = self.trace.get(m.id as usize) {
                    self.objects.apply_update(e.object, e.size);
                    ctx.world().bump("broker-updates-applied");
                }
            }
            GPacket::Interest(i) => {
                if let Some((idx, req)) = self.parse_snapshot_name(&i.name) {
                    ctx.consume(BROKER_PER_OBJECT);
                    let key = cs_prefix_key(&i.name);
                    ctx.stream_offer("qr-pop", key, 1);
                    self.update_hot(ctx, key);
                    match req {
                        SnapshotRequest::Meta => {
                            let total = self.objects.objects_in(&self.serving[idx]).len() as u32;
                            self.send_data(
                                ctx,
                                i.name,
                                Bytes::copy_from_slice(&total.to_le_bytes()),
                            );
                        }
                        SnapshotRequest::Object(k) => {
                            let payload = self.object_payload(idx, k);
                            self.send_data(ctx, i.name, payload);
                        }
                    }
                    ctx.counter("broker-qr-served", 1);
                    ctx.world().bump("broker-qr-served");
                } else if let Some((idx, join, player)) = self.parse_ctl_name(&i.name) {
                    if join {
                        let starting = !self.cyclic.contains_key(&idx);
                        self.cyclic.entry(idx).or_default().subscribers.insert(player);
                        if starting {
                            ctx.schedule(CYCLIC_GAP, idx as u64);
                        }
                        ctx.world().bump("broker-cyclic-joins");
                    } else {
                        if let Some(s) = self.cyclic.get_mut(&idx) {
                            s.subscribers.remove(&player);
                            // The stream stops at the next tick when empty;
                            // the packets sent meanwhile are the paper's
                            // "wasted" tail transmissions.
                        }
                        ctx.world().bump("broker-cyclic-leaves");
                    }
                    // Acknowledge so the PIT breadcrumbs are consumed.
                    self.send_data(ctx, i.name, payload_of(1));
                } else if let Some(idx) = self.parse_manifest_name(&i.name) {
                    ctx.consume(BROKER_PER_OBJECT);
                    let cd = self.serving[idx].clone();
                    let wire = self.chunks.manifest_of(&self.objects, &cd, idx).encode();
                    self.send_data(ctx, i.name, Bytes::from(wire));
                    ctx.counter("broker-manifest-served", 1);
                    ctx.world().bump("broker-manifest-served");
                } else if let Some(id) = parse_chunk_name(&i.name) {
                    let held = self.chunks.store.get(id).map(|b| Bytes::from(b.to_vec()));
                    if let Some(payload) = held {
                        ctx.consume(BROKER_PER_OBJECT);
                        self.send_chunk(ctx, i.name, payload);
                        ctx.counter("broker-chunk-served", 1);
                        ctx.world().bump("broker-chunk-served");
                    } else {
                        // /chunk routes to every broker and chunk names
                        // carry no CD: the fan-out is expected to miss at
                        // every broker but the holder.
                        crate::drops::record(ctx, crate::drops::BROKER_CHUNK_MISS, i.encoded_len() as u32);
                    }
                } else {
                    crate::drops::record(ctx, crate::drops::BROKER_UNKNOWN_INTEREST, i.encoded_len() as u32);
                }
            }
            _ => {}
        }
    }

    fn service_time(&self, _pkt: &GPacket) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Round-robin partition of the map's leaf CDs across `broker_count`
/// brokers (the paper's movement experiment uses 3 brokers).
#[must_use]
pub fn partition_cds_to_brokers(map: &GameMap, broker_count: usize) -> Vec<Vec<Name>> {
    let mut out = vec![Vec::new(); broker_count.max(1)];
    for (i, cd) in map.leaf_cds().iter().enumerate() {
        out[i % broker_count.max(1)].push(cd.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_game::{ObjectModelParams, PlayerPopulation};

    #[test]
    fn broker_partition_covers_map() {
        let map = GameMap::paper_map();
        let serving = partition_cds_to_brokers(&map, 3);
        let total: usize = serving.iter().map(Vec::len).sum();
        assert_eq!(total, 31);
        assert_eq!(serving.len(), 3);
        // Disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for cds in &serving {
            for cd in cds {
                assert!(seen.insert(cd.clone()));
            }
        }
        let _ = PlayerPopulation::uniform_per_area(&map, 1);
    }

    #[test]
    fn snapshot_name_parsing() {
        let map = GameMap::paper_map();
        let objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let trace = Arc::new(Vec::new());
        let broker = SnapshotBroker::new(
            SimParams::default(),
            NodeId(0),
            vec![Name::parse_lit("/1/2"), Name::parse_lit("/1/0")],
            objects,
            trace,
        );
        assert_eq!(
            broker.parse_snapshot_name(&Name::parse_lit("/snapshot/1/2/meta")),
            Some((0, SnapshotRequest::Meta))
        );
        assert_eq!(
            broker.parse_snapshot_name(&Name::parse_lit("/snapshot/1/0/obj/17")),
            Some((1, SnapshotRequest::Object(17)))
        );
        assert_eq!(
            broker.parse_snapshot_name(&Name::parse_lit("/snapshot/9/9/meta")),
            None
        );
        assert_eq!(
            broker.parse_ctl_name(&Name::parse_lit("/snapcastctl/1/2/join/4294967297")),
            Some((0, true, 1))
        );
        assert_eq!(
            broker.parse_ctl_name(&Name::parse_lit("/snapcastctl/1/2/leave/7")),
            Some((0, false, 0))
        );
        assert_eq!(
            broker.parse_ctl_name(&Name::parse_lit("/snapcastctl/1/2/bogus/7")),
            None
        );
    }

    /// A stream's members are a set of players: a join re-expressed after a
    /// fault counts its player once, so that player's one leave still stops
    /// the stream.
    #[test]
    fn rejoin_counts_a_player_once() {
        use gcopss_ndn::Interest;
        use gcopss_sim::{SimTime, Simulator, Topology};

        let mut topology = Topology::new();
        let (host, edge) = (topology.add_node("broker"), topology.add_node("edge"));
        topology
            .try_add_link(host, edge, SimDuration::from_millis(1), None)
            .expect("two known nodes");
        let map = GameMap::paper_map();
        let objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let serving = vec![Name::parse_lit("/1/2")];
        let broker =
            SnapshotBroker::new(SimParams::default(), edge, serving, objects, Arc::new(Vec::new()));
        let mut sim = Simulator::new(topology, GameWorld::default());
        sim.set_behavior(host, Box::new(broker));

        // Player 1 joins, joins again (its 2nd and 5th Interests), leaves.
        let player = 1u64 << 32;
        for (ms, verb, n) in [(0, "join", 2), (20, "join", 5), (40, "leave", 6)] {
            let name = Name::parse_lit(&format!("/snapcastctl/1/2/{verb}/{}", player | n));
            let pkt = GPacket::Interest(Interest::new(name, player | n));
            let size = pkt.wire_size();
            sim.inject(SimTime::from_millis(ms), host, pkt, size);
        }
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.world().counter("broker-cyclic-sent") > 0, "the stream ran");
        assert!(sim.is_idle(), "still streaming after the only member left");
    }

    #[test]
    fn fib_prefixes_cover_both_namespaces() {
        let serving = vec![Name::parse_lit("/1/2")];
        let p = SnapshotBroker::fib_prefixes(&serving);
        assert!(p.contains(&Name::parse_lit("/snapshot/1/2")));
        assert!(p.contains(&Name::parse_lit("/snapcastctl/1/2")));
        let cp = SnapshotBroker::chunk_fib_prefixes(&serving);
        assert!(cp.contains(&Name::parse_lit("/snapmani/1/2")));
        assert!(cp.contains(&Name::parse_lit("/chunk")));
    }

    #[test]
    fn chunk_names_roundtrip() {
        let id = ChunkId::of(b"some chunk");
        let name = chunk_name(id);
        assert_eq!(parse_chunk_name(&name), Some(id));
        assert_eq!(parse_chunk_name(&Name::parse_lit("/chunk/nothex")), None);
        assert_eq!(parse_chunk_name(&Name::parse_lit("/snapshot/1/2/meta")), None);
    }

    #[test]
    fn snapshot_content_is_deterministic_and_update_local() {
        let map = GameMap::paper_map();
        let mut objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let cd = map.leaf_cds()[0].clone();
        let (e0, b0) = cd_snapshot_content(&objects, &cd);
        assert_eq!(e0, 0, "pristine CD has epoch 0");
        assert!(b0.is_empty(), "pristine objects ship nothing");

        // Update every object once to materialize the blob.
        let objs: Vec<ObjectId> = objects.objects_in(&cd).to_vec();
        for &o in &objs {
            objects.apply_update(o, 500);
        }
        let (e1, b1) = cd_snapshot_content(&objects, &cd);
        let (e1b, b1b) = cd_snapshot_content(&objects, &cd);
        assert_eq!((e1, b1.clone()), (e1b, b1b), "content is a pure function");
        assert_eq!(e1, objs.len() as u64);

        // One more update to one object changes only that object's region.
        objects.apply_update(objs[0], 100);
        let (e2, b2) = cd_snapshot_content(&objects, &cd);
        assert!(e2 > e1);
        assert_ne!(b1, b2);
        // The chunker should reuse most chunks of the old blob.
        let chunker = Chunker;
        let mut store = ChunkStore::new();
        for c in chunker.chunks(&b1) {
            store.insert(c);
        }
        let manifest = chunker.manifest(e2, &b2);
        let missing = store.missing(&manifest);
        assert!(
            missing.len() < manifest.chunks.len(),
            "a one-object update must not dirty every chunk"
        );
    }

    #[test]
    fn broker_serves_manifest_and_chunks() {
        // Drive the cache directly (no simulator): build, mutate, rebuild.
        let map = GameMap::paper_map();
        let mut objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let cd = map.leaf_cds()[0].clone();
        for &o in &objects.objects_in(&cd).to_vec() {
            objects.apply_update(o, 800);
        }
        let mut cache = BrokerChunkCache::new();
        let m1 = cache.manifest_of(&objects, &cd, 0).clone();
        assert!(!m1.chunks.is_empty());
        // Every referenced chunk is servable.
        for c in &m1.chunks {
            assert!(cache.store.contains(c.id));
        }
        // Same epoch: no rebuild, identical manifest.
        assert_eq!(cache.manifest_of(&objects, &cd, 0), &m1);
        // Epoch moves: manifest changes, old chunks stay servable.
        let first = objects.objects_in(&cd)[0];
        objects.apply_update(first, 100);
        let m2 = cache.manifest_of(&objects, &cd, 0).clone();
        assert_ne!(m1, m2);
        for c in m1.chunks.iter().chain(&m2.chunks) {
            assert!(cache.store.contains(c.id));
        }
    }
}
