//! The G-COPSS router: an NDN engine and a COPSS engine side by side
//! (Fig. 2 of the paper), plus the dynamic RP-balancing control plane
//! (§IV-B).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use gcopss_compat::{Rng, SeedableRng, SmallRng};
use gcopss_copss::{
    CopssEngine, CopssPacket, JoinRequest, MulticastPacket, PruneRequest, RpId, TrafficWindow,
};
use gcopss_names::{FixedState, Name};
use gcopss_ndn::{ContentStoreConfig, FaceId, NdnAction, NdnEngine};
use gcopss_sim::prof;
use gcopss_sim::{Ctx, FaultNotice, NodeBehavior, NodeId, SimDuration, SimTime, Topology};

use crate::params::{
    adaptive_rp, recovery, CONTROL_PROC, COPSS_MULTICAST_PROC, ENCAP_PROC, IP_PROC, NDN_PROC,
    RP_WINDOW,
};
use crate::{packet, GPacket, GameWorld, RecoveryConfig, SimParams, SplitRecord};

/// Maps between the simulator's neighbor [`NodeId`]s and the engines'
/// local [`FaceId`]s. Faces are assigned in ascending neighbor order, so
/// the mapping is deterministic.
#[derive(Debug, Clone, Default)]
pub struct FaceMap {
    nodes: Vec<NodeId>,
    by_node: BTreeMap<NodeId, FaceId>,
}

impl FaceMap {
    /// Builds the face map of `me` from the topology's adjacency.
    #[must_use]
    pub fn new(topology: &Topology, me: NodeId) -> Self {
        let mut nodes: Vec<NodeId> = topology.neighbors(me).map(|(n, _)| n).collect();
        nodes.sort_unstable();
        let by_node = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, FaceId(i as u32)))
            .collect();
        Self { nodes, by_node }
    }

    /// The face leading to `node`, if adjacent.
    #[must_use]
    pub fn face_of(&self, node: NodeId) -> Option<FaceId> {
        self.by_node.get(&node).copied()
    }

    /// The neighbor behind `face`.
    #[must_use]
    pub fn node_of(&self, face: FaceId) -> Option<NodeId> {
        self.nodes.get(face.0 as usize).copied()
    }

    /// All `(face, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FaceId, NodeId)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (FaceId(i as u32), n))
    }
}

/// How a new RP's node is chosen when a split fires. The paper uses a
/// random selection and names network-coordinate systems (Vivaldi) as the
/// intended improvement; these strategies are deterministic stand-ins
/// spanning that design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RpSelection {
    /// Rotate through the candidate list (the paper's evaluation setting:
    /// load spread without placement intelligence).
    #[default]
    Rotation,
    /// Pick the candidate closest (by routing delay) to the overloaded RP —
    /// minimizes handoff/transition cost.
    ClosestToSelf,
    /// Pick the candidate farthest (by routing delay) from every existing
    /// RP — a network-coordinate-style spread that avoids co-locating hot
    /// cores.
    Spread,
}

/// Configuration for automatic RP splitting on this router.
#[derive(Debug, Clone, Default)]
pub struct SplitConfig {
    /// Candidate nodes for newly created RPs.
    pub candidates: Vec<NodeId>,
    /// Placement strategy over the candidates.
    pub strategy: RpSelection,
}

/// Grace period during which the old RP keeps multicasting moved CDs down
/// its existing tree while the new tree forms (the paper's "R continues to
/// act as the core till the complete network is aware of the new RP").
pub const SPLIT_GRACE: SimDuration = SimDuration::from_secs(2);

/// Timer key used to flush deferred prunes after the split grace period.
const PRUNE_TIMER: u64 = 0x00de_fe55;

/// Timer key of the periodic expired-PIT sweep (recovery mode only).
const PIT_SWEEP_TIMER: u64 = 0x00de_fe56;

/// Timer key of the periodic soft-state join refresh
/// ([`RecoveryConfig::subscribe_refresh`] only).
const JOIN_REFRESH_TIMER: u64 = 0x00de_fe57;

/// The G-COPSS router behavior.
///
/// One instance runs on every router node of a G-COPSS simulation. It hosts
/// the two engines of Fig. 2 — the NDN engine (FIB/PIT/Content Store) and
/// the COPSS engine (ST/RP table) — and implements:
///
/// * native COPSS forwarding (`Subscribe`/`Unsubscribe`/`Multicast`),
/// * RP encapsulation: publications travel as [`GPacket::ToRp`] (an
///   Interest named `/rp/<id>` on the real wire) routed by the NDN FIB,
/// * RP duties when this router serves CD prefixes: decapsulation, ST
///   multicast, traffic monitoring, and the three-stage split protocol of
///   §IV-B when the service queue exceeds the configured threshold,
/// * plain NDN Interest/Data forwarding (snapshot queries, baselines).
pub struct GCopssRouter {
    params: SimParams,
    faces: FaceMap,
    copss: CopssEngine,
    ndn: NdnEngine,
    /// RPs hosted on this router.
    local_rps: BTreeSet<RpId>,
    /// Traffic window for split planning (only RPs record into it).
    traffic: TrafficWindow,
    served_since_split: u64,
    split: SplitConfig,
    next_candidate: usize,
    /// Flood deduplication for `RpUpdate`s.
    seen_updates: HashSet<u64, FixedState>,
    /// Joins waiting for a route to a not-yet-announced RP.
    pending_joins: Vec<JoinRequest>,
    /// Prunes deferred by the pending-ST rule of §IV-B: during an RP move
    /// a router "does not leave the original ST branch until it is added
    /// to a new ST branch" — we keep the old branch for the grace period.
    deferred_prunes: Vec<PruneRequest>,
    /// Old-tree grace multicast: CDs this router recently handed off, and
    /// the deadline until which it keeps serving them down its old tree.
    legacy: Vec<(Name, SimTime)>,
    /// Reverse tunnel while a handoff settles: as the *new* RP, send every
    /// freshly served publication for these CDs back to the old RP (which
    /// still multicasts its old tree) until the deadline.
    tunnel_back: Vec<(Name, RpId, SimTime)>,
    /// Failure-recovery tunables; `None` (the default) disables the
    /// periodic PIT sweep and changes nothing in a fault-free run.
    recovery: Option<RecoveryConfig>,
    /// Whether the PIT-sweep timer is currently armed.
    sweep_armed: bool,
    /// Jitter PRNG of the periodic join refresh (seeded per node in
    /// `on_start`; `None` until then or when the refresh is disabled).
    refresh_rng: Option<SmallRng>,
    /// Hysteresis state of stream-driven RP balancing; inert unless
    /// `SimParams::rp_adaptive` is set *and* the stream hub is enabled.
    adaptive: AdaptiveTrigger,
    /// The `/rp/<id>` FIB key of every RP this router has forwarded toward,
    /// built once per RP instead of once per `ToRp` hop.
    rp_prefixes: BTreeMap<RpId, Name>,
    /// [`GCopssRouter::multicast`]'s face buffers (tree-matched and
    /// name-matched), kept so a multicast hop reuses their capacity.
    tree_faces: Vec<FaceId>,
    named_faces: Vec<FaceId>,
}

/// Per-router state of the adaptive split trigger (see
/// [`crate::params::adaptive_rp`]): once-per-roll evaluation, the sustain
/// streak, and the armed/released hysteresis latch.
#[derive(Debug, Clone)]
struct AdaptiveTrigger {
    /// The last stream roll the trigger evaluated on.
    last_roll: u64,
    /// Consecutive rolls the trigger condition has held.
    streak: u32,
    /// Watching for overload; `false` between a triggered split and the
    /// release watermark (the anti-flap half of the hysteresis).
    armed: bool,
    /// Consecutive pressured rolls seen while disarmed (escalation
    /// counter — sustained overload re-arms the trigger).
    hot_rolls: u32,
}

impl Default for AdaptiveTrigger {
    fn default() -> Self {
        Self {
            last_roll: 0,
            streak: 0,
            armed: true,
            hot_rolls: 0,
        }
    }
}

/// Aggregation depth of the per-prefix content-store streams: lookups are
/// keyed by the stable hash of the interest name's first three components
/// (`/snapshot/<area path>` for the game's snapshot traffic), so meta and
/// object fetches of one content descriptor land on one sketch key.
const CS_PREFIX_DEPTH: usize = 3;

/// The sketch key of an interest name (see [`CS_PREFIX_DEPTH`]). Shared
/// with the broker so producer-side popularity and router-side hit-rate
/// streams key the same prefix identically.
pub(crate) fn cs_prefix_key(name: &Name) -> u64 {
    name.prefix_hash(name.len().min(CS_PREFIX_DEPTH))
}

impl GCopssRouter {
    /// Creates a router.
    ///
    /// `copss` arrives preconfigured with the initial RP table; `fib_routes`
    /// seeds the NDN FIB (notably `/rp/<id>` prefixes toward each initial
    /// RP and any application prefixes such as `/snapshot`).
    #[must_use]
    pub fn new(
        params: SimParams,
        faces: FaceMap,
        copss: CopssEngine,
        fib_routes: Vec<(Name, FaceId)>,
        local_rps: BTreeSet<RpId>,
        split: SplitConfig,
    ) -> Self {
        let mut ndn = NdnEngine::new(ContentStoreConfig::default());
        for (prefix, face) in fib_routes {
            ndn.fib_mut().add(prefix, face);
        }
        // The cooldown spaces out *successive* splits; the first split may
        // fire as soon as the queue threshold is crossed.
        let served_since_split = params.rp_split_cooldown_packets;
        Self {
            params,
            faces,
            copss,
            ndn,
            local_rps,
            traffic: TrafficWindow::new(RP_WINDOW),
            served_since_split,
            split,
            next_candidate: 0,
            seen_updates: HashSet::default(),
            pending_joins: Vec::new(),
            deferred_prunes: Vec::new(),
            legacy: Vec::new(),
            tunnel_back: Vec::new(),
            recovery: None,
            sweep_armed: false,
            refresh_rng: None,
            adaptive: AdaptiveTrigger::default(),
            rp_prefixes: BTreeMap::new(),
            tree_faces: Vec::new(),
            named_faces: Vec::new(),
        }
    }

    /// Enables the failure-recovery half of the router: periodic expired-PIT
    /// sweeps and (always active when faults are installed) soft-state
    /// repair on fault notices.
    #[must_use]
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    fn face_of(&self, node: Option<NodeId>) -> Option<FaceId> {
        node.and_then(|n| self.faces.face_of(n))
    }

    /// Sends a COPSS packet to the neighbor behind `face`.
    fn send_copss(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, face: FaceId, pkt: CopssPacket) {
        if let Some(node) = self.faces.node_of(face) {
            packet::send(ctx, node, GPacket::Copss(pkt));
        }
    }

    /// The next-hop face toward an RP, via the NDN FIB entry `/rp/<id>`.
    fn face_toward_rp(&mut self, rp: RpId) -> Option<FaceId> {
        let _lpm = prof::scope("ndn/fib_lpm");
        let prefix = self
            .rp_prefixes
            .entry(rp)
            .or_insert_with(|| rp.ndn_prefix());
        self.ndn
            .fib()
            .lookup(prefix)
            .and_then(|faces| faces.first().copied())
    }

    /// Encapsulates `inner` toward RP `rp` along its `/rp/<id>` FIB entry.
    /// Returns `false` when there is no route to the RP; whether that is a
    /// drop is the caller's call.
    fn send_to_rp(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        rp: RpId,
        inner: MulticastPacket,
    ) -> bool {
        let Some(face) = self.face_toward_rp(rp) else {
            return false;
        };
        if let Some(node) = self.faces.node_of(face) {
            packet::send(ctx, node, GPacket::ToRp { rp, inner });
        }
        true
    }

    /// Pending-ST: holds `prunes` back until the new tree has had the
    /// grace period to form (no subscriber misses a packet), arming the
    /// prune timer if nothing was pending.
    fn defer_prunes(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, prunes: Vec<PruneRequest>) {
        if prunes.is_empty() {
            return;
        }
        if self.deferred_prunes.is_empty() {
            ctx.schedule(SPLIT_GRACE, PRUNE_TIMER);
        }
        self.deferred_prunes.extend(prunes);
    }

    /// Accounts one content-store lookup: per-node telemetry counters and
    /// world totals (`cs-hit`/`cs-miss`), plus the per-prefix popularity
    /// and hit streams the adaptive caching layer consumes. Each hook is
    /// one branch while its subsystem is disabled.
    fn note_cs_lookup(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, pfx: u64, hit: bool) {
        let tag = if hit { "cs-hit" } else { "cs-miss" };
        ctx.counter(tag, 1);
        ctx.world().bump(tag);
        ctx.stream_bump(tag, 1);
        ctx.stream_offer("cs-req-pop", pfx, 1);
        if hit {
            ctx.stream_offer("cs-hit-pop", pfx, 1);
        }
    }

    /// Seeded jitter added to each join-refresh re-arm (decorrelates the
    /// per-router refresh phases). Zero when the refresh is disabled.
    fn refresh_jitter(&mut self) -> SimDuration {
        match &mut self.refresh_rng {
            Some(rng) => SimDuration::from_nanos(rng.gen_range(0..=recovery::JITTER.as_nanos())),
            None => SimDuration::ZERO,
        }
    }

    fn send_joins(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, joins: Vec<JoinRequest>) {
        for j in joins {
            if self.local_rps.contains(&j.rp) {
                continue; // the tree roots here
            }
            match self.face_toward_rp(j.rp) {
                Some(face) => {
                    self.send_copss(
                        ctx,
                        face,
                        CopssPacket::Subscribe {
                            cds: vec![j.name],
                            rp: Some(j.rp),
                        },
                    );
                }
                None => {
                    ctx.mark("join-pending-no-route");
                    self.pending_joins.push(j);
                }
            }
        }
    }

    fn send_prunes(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, prunes: Vec<PruneRequest>) {
        for p in prunes {
            if self.local_rps.contains(&p.rp) {
                continue;
            }
            if let Some(face) = self.face_toward_rp(p.rp) {
                self.send_copss(
                    ctx,
                    face,
                    CopssPacket::Unsubscribe {
                        cds: vec![p.name.clone()],
                        rp: Some(p.rp),
                    },
                );
            }
            // A prune toward an unknown RP is moot: nothing was joined.
            self.pending_joins
                .retain(|j| !(j.rp == p.rp && j.name == p.name));
        }
    }

    /// Multicasts `m` (already tagged with its tree) out of every
    /// subscribed face of that tree except `arrival`.
    ///
    /// Router faces require a tree match (a publication stays on its own
    /// core-based tree — anything else loops on cyclic topologies); host
    /// faces are leaves and are matched by name alone, so subscribers keep
    /// receiving from a draining old tree during RP moves.
    fn multicast(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        m: &MulticastPacket,
        arrival: Option<FaceId>,
    ) {
        let st_scope = prof::scope("copss/st_match");
        // Taken for the call (the sends below borrow `self`), put back after.
        let mut faces = std::mem::take(&mut self.tree_faces);
        let mut named = std::mem::take(&mut self.named_faces);
        let st = self.copss.st();
        st.matching_faces_into(&m.cd, arrival, m.tree, &mut faces);
        if m.tree.is_some() {
            st.matching_faces_into(&m.cd, arrival, None, &mut named);
            for &face in &named {
                if faces.contains(&face) {
                    continue;
                }
                let is_host = self
                    .faces
                    .node_of(face)
                    .is_some_and(|n| ctx.topology().node_kind(n) == gcopss_sim::NodeKind::Host);
                if is_host {
                    faces.push(face);
                }
            }
        }
        drop(st_scope);
        for &face in &faces {
            self.send_copss(ctx, face, CopssPacket::Multicast(m.clone()));
        }
        self.tree_faces = faces;
        self.named_faces = named;
    }

    /// Serves a publication as the responsible RP: decapsulate, tag with
    /// our tree, multicast along the ST.
    fn serve_as_rp(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        rp: RpId,
        m: &MulticastPacket,
    ) {
        let _rp = prof::scope("copss/rp_serve");
        self.traffic.record(m.cd.name().clone());
        self.served_since_split += 1;
        if ctx.telemetry_enabled() {
            ctx.counter("rp-served", 1);
            ctx.observe("rp-queue-depth", ctx.queue_len() as u64);
            ctx.gauge("st-entries", self.copss.st().len() as u64);
        }
        // Live load streams (one branch while disabled): the windowed
        // served rate feeds the adaptive balancer's skew signal, the
        // sketch tracks which CDs carry the load.
        ctx.stream_bump("rp-served", 1);
        ctx.stream_offer("rp-cd-load", m.cd.name().stable_hash(), 1);
        let tagged = m.on_tree(rp);
        self.multicast(ctx, &tagged, None);
        // §IV-B transition: a *fresh* publication (not one proxied over
        // from the old RP, which already served its old tree) is tunneled
        // back so subscribers that have not re-anchored yet still get it.
        if m.tree.is_none() && !self.tunnel_back.is_empty() {
            let now = ctx.now();
            self.tunnel_back.retain(|(_, _, until)| *until >= now);
            let back: Vec<RpId> = self
                .tunnel_back
                .iter()
                .filter(|(cd, _, _)| cd.is_prefix_of(m.cd.name()))
                .map(|(_, old, _)| *old)
                .collect();
            for old_rp in back {
                self.send_to_rp(ctx, old_rp, tagged.clone());
            }
        }
        self.maybe_split(ctx);
        self.maybe_adaptive_split(ctx);
    }

    /// §IV-B with the fixed trigger: when the instantaneous service queue
    /// exceeds the configured threshold, attempt a split.
    fn maybe_split(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let Some(threshold) = self.params.rp_split_queue_threshold else {
            return;
        };
        if ctx.queue_len() <= threshold {
            return;
        }
        self.try_split(ctx, self.params.rp_split_cooldown_packets);
    }

    /// §IV-B with the stream-driven trigger: instead of an instantaneous
    /// queue threshold, fire on *observed* sustained pressure — the node's
    /// queue-depth EWMA at or above the configured floor and its windowed
    /// served rate skewed above the mean over all RP nodes (skew is waived
    /// while this is the only RP) for `sustain` consecutive stream rolls.
    /// After a triggered split the latch disarms until the queue EWMA
    /// drains below the release watermark — the hysteresis that keeps the
    /// balancer from flapping. Evaluated at most once per stream roll;
    /// inert without [`SimParams::rp_adaptive`] or without the stream hub.
    fn maybe_adaptive_split(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        if !self.params.rp_adaptive || !ctx.streams().is_enabled() {
            return;
        }
        let roll = ctx.streams().rolls();
        if roll == 0 || roll == self.adaptive.last_roll {
            return;
        }
        self.adaptive.last_roll = roll;
        let me = ctx.node();
        let q8 = ctx.streams().queue_ewma_q8(me.0);
        let floor_q8 = adaptive_rp::MIN_QUEUE_EWMA << 8;
        let pressure = q8 >= floor_q8;
        if !self.adaptive.armed {
            // Released: re-arm when the queue drains below the watermark
            // (the move worked) — or when pressure holds unbroken for the
            // escalation span (it did not; one move was not enough).
            if q8 * adaptive_rp::RELEASE.1 < floor_q8 * adaptive_rp::RELEASE.0 {
                self.adaptive.armed = true;
                self.adaptive.streak = 0;
                self.adaptive.hot_rolls = 0;
            } else if pressure {
                self.adaptive.hot_rolls += 1;
                if self.adaptive.hot_rolls >= adaptive_rp::ESCALATE_ROLLS {
                    self.adaptive.armed = true;
                    self.adaptive.streak = 0;
                    self.adaptive.hot_rolls = 0;
                }
            } else {
                self.adaptive.hot_rolls = 0;
            }
            return;
        }
        let skew = {
            let mut rp_nodes: BTreeSet<u32> = ctx.world().rp_locations.values().copied().collect();
            rp_nodes.insert(me.0);
            if rp_nodes.len() <= 1 {
                true
            } else {
                let rate = |n| ctx.streams().rate("rp-served", n);
                let mine = rate(me.0);
                let sum: u64 = rp_nodes.iter().map(|&n| rate(n)).sum();
                mine * adaptive_rp::SKEW.1 * rp_nodes.len() as u64 >= sum * adaptive_rp::SKEW.0
            }
        };
        if !(pressure && skew) {
            self.adaptive.streak = 0;
            return;
        }
        self.adaptive.streak += 1;
        if self.adaptive.streak < adaptive_rp::SUSTAIN {
            return;
        }
        if self.try_split(ctx, adaptive_rp::COOLDOWN_PACKETS) {
            ctx.counter("rp-move-triggered", 1);
            ctx.world().bump("rp-move-triggered");
            self.adaptive.armed = false;
            self.adaptive.streak = 0;
            self.adaptive.hot_rolls = 0;
        }
    }

    /// The split execution shared by both triggers: pick ~half the observed
    /// load, appoint a new RP, and kick off handoff + flood. Returns `true`
    /// when a split was actually performed (the cooldown may be running, no
    /// candidate node may be free, or the traffic window may have nothing
    /// eligible to move).
    fn try_split(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, cooldown: u64) -> bool {
        if self.served_since_split < cooldown || self.split.candidates.is_empty() {
            return false;
        }
        // Served prefixes of every RP hosted here (splits move load off
        // this *node*). Only CDs this node still owns and that are not in
        // a settling handoff are eligible to move.
        let served: Vec<Name> = self
            .local_rps
            .iter()
            .flat_map(|rp| self.copss.rp_table().prefixes_of(*rp))
            .collect();
        let now = ctx.now();
        let table = self.copss.rp_table();
        let local = &self.local_rps;
        let legacy = &self.legacy;
        let tunnels = &self.tunnel_back;
        let eligible = |cd: &Name| {
            table.rp_for(cd).is_some_and(|rp| local.contains(&rp))
                && !legacy
                    .iter()
                    .any(|(p, until)| *until >= now && p.is_prefix_of(cd))
                && !tunnels
                    .iter()
                    .any(|(p, _, until)| *until >= now && p.is_prefix_of(cd))
        };
        let Some(plan) = self.traffic.plan_split(&served, 0.5, eligible) else {
            return false;
        };
        // Pick the new RP node per the configured strategy, skipping self
        // and nodes already hosting an RP.
        let me = ctx.node();
        let taken: Vec<NodeId> = ctx
            .world()
            .rp_locations
            .values()
            .map(|&n| NodeId(n))
            .collect();
        let free = |c: &NodeId| *c != me && !taken.contains(c);
        let chosen = match self.split.strategy {
            RpSelection::Rotation => {
                let mut pick = None;
                for _ in 0..self.split.candidates.len() {
                    let c =
                        self.split.candidates[self.next_candidate % self.split.candidates.len()];
                    self.next_candidate += 1;
                    if free(&c) {
                        pick = Some(c);
                        break;
                    }
                }
                pick
            }
            RpSelection::ClosestToSelf => self
                .split
                .candidates
                .iter()
                .copied()
                .filter(free)
                .min_by_key(|c| ctx.routing().distance(me, *c)),
            RpSelection::Spread => self
                .split
                .candidates
                .iter()
                .copied()
                .filter(free)
                .max_by_key(|c| {
                    taken
                        .iter()
                        .chain(std::iter::once(&me))
                        .filter_map(|r| ctx.routing().distance(*r, *c))
                        .min()
                        .unwrap_or(SimDuration::ZERO)
                }),
        };
        let Some(new_node) = chosen else { return false };
        let new_rp = RpId(ctx.world().allocate_rp_id(new_node.0));
        let old_rp = *self.local_rps.iter().next().expect("RP router");

        // Refine our own table: retained stays with the (first) local RP,
        // moved goes to the new one. Coarser shadowed entries are resolved
        // by longest-prefix matching.
        for r in &plan.retained {
            self.copss
                .rp_table_mut()
                .apply_move(std::slice::from_ref(r), old_rp);
        }
        let (joins, prunes) = self.copss.handle_rp_update(&plan.moved, new_rp);
        self.send_joins(ctx, joins);
        self.defer_prunes(ctx, prunes);

        // Stage 2 (handoff): route the CD list to the new RP; install our
        // FIB entry so stale publications are proxied (the intermediate
        // routers install theirs while forwarding the control packet).
        if let Some(hop) = ctx.routing().next_hop(me, new_node) {
            if let Some(face) = self.faces.face_of(hop) {
                self.ndn.fib_mut().add(new_rp.ndn_prefix(), face);
            }
            let ctrl = GPacket::Control {
                dst: new_node,
                inner: CopssPacket::RpHandoff {
                    cds: plan.moved.clone(),
                    new_rp,
                    old_rp,
                },
            };
            packet::send(ctx, hop, ctrl);
        }

        // Old-tree grace: keep multicasting the moved CDs ourselves until
        // the new tree has formed.
        let until = ctx.now() + SPLIT_GRACE;
        for cd in &plan.moved {
            self.legacy.push((cd.clone(), until));
        }
        self.served_since_split = 0;

        let now = ctx.now();
        ctx.mark("rp-split");
        ctx.world().splits.push(SplitRecord {
            at: now,
            from_rp: old_rp.0,
            to_rp: new_rp.0,
            moved: plan.moved,
        });
        true
    }

    fn on_to_rp(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        rp: RpId,
        inner: MulticastPacket,
    ) {
        if self.local_rps.contains(&rp) {
            match self.copss.rp_for_publication(inner.cd.name()) {
                Some(current) if self.local_rps.contains(&current) => {
                    self.serve_as_rp(ctx, current, &inner);
                }
                Some(new_rp) => {
                    let back_tunneled = inner.tree == Some(new_rp);
                    // Stale publisher traffic: proxy to the new RP (no
                    // loss), marked with our tree so it is not tunneled
                    // back to us again.
                    if !back_tunneled && !self.send_to_rp(ctx, new_rp, inner.on_tree(rp)) {
                        let len = inner.encoded_len() as u32;
                        ctx.discard(crate::drops::TORP_NO_ROUTE, len);
                    }
                    // Keep the old tree warm during the grace period (both
                    // for stale traffic and for back-tunneled packets).
                    let now = ctx.now();
                    self.legacy.retain(|(_, until)| *until >= now);
                    if self
                        .legacy
                        .iter()
                        .any(|(cd, _)| cd.is_prefix_of(inner.cd.name()))
                    {
                        let tagged = inner.on_tree(rp);
                        self.multicast(ctx, &tagged, None);
                    }
                }
                None => {
                    ctx.discard(crate::drops::TORP_UNSERVED_CD, inner.encoded_len() as u32);
                }
            }
        } else {
            // Transit: forward the encapsulated Interest along the FIB.
            let len = inner.encoded_len() as u32;
            if !self.send_to_rp(ctx, rp, inner) {
                ctx.discard(crate::drops::TORP_NO_ROUTE, len);
            }
        }
    }

    fn on_rp_update(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        from: Option<NodeId>,
        cds: Vec<Name>,
        new_rp: RpId,
    ) {
        // Flood dedup key over (rp, cds).
        let mut key = u64::from(new_rp.0) << 32;
        for cd in &cds {
            key ^= cd.stable_hash().rotate_left(7);
        }
        if !self.seen_updates.insert(key) {
            return;
        }
        // Learn the route to the new RP from the flood's arrival direction
        // (reverse-path FIB construction).
        if let Some(face) = self.face_of(from) {
            if self.ndn.fib().exact(&new_rp.ndn_prefix()).is_none()
                && !self.local_rps.contains(&new_rp)
            {
                self.ndn.fib_mut().add(new_rp.ndn_prefix(), face);
            }
        }
        let (joins, prunes) = self.copss.handle_rp_update(&cds, new_rp);
        self.send_joins(ctx, joins);
        self.defer_prunes(ctx, prunes);
        // A route to the new RP may unblock pending joins.
        let pending = std::mem::take(&mut self.pending_joins);
        self.send_joins(ctx, pending);
        // Re-flood to every router neighbor except the arrival.
        for (face, node) in self.faces.iter().collect::<Vec<_>>() {
            if Some(node) == from {
                continue;
            }
            if ctx.topology().node_kind(node) == gcopss_sim::NodeKind::Host {
                continue;
            }
            self.send_copss(
                ctx,
                face,
                CopssPacket::RpUpdate {
                    cds: cds.clone(),
                    new_rp,
                },
            );
        }
    }

    fn on_rp_handoff(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        cds: Vec<Name>,
        new_rp: RpId,
        old_rp: RpId,
    ) {
        // Stage 2 complete: we are now the RP for `cds`. Do not split
        // again before serving a full cooldown's worth of traffic.
        self.local_rps.insert(new_rp);
        self.served_since_split = 0;
        let until = ctx.now() + SPLIT_GRACE;
        for cd in &cds {
            self.tunnel_back.push((cd.clone(), old_rp, until));
        }
        let (joins, prunes) = self.copss.handle_rp_update(&cds, new_rp);
        self.send_joins(ctx, joins);
        self.defer_prunes(ctx, prunes);
        // Stage 3: announce network-wide (journaled so partitioned routers
        // can resynchronize once repaired).
        ctx.world()
            .rp_moves
            .extend(cds.iter().map(|c| (c.clone(), new_rp.0)));
        self.on_rp_update(ctx, None, cds, new_rp);
        ctx.mark("rp-handoff");
    }

    /// Rebuilds every `/rp/<id>` FIB entry from the world's RP registry and
    /// the freshly recomputed routing table. Entries toward currently
    /// unreachable RP hosts are removed, so their traffic is counted as
    /// `torp-no-route` instead of being fed into a dead link.
    fn repair_rp_routes(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let me = ctx.node();
        let locs: Vec<(u32, u32)> = ctx
            .world()
            .rp_locations
            .iter()
            .map(|(&rp, &node)| (rp, node))
            .collect();
        for (rp, node) in locs {
            let rp = RpId(rp);
            if self.local_rps.contains(&rp) {
                continue;
            }
            let target = NodeId(node);
            let face = if target == me {
                None
            } else {
                ctx.routing()
                    .next_hop(me, target)
                    .and_then(|hop| self.faces.face_of(hop))
            };
            let prefix = rp.ndn_prefix();
            self.ndn.fib_mut().remove_prefix(&prefix);
            if let Some(face) = face {
                self.ndn.fib_mut().add(prefix, face);
            }
        }
    }

    /// Re-expresses every join this router believes it holds upstream (the
    /// repaired path may differ from the one the joins were sent along, and
    /// an upstream may have purged our branch), and retries joins that were
    /// parked waiting for a route.
    fn refresh_joins(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let mut joins = self.copss.refresh_joins();
        for j in std::mem::take(&mut self.pending_joins) {
            if !joins.contains(&j) {
                joins.push(j);
            }
        }
        self.send_joins(ctx, joins);
    }

    /// Detects RPs whose host became unreachable and hands their prefixes
    /// to the lowest-numbered surviving RP through the ordinary RP-update
    /// flood (§IV-B machinery reused for failover). Any router adjacent to
    /// the fault may initiate; the world's RP registry is updated by the
    /// first initiator, so later notices skip the already-failed-over RP,
    /// and the flood dedup absorbs any duplicates in flight.
    fn check_rp_failover(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let me = ctx.node();
        let locs: Vec<(u32, u32)> = ctx
            .world()
            .rp_locations
            .iter()
            .map(|(&rp, &node)| (rp, node))
            .collect();
        let mut survivor = None;
        let mut dead_rps = Vec::new();
        for &(rp, node) in &locs {
            let up = NodeId(node) == me || ctx.routing().next_hop(me, NodeId(node)).is_some();
            if up {
                survivor.get_or_insert(RpId(rp));
            } else {
                dead_rps.push(rp);
            }
        }
        let Some(survivor) = survivor else { return };
        for rp in dead_rps {
            let moved = self.copss.rp_table().prefixes_of(RpId(rp));
            if moved.is_empty() {
                continue; // served nothing, or already moved by a flood
            }
            ctx.world().rp_locations.remove(&rp);
            ctx.world().bump("rp-failovers");
            ctx.counter("rp-failovers", 1);
            ctx.mark("rp-failover");
            ctx.world()
                .rp_moves
                .extend(moved.iter().map(|c| (c.clone(), survivor.0)));
            self.on_rp_update(ctx, None, moved, survivor);
        }
    }

    /// Replays the world's RP move journal against our RP table. The
    /// RP-update flood cannot reach a router that the very fault being
    /// repaired had partitioned (or crashed), so on a repair notice the
    /// router catches up on any moves it missed: last write per prefix
    /// wins, and prefixes already mapped correctly are no-ops. Runs after
    /// [`Self::repair_rp_routes`] so re-joins travel the repaired routes.
    fn resync_rp_moves(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        if ctx.world().rp_moves.is_empty() {
            return;
        }
        let mut latest: BTreeMap<Name, u32> = BTreeMap::new();
        for (cd, rp) in ctx.world().rp_moves.clone() {
            latest.insert(cd, rp);
        }
        for (cd, rp) in latest {
            let rp = RpId(rp);
            if self.copss.rp_table().rp_for(&cd) == Some(rp) {
                continue;
            }
            let (joins, prunes) = self.copss.handle_rp_update(std::slice::from_ref(&cd), rp);
            self.send_joins(ctx, joins);
            // The old tree died with the fault; prune immediately.
            self.send_prunes(ctx, prunes);
        }
    }
}

/// Carries out one action of the NDN engine: the packet leaves out of the
/// action's face (dropped if the face has no neighbour).
fn send_ndn(faces: &FaceMap, ctx: &mut Ctx<'_, GPacket, GameWorld>, action: NdnAction) {
    let (face, g) = match action {
        NdnAction::SendInterest { face, interest } => (face, GPacket::Interest(interest)),
        NdnAction::SendData { face, data } => (face, GPacket::Data(data)),
    };
    if let Some(node) = faces.node_of(face) {
        packet::send(ctx, node, g);
    }
}

impl NodeBehavior<GPacket, GameWorld> for GCopssRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let Some(iv) = self.recovery.as_ref().and_then(|c| c.subscribe_refresh) else {
            return;
        };
        // A distinct stream from the clients' (which seed with the raw
        // player id): multiply the node id by an odd constant first.
        let mix = (ctx.node().index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.refresh_rng = Some(SmallRng::seed_from_u64(recovery::SEED ^ mix));
        let delay = iv + self.refresh_jitter();
        ctx.schedule(delay, JOIN_REFRESH_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, key: u64) {
        let _p = prof::scope("copss/timer");
        if key == JOIN_REFRESH_TIMER {
            let Some(iv) = self.recovery.as_ref().and_then(|c| c.subscribe_refresh) else {
                return;
            };
            // Soft-state refresh (PIM-style): periodically re-express every
            // join held upstream, one batched Subscribe per RP tree. COPSS
            // aggregation absorbs the refresh at the next hop — it installs
            // no new state in the steady case — but the *packet* still has
            // to transit the upstream service queue, so under overload the
            // control plane genuinely contends with bulk data hop by hop
            // (and the priority lattice has something real to protect).
            let mut per_rp: BTreeMap<RpId, Vec<Name>> = BTreeMap::new();
            for j in self.copss.refresh_joins() {
                per_rp.entry(j.rp).or_default().push(j.name);
            }
            for (rp, cds) in per_rp {
                if self.local_rps.contains(&rp) {
                    continue; // the tree roots here
                }
                if let Some(face) = self.face_toward_rp(rp) {
                    self.send_copss(ctx, face, CopssPacket::Subscribe { cds, rp: Some(rp) });
                }
            }
            let delay = iv + self.refresh_jitter();
            ctx.schedule(delay, JOIN_REFRESH_TIMER);
        } else if key == PRUNE_TIMER {
            let prunes = std::mem::take(&mut self.deferred_prunes);
            // Only prune joins that are still stale (a re-subscription may
            // have made them live again meanwhile).
            let still_stale: Vec<PruneRequest> = prunes
                .into_iter()
                .filter(|p| !self.copss.joined_toward(p.rp).contains(&p.name))
                .collect();
            self.send_prunes(ctx, still_stale);
        } else if key == PIT_SWEEP_TIMER {
            if self.recovery.is_none() {
                return;
            }
            let swept = self.ndn.pit_mut().expire(ctx.now().as_nanos());
            ctx.discard_batch(crate::drops::PIT_EXPIRED, swept);
            // Re-arm only while entries remain, so fault-free runs still
            // drain to quiescence.
            if self.ndn.pit().is_empty() {
                self.sweep_armed = false;
            } else {
                ctx.schedule(recovery::PIT_SWEEP, PIT_SWEEP_TIMER);
            }
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, notice: FaultNotice) {
        let _p = prof::scope("copss/fault_recovery");
        match notice {
            FaultNotice::LinkDown { peer } => {
                let Some(face) = self.faces.face_of(peer) else {
                    return;
                };
                // Purge the per-face soft state of the dead adjacency.
                let (purged, _joins, prunes) = self.copss.handle_face_down(face);
                ctx.discard_batch(crate::drops::ST_PURGED, purged.len());
                let dropped = self.ndn.pit_mut().purge_face(face);
                ctx.discard_batch(crate::drops::PIT_PURGED, dropped);
                // Repair routes first, then re-anchor: joins and prunes
                // must travel the surviving paths.
                self.repair_rp_routes(ctx);
                self.refresh_joins(ctx);
                self.send_prunes(ctx, prunes);
                self.check_rp_failover(ctx);
            }
            FaultNotice::LinkUp { .. } => {
                // A repaired (possibly shorter) path: re-route, catch up on
                // RP moves flooded while we were partitioned, and re-anchor
                // the trees along the new routes.
                self.repair_rp_routes(ctx);
                self.resync_rp_moves(ctx);
                self.refresh_joins(ctx);
                self.check_rp_failover(ctx);
            }
            FaultNotice::Restarted => {
                // Crash-restart loses all soft state; only configuration
                // (RP table, static FIB routes) survives. RP roles that
                // failed over to a survivor while we were down are gone.
                let me = ctx.node();
                let registered: Vec<u32> = ctx
                    .world()
                    .rp_locations
                    .iter()
                    .filter(|&(_, &node)| NodeId(node) == me)
                    .map(|(&rp, _)| rp)
                    .collect();
                self.local_rps.retain(|r| registered.contains(&r.0));
                self.copss.clear_soft_state();
                self.ndn.pit_mut().clear();
                self.seen_updates.clear();
                self.pending_joins.clear();
                self.deferred_prunes.clear();
                self.legacy.clear();
                self.tunnel_back.clear();
                self.traffic = TrafficWindow::new(RP_WINDOW);
                self.served_since_split = self.params.rp_split_cooldown_packets;
                self.sweep_armed = false;
                self.repair_rp_routes(ctx);
                self.check_rp_failover(ctx);
            }
        }
    }

    fn service_time(&self, pkt: &GPacket) -> SimDuration {
        match pkt {
            GPacket::Copss(CopssPacket::Multicast(_)) => COPSS_MULTICAST_PROC,
            GPacket::Copss(_) | GPacket::Control { .. } => CONTROL_PROC,
            GPacket::ToRp { rp, .. } => {
                if self.local_rps.contains(rp) {
                    self.params.rp_proc
                } else {
                    ENCAP_PROC
                }
            }
            GPacket::Interest(_) | GPacket::Data(_) => NDN_PROC,
            GPacket::Ip(_) => IP_PROC,
        }
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let arrival = self.face_of(from);
        match pkt {
            GPacket::Copss(CopssPacket::Subscribe { cds, rp }) => {
                let _p = prof::scope("copss/subscribe");
                let Some(face) = arrival else { return };
                let joins = self.copss.handle_subscribe(face, &cds, rp);
                self.send_joins(ctx, joins);
            }
            GPacket::Copss(CopssPacket::Unsubscribe { cds, rp }) => {
                let _p = prof::scope("copss/unsubscribe");
                let Some(face) = arrival else { return };
                let (joins, prunes) = self.copss.handle_unsubscribe(face, &cds, rp);
                self.send_joins(ctx, joins);
                self.send_prunes(ctx, prunes);
            }
            GPacket::Copss(CopssPacket::Multicast(m)) => {
                let _p = prof::scope("copss/multicast");
                // First hop for a host publication: encapsulate toward the
                // RP. Otherwise: native ST forwarding.
                let from_host =
                    from.is_some_and(|n| ctx.topology().node_kind(n) == gcopss_sim::NodeKind::Host);
                if from_host || from.is_none() {
                    match self.copss.rp_for_publication(m.cd.name()) {
                        Some(rp) if self.local_rps.contains(&rp) => {
                            self.serve_as_rp(ctx, rp, &m);
                        }
                        Some(rp) => self.on_to_rp(ctx, rp, m),
                        None => {
                            let len = m.encoded_len() as u32;
                            ctx.discard(crate::drops::PUBLICATION_UNSERVED_CD, len);
                        }
                    }
                } else {
                    self.multicast(ctx, &m, arrival);
                }
            }
            GPacket::Copss(CopssPacket::FibAdd { prefixes }) => {
                let _p = prof::scope("copss/fib_update");
                if let Some(face) = arrival {
                    for p in prefixes {
                        self.ndn.fib_mut().add(p, face);
                    }
                }
            }
            GPacket::Copss(CopssPacket::FibRemove { prefixes }) => {
                let _p = prof::scope("copss/fib_update");
                if let Some(face) = arrival {
                    for p in prefixes {
                        self.ndn.fib_mut().remove(&p, face);
                    }
                }
            }
            GPacket::Copss(CopssPacket::RpUpdate { cds, new_rp }) => {
                let _p = prof::scope("copss/rp_update");
                self.on_rp_update(ctx, from, cds, new_rp);
            }
            GPacket::Copss(CopssPacket::RpHandoff {
                cds,
                new_rp,
                old_rp,
            }) => {
                let _p = prof::scope("copss/rp_handoff");
                // Bare handoff (not wrapped): treat as addressed to us.
                self.on_rp_handoff(ctx, cds, new_rp, old_rp);
            }
            GPacket::Control { dst, inner } => {
                let _p = prof::scope("copss/control");
                if dst == ctx.node() {
                    // `Control` is only ever built around an `RpHandoff`
                    // (by the split above) and re-wrapped unchanged when
                    // forwarded, so nothing else can arrive here.
                    if let CopssPacket::RpHandoff {
                        cds,
                        new_rp,
                        old_rp,
                    } = inner
                    {
                        self.on_rp_handoff(ctx, cds, new_rp, old_rp);
                    }
                } else {
                    // Route onward; if it is a handoff, install the FIB
                    // entry for the new RP toward the destination (the
                    // paper's FIB-add along the old→new RP path).
                    if let CopssPacket::RpHandoff { new_rp, .. } = &inner {
                        if let Some(hop) = ctx.routing().next_hop(ctx.node(), dst) {
                            if let Some(face) = self.faces.face_of(hop) {
                                self.ndn.fib_mut().add(new_rp.ndn_prefix(), face);
                            }
                        }
                    }
                    packet::send_toward(ctx, dst, GPacket::Control { dst, inner });
                }
            }
            GPacket::ToRp { rp, inner } => {
                let _p = prof::scope("copss/to_rp");
                self.on_to_rp(ctx, rp, inner);
            }
            GPacket::Interest(i) => {
                let _p = prof::scope("ndn/interest");
                let Some(face) = arrival else { return };
                let now = ctx.now().as_nanos();
                let pfx = cs_prefix_key(&i.name);
                let hits_before = self.ndn.content_store().hits();
                let faces = &self.faces;
                self.ndn
                    .process_interest(now, face, i, |a| send_ndn(faces, ctx, a));
                // After the hit's send: it only bumps counters and streams,
                // and sends leave only once this callback returns.
                let hit = self.ndn.content_store().hits() > hits_before;
                self.note_cs_lookup(ctx, pfx, hit);
                // Recovery mode: keep a periodic sweep armed while
                // breadcrumbs exist, so orphaned entries (satellite of the
                // fault model — Data lost on a dead link never consumes
                // them) are reclaimed and counted.
                if self.recovery.is_some() && !self.sweep_armed && !self.ndn.pit().is_empty() {
                    self.sweep_armed = true;
                    ctx.schedule(recovery::PIT_SWEEP, PIT_SWEEP_TIMER);
                }
            }
            GPacket::Data(d) => {
                let _p = prof::scope("ndn/data");
                let Some(face) = arrival else { return };
                let now = ctx.now().as_nanos();
                let before = self.ndn.unsolicited_data();
                let faces = &self.faces;
                self.ndn
                    .process_data(now, face, d, |a| send_ndn(faces, ctx, a));
                if self.ndn.unsolicited_data() > before {
                    ctx.world().bump("ndn-unsolicited-data");
                }
            }
            GPacket::Ip(ip) => {
                let _p = prof::scope("ip/route");
                crate::hybrid::route_ip_at_router(ctx, ip);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_map_is_deterministic() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.try_add_link(b, a, SimDuration::from_millis(1), None)
            .unwrap();
        t.try_add_link(b, c, SimDuration::from_millis(1), None)
            .unwrap();
        let fm = FaceMap::new(&t, b);
        assert_eq!(fm.iter().count(), 2);
        assert_eq!(fm.face_of(a), Some(FaceId(0)));
        assert_eq!(fm.face_of(c), Some(FaceId(1)));
        assert_eq!(fm.node_of(FaceId(0)), Some(a));
        assert_eq!(fm.node_of(FaceId(9)), None);
        assert_eq!(fm.face_of(b), None);
    }
}
