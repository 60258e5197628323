//! Scenario assembly: builds complete simulations (topology + routing +
//! behaviors) for every evaluated system.

use std::collections::BTreeMap;
use std::sync::Arc;

use gcopss_copss::{CopssEngine, RpId, RpTable};
use gcopss_game::trace::TraceEvent;
use gcopss_game::{GameMap, MoveEvent, PlayerId, PlayerPopulation};
use gcopss_names::Name;
use gcopss_ndn::FaceId;
use gcopss_sim::generators::{attach_hosts, benchmark_testbed, rocketfuel_like, BackboneParams};
use gcopss_sim::{
    FaultPlan, NodeBehavior, NodeId, OverloadConfig, PacketMeta, RoutingTable, SimDuration,
    SimTime, Simulator, StreamConfig, Topology,
};

use crate::broker::SnapshotMode;
use crate::client::{CatchUpConfig, GamePlayerClient, TraceCursor};
use crate::hybrid::HybridEdgeRouter;
use crate::ip_server::{partition_cds_to_servers, IpClient, IpServer, Roster};
use crate::ndn_baseline::{player_prefix, NdnClientConfig, NdnPlayerClient};
use crate::router::{FaceMap, GCopssRouter, SplitConfig};
use crate::{GPacket, GameWorld, MetricsMode, RateAdaptConfig, RecoveryConfig, SimParams};

/// Which physical network to simulate.
#[derive(Debug, Clone)]
pub enum NetworkSpec {
    /// The 6-router lab testbed of Fig. 3b (microbenchmark).
    Testbed,
    /// A Rocketfuel-like backbone (§V-B).
    Backbone {
        /// Topology seed.
        seed: u64,
        /// Generator parameters (79 core routers by default).
        params: BackboneParams,
    },
}

impl NetworkSpec {
    /// The paper's large-scale network with default parameters.
    #[must_use]
    pub fn default_backbone(seed: u64) -> Self {
        Self::Backbone {
            seed,
            params: BackboneParams::default(),
        }
    }

    /// The router nodes where RPs/servers/brokers would be placed, in
    /// placement order — lets callers pick `ExtraHost::attach_to` points
    /// before building.
    #[must_use]
    pub fn rp_pool_preview(&self) -> Vec<NodeId> {
        self.build().rp_pool
    }

    /// The access links the build will create for `players` hosts, in
    /// player order. Players attach right after the core is built — one
    /// access link each, before any [`ExtraHost`] links — so the ids simply
    /// continue the core sequence. This is the deterministic handle a chaos
    /// plan needs to cut a cohort of clients off (e.g. a mass-reconnect
    /// storm).
    #[must_use]
    pub fn player_access_links(&self, players: usize) -> Vec<gcopss_sim::LinkId> {
        let base = self.build().topology.link_count();
        (0..players)
            .map(|i| gcopss_sim::LinkId((base + i) as u32))
            .collect()
    }

    /// The router-router links of the base network, in id order — the
    /// candidate set for chaos link flaps. Hosts attach *after* the core is
    /// built, so every base link is a core link and the ids are stable
    /// across the G-COPSS/IP/NDN builds of the same spec.
    #[must_use]
    pub fn core_links_preview(&self) -> Vec<gcopss_sim::LinkId> {
        let n = u32::try_from(self.build().topology.link_count()).expect("link count fits u32");
        (0..n).map(gcopss_sim::LinkId).collect()
    }

    fn build(&self) -> BuiltNetwork {
        match self {
            Self::Testbed => {
                let (topology, routers) = benchmark_testbed();
                BuiltNetwork {
                    attach_points: routers.clone(),
                    rp_pool: routers.clone(),
                    routers,
                    topology,
                }
            }
            Self::Backbone { seed, params } => {
                let b = rocketfuel_like(*seed, params);
                // Spread RP/server placements over the core with a stride
                // so consecutive picks land far apart.
                let stride = 29usize;
                let mut rp_pool = Vec::new();
                let n = b.core.len();
                for i in 0..n {
                    let c = b.core[(i * stride) % n];
                    if !rp_pool.contains(&c) {
                        rp_pool.push(c);
                    }
                }
                for &c in &b.core {
                    if !rp_pool.contains(&c) {
                        rp_pool.push(c);
                    }
                }
                BuiltNetwork {
                    routers: b
                        .core
                        .iter()
                        .chain(b.edge.iter())
                        .copied()
                        .collect(),
                    attach_points: b.edge,
                    rp_pool,
                    topology: b.topology,
                }
            }
        }
    }
}

struct BuiltNetwork {
    topology: Topology,
    routers: Vec<NodeId>,
    attach_points: Vec<NodeId>,
    rp_pool: Vec<NodeId>,
}

/// Partitions the map's level-1 CD prefixes across `n` RPs (or servers),
/// round-robin. `n = 1` yields the single root prefix `/`.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds the number of level-1 prefixes.
#[must_use]
pub fn rp_prefix_partition(map: &GameMap, n: usize) -> Vec<Vec<Name>> {
    assert!(n >= 1, "need at least one RP");
    if n == 1 {
        return vec![vec![Name::root()]];
    }
    let mut tops: Vec<Name> = map.leaf_cds().iter().map(|cd| cd.prefix(1)).collect();
    tops.sort();
    tops.dedup();
    assert!(
        n <= tops.len(),
        "cannot spread {} level-1 prefixes across {n} RPs",
        tops.len()
    );
    let mut groups = vec![Vec::new(); n];
    for (i, t) in tops.into_iter().enumerate() {
        groups[i % n].push(t);
    }
    groups
}

/// Time before the first trace event (lets subscriptions settle) in every
/// scenario.
pub const WARMUP: SimDuration = SimDuration::from_secs(2);

/// Configuration of a G-COPSS simulation.
#[derive(Debug, Clone)]
pub struct GcopssConfig {
    /// Calibration constants.
    pub params: SimParams,
    /// Latency-metrics retention.
    pub metrics_mode: MetricsMode,
    /// Exact delivery log + duplicate detection (small runs only).
    pub delivery_log: bool,
    /// Number of initial RPs.
    pub rp_count: usize,
    /// Time before the first trace event (lets subscriptions settle).
    pub warmup: SimDuration,
    /// Extra CD prefixes anchored at RP 0 (e.g. `/snapcast` for movement
    /// scenarios).
    pub extra_rp_prefixes: Vec<Name>,
    /// Additional RPs hosted at explicit router nodes, each serving the
    /// given prefixes — e.g. a dedicated snapshot-stream RP co-located
    /// with each broker so bulk cyclic multicast never shares a core with
    /// the latency-critical game RPs.
    pub extra_rps: Vec<(Vec<Name>, NodeId)>,
    /// Placement strategy for automatically created RPs.
    pub rp_selection: crate::RpSelection,
    /// Failure-recovery tunables. `None` (the default) leaves the
    /// simulation byte-identical to pre-fault-injection builds; `Some`
    /// arms client watchdogs and router PIT sweeps, and requires running
    /// with [`Simulator::run_until`].
    pub recovery: Option<RecoveryConfig>,
    /// Engine overload control (bounded service queues, admission policy,
    /// priority classes, sojourn marking). `None` (the default) — or a
    /// vacuous config — leaves the simulation byte-identical to
    /// pre-overload builds.
    pub overload: Option<OverloadConfig>,
    /// Client-side congestion-feedback rate adaptation. Only meaningful
    /// together with an `overload` config that sets `mark_sojourn`; `None`
    /// (the default) is byte-identical to pre-overload builds.
    pub rate_adapt: Option<RateAdaptConfig>,
    /// In-simulation streaming-metric pipeline (windowed counters, EWMA
    /// gauges, heavy-hitter sketches). The vacuous default is byte-identical
    /// to builds without the pipeline; a non-vacuous config is required for
    /// [`SimParams::rp_adaptive`] / [`SimParams::cache_adaptive`] consumers
    /// to observe anything.
    pub stream: StreamConfig,
}

impl Default for GcopssConfig {
    fn default() -> Self {
        Self {
            params: SimParams::default(),
            metrics_mode: MetricsMode::StatsOnly,
            delivery_log: false,
            rp_count: 3,
            warmup: WARMUP,
            extra_rp_prefixes: Vec::new(),
            extra_rps: Vec::new(),
            rp_selection: crate::RpSelection::default(),
            recovery: None,
            overload: None,
            rate_adapt: None,
            stream: StreamConfig::default(),
        }
    }
}

/// An extra host (broker, monitor, …) attached to the network at build
/// time.
pub struct ExtraHost {
    /// Router the host hangs off (1 ms access link).
    pub attach_to: NodeId,
    /// Name prefixes every router routes toward this host (FIB seeding,
    /// e.g. `/snapshot/...` for a broker).
    pub routes: Vec<Name>,
    /// Behavior factory, invoked with the host's node id and its edge
    /// router's node id.
    #[allow(clippy::type_complexity)]
    pub make: Box<dyn FnOnce(NodeId, NodeId) -> Box<dyn NodeBehavior<GPacket, GameWorld>>>,
}

/// A fully-assembled G-COPSS simulation.
pub struct GcopssSim {
    /// The simulator, ready to run.
    pub sim: Simulator<GPacket, GameWorld>,
    /// Host node of each player.
    pub player_nodes: Vec<NodeId>,
    /// Where the initial RPs live.
    pub rp_nodes: BTreeMap<RpId, NodeId>,
    /// Nodes created for [`ExtraHost`]s, in input order.
    pub extra_nodes: Vec<NodeId>,
    /// End of the warmup period (first trace event earliest time).
    pub warmup: SimDuration,
}

/// Which evaluated system a [`ScenarioSpec`] assembles, with its
/// protocol-specific configuration.
#[derive(Debug, Clone)]
pub enum Protocol {
    /// G-COPSS proper: routers with NDN+COPSS engines and dynamic RPs.
    Gcopss(GcopssConfig),
    /// The IP client/server baseline.
    IpServer(IpConfig),
    /// Hybrid-G-COPSS: COPSS edge + IP multicast core (§III-D).
    Hybrid(HybridConfig),
    /// The VoCCN-style NDN query/response baseline.
    NdnBaseline(NdnBaselineConfig),
}

/// Declarative description of one complete simulation, replacing the old
/// multi-positional `build_*` functions: every scenario is "a [`Protocol`]
/// on a [`NetworkSpec`] with a game world", plus optional extras (brokers,
/// a movement schedule, offline players, snapshot catch-up, a chaos
/// schedule).
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec};
/// # use gcopss_game::{GameMap, PlayerPopulation};
/// let map = Arc::new(GameMap::paper_map());
/// let pop = PlayerPopulation::uniform_per_area(&map, 1);
/// let trace = Arc::new(Vec::new());
/// let built = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
///     .gcopss(GcopssConfig::default())
///     .build()
///     .into_gcopss();
/// assert_eq!(built.player_nodes.len(), pop.len());
/// ```
pub struct ScenarioSpec<'a> {
    protocol: Protocol,
    net: NetworkSpec,
    map: Arc<GameMap>,
    population: &'a PlayerPopulation,
    trace: Arc<Vec<TraceEvent>>,
    extra_hosts: Vec<ExtraHost>,
    players: PlayerSpec,
    fault_plan: Option<FaultPlan>,
}

/// What a [`ScenarioSpec`] says about its G-COPSS players beyond the
/// [`GcopssConfig`]: plain data, applied player by player in
/// `assemble_gcopss`.
struct PlayerSpec {
    catch_up: Option<CatchUpConfig>,
    /// Every player's moves, in schedule order.
    moves: Vec<MoveEvent>,
    /// How movers and joiners fetch snapshots.
    snapshot_mode: SnapshotMode,
    /// Players that start offline, and when each comes online.
    offline: BTreeMap<PlayerId, SimTime>,
}

impl<'a> ScenarioSpec<'a> {
    /// Starts a spec for the given network and game world. The protocol
    /// defaults to G-COPSS with default configuration.
    #[must_use]
    pub fn new(
        net: &NetworkSpec,
        map: &Arc<GameMap>,
        population: &'a PlayerPopulation,
        trace: &Arc<Vec<TraceEvent>>,
    ) -> Self {
        Self {
            protocol: Protocol::Gcopss(GcopssConfig::default()),
            net: net.clone(),
            map: Arc::clone(map),
            population,
            trace: Arc::clone(trace),
            extra_hosts: Vec::new(),
            players: PlayerSpec {
                catch_up: None,
                moves: Vec::new(),
                snapshot_mode: SnapshotMode::QueryResponse { window: 15 },
                offline: BTreeMap::new(),
            },
            fault_plan: None,
        }
    }

    /// Selects the protocol under evaluation.
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Shorthand for [`Protocol::Gcopss`].
    #[must_use]
    pub fn gcopss(self, cfg: GcopssConfig) -> Self {
        self.protocol(Protocol::Gcopss(cfg))
    }

    /// Shorthand for [`Protocol::IpServer`].
    #[must_use]
    pub fn ip_server(self, cfg: IpConfig) -> Self {
        self.protocol(Protocol::IpServer(cfg))
    }

    /// Shorthand for [`Protocol::Hybrid`].
    #[must_use]
    pub fn hybrid(self, cfg: HybridConfig) -> Self {
        self.protocol(Protocol::Hybrid(cfg))
    }

    /// Shorthand for [`Protocol::NdnBaseline`].
    #[must_use]
    pub fn ndn_baseline(self, cfg: NdnBaselineConfig) -> Self {
        self.protocol(Protocol::NdnBaseline(cfg))
    }

    /// Attaches extra hosts (brokers, monitors, …), in order. G-COPSS only;
    /// other protocols ignore extra hosts.
    #[must_use]
    pub fn extra_hosts(mut self, hosts: Vec<ExtraHost>) -> Self {
        self.extra_hosts.extend(hosts);
        self
    }

    /// Gives the players a movement schedule (§IV-A, Table III): `moves`
    /// holds every player's events in schedule order — each player executes
    /// its own — and `mode` is how a mover fetches the snapshots of the
    /// areas that just became visible. G-COPSS only.
    #[must_use]
    pub fn moves(mut self, moves: Vec<MoveEvent>, mode: SnapshotMode) -> Self {
        self.players.moves = moves;
        self.players.snapshot_mode = mode;
        self
    }

    /// Makes `player` start *offline* (§IV-A): it neither subscribes nor
    /// publishes until `online_at`, then joins the game at its area and
    /// fetches the snapshot of everything it can see, in the mode given to
    /// [`Self::moves`] (QR with a window of 15 otherwise). G-COPSS only.
    #[must_use]
    pub fn offline_until(mut self, player: PlayerId, online_at: SimTime) -> Self {
        self.players.offline.insert(player, online_at);
        self
    }

    /// Enables snapshot catch-up on the G-COPSS clients.
    #[must_use]
    pub fn catch_up(mut self, cfg: CatchUpConfig) -> Self {
        self.players.catch_up = Some(cfg);
        self
    }

    /// Installs a chaos schedule on the built simulator.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Assembles the simulation. Construction order (and therefore every
    /// same-seed run) is identical to the legacy `build_*` functions.
    #[must_use]
    pub fn build(self) -> BuiltScenario {
        let mut built = match self.protocol {
            Protocol::Gcopss(cfg) => BuiltScenario::Gcopss(assemble_gcopss(
                cfg,
                &self.net,
                &self.map,
                self.population,
                &self.trace,
                self.extra_hosts,
                self.players,
            )),
            Protocol::IpServer(cfg) => BuiltScenario::IpServer(assemble_ip_server(
                cfg,
                &self.net,
                &self.map,
                self.population,
                &self.trace,
            )),
            Protocol::Hybrid(cfg) => BuiltScenario::Hybrid(assemble_hybrid(
                cfg,
                &self.net,
                &self.map,
                self.population,
                &self.trace,
            )),
            Protocol::NdnBaseline(cfg) => BuiltScenario::NdnBaseline(assemble_ndn_baseline(
                cfg,
                &self.net,
                &self.map,
                self.population,
                &self.trace,
            )),
        };
        if let Some(plan) = self.fault_plan {
            built.sim_mut().install_faults(plan);
        }
        built
    }
}

/// The result of [`ScenarioSpec::build`]: one fully-assembled simulation,
/// tagged by protocol.
pub enum BuiltScenario {
    /// A G-COPSS simulation.
    Gcopss(GcopssSim),
    /// An IP client/server simulation.
    IpServer(IpSim),
    /// A hybrid-G-COPSS simulation.
    Hybrid(HybridSim),
    /// An NDN-baseline simulation.
    NdnBaseline(NdnSim),
}

impl BuiltScenario {
    /// The simulator, whichever protocol was built.
    pub fn sim_mut(&mut self) -> &mut Simulator<GPacket, GameWorld> {
        match self {
            Self::Gcopss(s) => &mut s.sim,
            Self::IpServer(s) => &mut s.sim,
            Self::Hybrid(s) => &mut s.sim,
            Self::NdnBaseline(s) => &mut s.sim,
        }
    }

    /// The simulator alone, whichever protocol was built — all a caller
    /// needs who only runs the scenario and reads its books.
    #[must_use]
    pub fn into_sim(self) -> Simulator<GPacket, GameWorld> {
        match self {
            Self::Gcopss(s) => s.sim,
            Self::IpServer(s) => s.sim,
            Self::Hybrid(s) => s.sim,
            Self::NdnBaseline(s) => s.sim,
        }
    }

    /// Unwraps a G-COPSS build.
    ///
    /// # Panics
    ///
    /// Panics if the spec selected a different protocol.
    #[must_use]
    pub fn into_gcopss(self) -> GcopssSim {
        match self {
            Self::Gcopss(s) => s,
            _ => panic!("scenario was not built with Protocol::Gcopss"),
        }
    }

    /// Unwraps an IP-server build.
    ///
    /// # Panics
    ///
    /// Panics if the spec selected a different protocol.
    #[must_use]
    pub fn into_ip_server(self) -> IpSim {
        match self {
            Self::IpServer(s) => s,
            _ => panic!("scenario was not built with Protocol::IpServer"),
        }
    }
}

/// The simulator every scenario starts from: a [`GameWorld`] over
/// `topology`, the [`GPacket`] classifiers registered as its
/// [`PacketMeta`], and engine overload control installed when configured.
fn new_sim(
    topology: Topology,
    routing: RoutingTable,
    metrics_mode: MetricsMode,
    delivery_log: bool,
    overload: Option<OverloadConfig>,
) -> Simulator<GPacket, GameWorld> {
    let mut world = GameWorld::new(metrics_mode);
    if delivery_log {
        world = world.with_delivery_log();
    }
    let mut sim = Simulator::with_routing(topology, routing, world);
    sim.set_packet_meta(PacketMeta {
        kind: GPacket::kind,
        lineage_id: GPacket::lineage_id,
        priority: GPacket::priority,
        supersede_key: GPacket::supersede_key,
    });
    if let Some(ov) = overload {
        sim.install_overload(ov);
    }
    sim
}

/// A router hosting no RP (the IP, hybrid-core and NDN-baseline routers):
/// it forwards IP packets, and NDN packets along `fib_routes`.
fn plain_router(
    params: &SimParams,
    faces: FaceMap,
    fib_routes: Vec<(Name, FaceId)>,
    recovery: Option<&RecoveryConfig>,
) -> Box<GCopssRouter> {
    let mut router = GCopssRouter::new(
        params.clone(),
        faces,
        CopssEngine::new(),
        fib_routes,
        std::collections::BTreeSet::new(),
        SplitConfig::default(),
    );
    if let Some(rc) = recovery {
        router = router.with_recovery(rc.clone());
    }
    Box::new(router)
}

/// Where the behavior of player `p` (host `node`) plugs in: its edge router
/// and its cursor over the shared trace, offset by `warmup`.
fn player_seat(
    sim: &Simulator<GPacket, GameWorld>,
    node: NodeId,
    trace: &Arc<Vec<TraceEvent>>,
    p: PlayerId,
    warmup: SimDuration,
) -> (NodeId, TraceCursor) {
    let (edge, _) = sim
        .topology()
        .neighbors(node)
        .next()
        .expect("player attached");
    (edge, TraceCursor::for_player(Arc::clone(trace), p, warmup))
}

fn assemble_gcopss(
    cfg: GcopssConfig,
    net: &NetworkSpec,
    map: &Arc<GameMap>,
    population: &PlayerPopulation,
    trace: &Arc<Vec<TraceEvent>>,
    extra_hosts: Vec<ExtraHost>,
    players: PlayerSpec,
) -> GcopssSim {
    let mut bn = net.build();
    let player_nodes = attach_hosts(
        &mut bn.topology,
        &bn.attach_points,
        population.len(),
        SimDuration::from_millis(1),
        "player",
    );
    let mut extra_nodes = Vec::new();
    let mut extra_makes = Vec::new();
    for h in extra_hosts {
        let node = bn
            .topology
            .add_node_kind(format!("extra{}", extra_nodes.len()), gcopss_sim::NodeKind::Host);
        bn.topology
            .try_add_link(node, h.attach_to, SimDuration::from_millis(1), None)
            .expect("extra host attaches to a known router");
        extra_nodes.push(node);
        extra_makes.push((node, h.attach_to, h.routes, h.make));
    }
    let routing = RoutingTable::shortest_paths(&bn.topology);

    // Initial RP assignment.
    let groups = rp_prefix_partition(map, cfg.rp_count);
    let mut rp_table = RpTable::new();
    let mut rp_nodes = BTreeMap::new();
    for (i, group) in groups.iter().enumerate() {
        let rp = RpId(i as u32);
        for prefix in group {
            rp_table
                .assign(prefix.clone(), rp)
                .expect("partition is prefix-free");
        }
        rp_nodes.insert(rp, bn.rp_pool[i % bn.rp_pool.len()]);
    }
    for prefix in &cfg.extra_rp_prefixes {
        rp_table
            .assign(prefix.clone(), RpId(0))
            .expect("extra prefixes must not overlap the map namespace");
    }
    for (prefixes, node) in &cfg.extra_rps {
        let rp = RpId(rp_nodes.len() as u32);
        for prefix in prefixes {
            rp_table
                .assign(prefix.clone(), rp)
                .expect("extra RP prefixes must be disjoint");
        }
        rp_nodes.insert(rp, *node);
    }

    let mut sim = new_sim(
        bn.topology,
        routing,
        cfg.metrics_mode,
        cfg.delivery_log,
        cfg.overload.clone(),
    );
    let world = sim.world_mut();
    world.next_rp_id = cfg.rp_count as u32;
    for (rp, node) in &rp_nodes {
        world.rp_locations.insert(rp.0, node.0);
    }
    sim.install_streams(cfg.stream.clone());

    // Routers.
    for &r in &bn.routers {
        let faces = FaceMap::new(sim.topology(), r);
        let mut copss = CopssEngine::new();
        for (prefix, rp) in rp_table.assignments() {
            copss
                .rp_table_mut()
                .assign(prefix, rp)
                .expect("prefix-free");
        }
        let mut local_rps = std::collections::BTreeSet::new();
        let mut fib_routes: Vec<(Name, FaceId)> = Vec::new();
        for (&rp, &node) in &rp_nodes {
            if node == r {
                local_rps.insert(rp);
            } else if let Some(hop) = sim.routing().next_hop(r, node) {
                if let Some(face) = faces.face_of(hop) {
                    fib_routes.push((rp.ndn_prefix(), face));
                }
            }
        }
        for (node, _, routes, _) in &extra_makes {
            if let Some(hop) = sim.routing().next_hop(r, *node) {
                if let Some(face) = faces.face_of(hop) {
                    for prefix in routes {
                        fib_routes.push((prefix.clone(), face));
                    }
                }
            }
        }
        let split = SplitConfig {
            candidates: bn.rp_pool.clone(),
            strategy: cfg.rp_selection,
        };
        let mut router =
            GCopssRouter::new(cfg.params.clone(), faces, copss, fib_routes, local_rps, split);
        if let Some(rc) = &cfg.recovery {
            router = router.with_recovery(rc.clone());
        }
        sim.set_behavior(r, Box::new(router));
    }

    // Players: each mover gets its own events, split once, in schedule
    // order.
    let mut moves_of: BTreeMap<PlayerId, Vec<MoveEvent>> = BTreeMap::new();
    for m in players.moves {
        moves_of.entry(m.player).or_default().push(m);
    }
    for p in population.players() {
        let node = player_nodes[p.index()];
        let (edge, cursor) = player_seat(&sim, node, trace, p, cfg.warmup);
        let mut client =
            GamePlayerClient::new(p, edge, population.area_of(p), Arc::clone(map), cursor);
        if let Some(rc) = &cfg.recovery {
            client = client.with_recovery(rc.clone());
        }
        if let Some(ra) = &cfg.rate_adapt {
            client = client.with_rate_adapt(ra.clone());
        }
        if let Some(cu) = &players.catch_up {
            client = client.with_catch_up(cu.clone());
        }
        let moves = moves_of.remove(&p).unwrap_or_default();
        let online_at = players.offline.get(&p).copied();
        if !moves.is_empty() || online_at.is_some() {
            client = client.with_mover(moves, players.snapshot_mode, online_at);
        }
        sim.set_behavior(node, Box::new(client));
    }

    // Extra hosts.
    for (node, edge, _, make) in extra_makes {
        let behavior = make(node, edge);
        sim.set_behavior(node, behavior);
    }

    GcopssSim {
        sim,
        player_nodes,
        rp_nodes,
        extra_nodes,
        warmup: cfg.warmup,
    }
}

/// Configuration of an IP client/server baseline simulation.
#[derive(Debug, Clone)]
pub struct IpConfig {
    /// Calibration constants.
    pub params: SimParams,
    /// Latency-metrics retention.
    pub metrics_mode: MetricsMode,
    /// Exact delivery log (small runs only).
    pub delivery_log: bool,
    /// Number of game servers.
    pub server_count: usize,
    /// Failure-recovery tunables: `Some` enables the session model
    /// (client `Hello`s, server connection table, reconnect watchdogs).
    pub recovery: Option<RecoveryConfig>,
    /// Engine overload control; `None` (or a vacuous config) is
    /// byte-identical to pre-overload builds.
    pub overload: Option<OverloadConfig>,
    /// Client-side congestion-feedback rate adaptation (see
    /// [`GcopssConfig::rate_adapt`]).
    pub rate_adapt: Option<RateAdaptConfig>,
}

impl Default for IpConfig {
    fn default() -> Self {
        Self {
            params: SimParams::default(),
            metrics_mode: MetricsMode::StatsOnly,
            delivery_log: false,
            server_count: 3,
            recovery: None,
            overload: None,
            rate_adapt: None,
        }
    }
}

/// A fully-assembled IP-server baseline simulation.
pub struct IpSim {
    /// The simulator, ready to run.
    pub sim: Simulator<GPacket, GameWorld>,
    /// Host node of each player.
    pub player_nodes: Vec<NodeId>,
    /// The server nodes.
    pub server_nodes: Vec<NodeId>,
}

fn assemble_ip_server(
    cfg: IpConfig,
    net: &NetworkSpec,
    map: &Arc<GameMap>,
    population: &PlayerPopulation,
    trace: &Arc<Vec<TraceEvent>>,
) -> IpSim {
    let mut bn = net.build();
    let player_nodes = attach_hosts(
        &mut bn.topology,
        &bn.attach_points,
        population.len(),
        SimDuration::from_millis(1),
        "player",
    );
    // Servers attach to the RP pool positions (R1 on the testbed).
    let mut server_nodes = Vec::new();
    for i in 0..cfg.server_count {
        let at = bn.rp_pool[i % bn.rp_pool.len()];
        let node = bn
            .topology
            .add_node_kind(format!("server{i}"), gcopss_sim::NodeKind::Host);
        bn.topology
            .try_add_link(node, at, SimDuration::from_millis(1), None)
            .expect("server attaches to a known router");
        server_nodes.push(node);
    }
    let routing = RoutingTable::shortest_paths(&bn.topology);

    let mut sim = new_sim(
        bn.topology,
        routing,
        cfg.metrics_mode,
        cfg.delivery_log,
        cfg.overload.clone(),
    );

    // Plain IP routers (a G-COPSS router with no RPs forwards IP packets).
    for &r in &bn.routers {
        let faces = FaceMap::new(sim.topology(), r);
        sim.set_behavior(r, plain_router(&cfg.params, faces, Vec::new(), cfg.recovery.as_ref()));
    }

    let areas: Vec<_> = population.players().map(|p| population.area_of(p)).collect();
    let roster = Arc::new(Roster::new(map, player_nodes.clone(), areas));
    for &s in &server_nodes {
        let mut server = IpServer::new(cfg.params.clone(), Arc::clone(&roster));
        if let Some(rc) = &cfg.recovery {
            server = server.with_recovery(rc.clone());
        }
        sim.set_behavior(s, Box::new(server));
    }

    let server_of = Arc::new(partition_cds_to_servers(map, &server_nodes));
    for p in population.players() {
        let node = player_nodes[p.index()];
        let (edge, cursor) = player_seat(&sim, node, trace, p, WARMUP);
        let mut client = IpClient::new(p, edge, Arc::clone(&server_of), cursor);
        if let Some(rc) = &cfg.recovery {
            client = client.with_recovery(rc.clone());
        }
        if let Some(ra) = &cfg.rate_adapt {
            client = client.with_rate_adapt(ra.clone());
        }
        sim.set_behavior(node, Box::new(client));
    }

    IpSim {
        sim,
        player_nodes,
        server_nodes,
    }
}

/// Configuration of a hybrid-G-COPSS simulation (§III-D).
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Latency-metrics retention.
    pub metrics_mode: MetricsMode,
    /// Exact delivery log (small runs only).
    pub delivery_log: bool,
    /// Available IP multicast groups (Table II uses 6).
    pub group_count: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            metrics_mode: MetricsMode::StatsOnly,
            delivery_log: false,
            group_count: 6,
        }
    }
}

/// A fully-assembled hybrid-G-COPSS simulation.
pub struct HybridSim {
    /// The simulator, ready to run.
    pub sim: Simulator<GPacket, GameWorld>,
    /// Host node of each player.
    pub player_nodes: Vec<NodeId>,
}

fn assemble_hybrid(
    cfg: HybridConfig,
    net: &NetworkSpec,
    map: &Arc<GameMap>,
    population: &PlayerPopulation,
    trace: &Arc<Vec<TraceEvent>>,
) -> HybridSim {
    let mut bn = net.build();
    let player_nodes = attach_hosts(
        &mut bn.topology,
        &bn.attach_points,
        population.len(),
        SimDuration::from_millis(1),
        "player",
    );
    let routing = RoutingTable::shortest_paths(&bn.topology);
    let mut sim = new_sim(bn.topology, routing, cfg.metrics_mode, cfg.delivery_log, None);

    let params = SimParams::default();
    for &r in &bn.routers {
        let faces = FaceMap::new(sim.topology(), r);
        if bn.attach_points.contains(&r) {
            sim.set_behavior(r, Box::new(HybridEdgeRouter::new(faces, cfg.group_count)));
        } else {
            sim.set_behavior(r, plain_router(&params, faces, Vec::new(), None));
        }
    }

    for p in population.players() {
        let node = player_nodes[p.index()];
        let (edge, cursor) = player_seat(&sim, node, trace, p, WARMUP);
        let client = GamePlayerClient::new(p, edge, population.area_of(p), Arc::clone(map), cursor);
        sim.set_behavior(node, Box::new(client));
    }

    HybridSim { sim, player_nodes }
}

/// Configuration of the NDN (VoCCN-style) baseline simulation.
#[derive(Debug, Clone)]
pub struct NdnBaselineConfig {
    /// Calibration constants.
    pub params: SimParams,
    /// Latency-metrics retention.
    pub metrics_mode: MetricsMode,
    /// Exact delivery log (small runs only).
    pub delivery_log: bool,
    /// Client pipelining/accumulation settings.
    pub client: NdnClientConfig,
    /// Failure-recovery tunables: `Some` enables the router PIT sweep and
    /// forces `client.retry_forever` so lost Interests are always
    /// re-expressed eventually.
    pub recovery: Option<RecoveryConfig>,
    /// Engine overload control; `None` (or a vacuous config) is
    /// byte-identical to pre-overload builds. The NDN baseline has no
    /// client-side rate adaptation: its consumers pull (Interests pace the
    /// producers already), so only the router queues are overload-managed.
    pub overload: Option<OverloadConfig>,
}

impl Default for NdnBaselineConfig {
    fn default() -> Self {
        Self {
            params: SimParams::default(),
            metrics_mode: MetricsMode::StatsOnly,
            delivery_log: false,
            client: NdnClientConfig::default(),
            recovery: None,
            overload: None,
        }
    }
}

/// A fully-assembled NDN-baseline simulation.
pub struct NdnSim {
    /// The simulator. Because consumers poll forever, run it with
    /// [`Simulator::run_until`] up to a horizon rather than to quiescence.
    pub sim: Simulator<GPacket, GameWorld>,
    /// Host node of each player.
    pub player_nodes: Vec<NodeId>,
}

fn assemble_ndn_baseline(
    cfg: NdnBaselineConfig,
    net: &NetworkSpec,
    map: &Arc<GameMap>,
    population: &PlayerPopulation,
    trace: &Arc<Vec<TraceEvent>>,
) -> NdnSim {
    let mut bn = net.build();
    let player_nodes = attach_hosts(
        &mut bn.topology,
        &bn.attach_points,
        population.len(),
        SimDuration::from_millis(1),
        "player",
    );
    let routing = RoutingTable::shortest_paths(&bn.topology);
    let mut sim = new_sim(
        bn.topology,
        routing,
        cfg.metrics_mode,
        cfg.delivery_log,
        cfg.overload.clone(),
    );

    // NDN routers with /player/<id> routes toward every player host.
    for &r in &bn.routers {
        let faces = FaceMap::new(sim.topology(), r);
        let mut fib_routes: Vec<(Name, FaceId)> = Vec::new();
        for p in population.players() {
            let node = player_nodes[p.index()];
            if let Some(hop) = sim.routing().next_hop(r, node) {
                if let Some(face) = faces.face_of(hop) {
                    fib_routes.push((player_prefix(p), face));
                }
            }
        }
        sim.set_behavior(r, plain_router(&cfg.params, faces, fib_routes, cfg.recovery.as_ref()));
    }

    let mut client_cfg = cfg.client.clone();
    if cfg.recovery.is_some() {
        client_cfg.retry_forever = true;
    }
    let areas: Vec<_> = population.players().map(|p| population.area_of(p)).collect();
    let rosters = NdnPlayerClient::rosters(map, &areas);
    for p in population.players() {
        let node = player_nodes[p.index()];
        let (edge, cursor) = player_seat(&sim, node, trace, p, WARMUP);
        sim.set_behavior(
            node,
            Box::new(NdnPlayerClient::new(
                p,
                edge,
                client_cfg.clone(),
                cursor,
                rosters[p.index()].clone(),
            )),
        );
    }

    NdnSim { sim, player_nodes }
}

/// For every leaf CD of `map`, the players who can see it (their AoI
/// covers its area) under static placements.
pub(crate) fn viewers_by_cd<'m>(
    map: &'m GameMap,
    population: &PlayerPopulation,
) -> BTreeMap<&'m Name, Vec<PlayerId>> {
    let viewers_of = |cd: &'m Name| {
        let area = map.area_of_leaf_cd(cd).expect("leaf CD");
        let who = population
            .players()
            .filter(|p| map.can_see(population.area_of(*p), area))
            .collect();
        (cd, who)
    };
    map.leaf_cds().iter().map(viewers_of).collect()
}

/// The number of deliveries a correct dissemination must produce for
/// `trace` with static player placements: for every event, every player
/// that can see the event's area, minus the publisher.
#[must_use]
pub fn expected_deliveries(
    map: &GameMap,
    population: &PlayerPopulation,
    trace: &[TraceEvent],
) -> u64 {
    let viewers = viewers_by_cd(map, population);
    trace
        .iter()
        .map(|e| (viewers.get(&e.cd).map_or(0, Vec::len) as u64).saturating_sub(1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rp_partition_shapes() {
        let map = GameMap::paper_map();
        assert_eq!(rp_prefix_partition(&map, 1), vec![vec![Name::root()]]);
        let g3 = rp_prefix_partition(&map, 3);
        assert_eq!(g3.len(), 3);
        let all: Vec<Name> = g3.iter().flatten().cloned().collect();
        assert_eq!(all.len(), 6); // /0, /1..5
        let g6 = rp_prefix_partition(&map, 6);
        assert!(g6.iter().all(|g| g.len() == 1));
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn rp_partition_rejects_too_many() {
        let map = GameMap::paper_map();
        let _ = rp_prefix_partition(&map, 7);
    }

    #[test]
    fn spec_builds_every_protocol() {
        let map = Arc::new(GameMap::paper_map());
        let pop = PlayerPopulation::uniform_per_area(&map, 1);
        let trace: Arc<Vec<TraceEvent>> = Arc::new(Vec::new());
        let net = NetworkSpec::Testbed;

        let g = ScenarioSpec::new(&net, &map, &pop, &trace).build().into_gcopss();
        assert_eq!(g.player_nodes.len(), pop.len());
        let ip = ScenarioSpec::new(&net, &map, &pop, &trace)
            .ip_server(IpConfig::default())
            .build()
            .into_ip_server();
        assert_eq!(ip.server_nodes.len(), IpConfig::default().server_count);
        let hy = ScenarioSpec::new(&net, &map, &pop, &trace)
            .hybrid(HybridConfig::default())
            .build();
        let BuiltScenario::Hybrid(hy) = hy else {
            panic!("scenario was not built with Protocol::Hybrid");
        };
        assert_eq!(hy.player_nodes.len(), pop.len());
        let ndn = ScenarioSpec::new(&net, &map, &pop, &trace)
            .ndn_baseline(NdnBaselineConfig::default())
            .build();
        let BuiltScenario::NdnBaseline(ndn) = ndn else {
            panic!("scenario was not built with Protocol::NdnBaseline");
        };
        assert_eq!(ndn.player_nodes.len(), pop.len());
    }

    #[test]
    #[should_panic(expected = "not built with Protocol::Gcopss")]
    fn built_scenario_unwrap_checks_protocol() {
        let map = Arc::new(GameMap::paper_map());
        let pop = PlayerPopulation::uniform_per_area(&map, 1);
        let trace: Arc<Vec<TraceEvent>> = Arc::new(Vec::new());
        let _ = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
            .ip_server(IpConfig::default())
            .build()
            .into_gcopss();
    }

    #[test]
    fn expected_deliveries_counts_visibility() {
        use gcopss_game::trace::TraceEvent;
        let map = GameMap::paper_map();
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        // One event to zone /1/2: 6 viewers - publisher = 5.
        let trace = vec![TraceEvent {
            time_ns: 0,
            player: PlayerId(0),
            cd: Name::parse_lit("/1/2"),
            object: gcopss_game::ObjectId(0),
            size: 100,
        }];
        assert_eq!(expected_deliveries(&map, &pop, &trace), 5);
        // World layer: 62 viewers - publisher = 61.
        let trace = vec![TraceEvent {
            time_ns: 0,
            player: PlayerId(0),
            cd: Name::parse_lit("/0"),
            object: gcopss_game::ObjectId(0),
            size: 100,
        }];
        assert_eq!(expected_deliveries(&map, &pop, &trace), 61);
    }
}
