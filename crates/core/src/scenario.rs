//! Scenario assembly: builds complete simulations (topology + routing +
//! behaviors) for every evaluated system, each from a [`ScenarioSpec`] into
//! a [`BuiltScenario`].

use std::collections::BTreeMap;
use std::sync::Arc;

use gcopss_copss::{CopssEngine, RpId, RpTable};
use gcopss_game::trace::TraceEvent;
use gcopss_game::{GameMap, MoveEvent, PlayerId, PlayerPopulation};
use gcopss_names::Name;
use gcopss_ndn::FaceId;
use gcopss_sim::generators::{attach_hosts, benchmark_testbed, rocketfuel_like, BackboneParams};
use gcopss_sim::{
    FaultPlan, NodeBehavior, NodeId, OverloadConfig, PacketMeta, SimDuration, SimTime, Simulator,
    StreamConfig, Topology,
};

use crate::broker::SnapshotMode;
use crate::client::{CatchUpConfig, GamePlayerClient, TraceCursor};
use crate::hybrid::HybridEdgeRouter;
use crate::ip_server::{partition_cds_to_servers, IpClient, IpServer, Roster};
use crate::ndn_baseline::{player_prefix, NdnPlayerClient};
use crate::router::{FaceMap, GCopssRouter, SplitConfig};
use crate::{GPacket, GameWorld, MetricsMode, RecoveryConfig, SimParams};

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
                    routers: b.core.iter().chain(b.edge.iter()).copied().collect(),
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

/// Delay of every host access link (players, servers, extra hosts).
const ACCESS_DELAY: SimDuration = SimDuration::from_millis(1);

/// Configuration of a G-COPSS simulation.
#[derive(Debug, Clone)]
pub struct GcopssConfig {
    /// Calibration constants.
    pub params: SimParams,
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
    /// Client-side congestion-feedback rate adaptation
    /// ([`crate::params::rate_adapt`]). Only meaningful together with a
    /// [`ScenarioSpec::overload`] that sets `mark_sojourn`; `false` (the
    /// default) is byte-identical to pre-overload builds.
    pub rate_adapt: bool,
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
            rp_count: 3,
            warmup: WARMUP,
            extra_rp_prefixes: Vec::new(),
            extra_rps: Vec::new(),
            rp_selection: crate::RpSelection::default(),
            recovery: None,
            rate_adapt: false,
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

impl Protocol {
    /// The variant's name, as the build's checks print it.
    fn name(&self) -> &'static str {
        match self {
            Self::Gcopss(_) => "Gcopss",
            Self::IpServer(_) => "IpServer",
            Self::Hybrid(_) => "Hybrid",
            Self::NdnBaseline(_) => "NdnBaseline",
        }
    }
}

/// Declarative description of one complete simulation: every scenario is
/// "a [`Protocol`] on a [`NetworkSpec`] with a game world", plus optional
/// extras (brokers, a movement schedule, offline players, snapshot
/// catch-up, a chaos schedule).
///
/// One rule splits the settings: the spec carries what the world and the
/// engine read — latency-metrics retention, the delivery log, engine
/// overload control, the chaos plan — and is set the same way for every
/// protocol; a protocol config carries what that protocol's behaviors
/// read. The G-COPSS-only parts (extra hosts, moves, offline players,
/// catch-up) fail closed: building another protocol with one panics.
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use gcopss_core::scenario::{GcopssConfig, NetworkSpec, ScenarioSpec, WARMUP};
/// # use gcopss_core::MetricsMode;
/// # use gcopss_game::{GameMap, PlayerPopulation};
/// let map = Arc::new(GameMap::paper_map());
/// let pop = PlayerPopulation::uniform_per_area(&map, 1);
/// let trace = Arc::new(Vec::new());
/// let built = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
///     .gcopss(GcopssConfig::default())
///     .metrics_mode(MetricsMode::Full)
///     .delivery_log()
///     .build()
///     .into_gcopss();
/// assert_eq!(built.player_nodes.len(), pop.len());
/// assert_eq!(built.warmup, WARMUP);
/// ```
pub struct ScenarioSpec<'a> {
    protocol: Protocol,
    net: NetworkSpec,
    map: Arc<GameMap>,
    population: &'a PlayerPopulation,
    trace: Arc<Vec<TraceEvent>>,
    metrics_mode: MetricsMode,
    delivery_log: bool,
    overload: OverloadConfig,
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
    /// defaults to G-COPSS with default configuration, the world keeps
    /// aggregate latency statistics only, and the engine runs without
    /// overload control.
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
            metrics_mode: MetricsMode::StatsOnly,
            delivery_log: false,
            overload: OverloadConfig::default(),
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

    /// How much latency detail the world keeps (default
    /// [`MetricsMode::StatsOnly`]).
    #[must_use]
    pub fn metrics_mode(mut self, mode: MetricsMode) -> Self {
        self.metrics_mode = mode;
        self
    }

    /// Keeps the exact delivery log with duplicate detection
    /// ([`GameWorld::with_delivery_log`]; small runs only).
    #[must_use]
    pub fn delivery_log(mut self) -> Self {
        self.delivery_log = true;
        self
    }

    /// Engine overload control (bounded service queues, admission policy,
    /// priority classes, sojourn marking) for whichever protocol runs. The
    /// vacuous default installs nothing and leaves the simulation
    /// byte-identical to pre-overload builds.
    #[must_use]
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = cfg;
        self
    }

    /// Attaches extra hosts (brokers, monitors, …), in order. G-COPSS only:
    /// building another protocol with extra hosts panics.
    #[must_use]
    pub fn extra_hosts(mut self, hosts: Vec<ExtraHost>) -> Self {
        self.extra_hosts.extend(hosts);
        self
    }

    /// Gives the players a movement schedule (§IV-A, Table III): `moves`
    /// holds every player's events in schedule order — each player executes
    /// its own — and `mode` is how a mover fetches the snapshots of the
    /// areas that just became visible. G-COPSS only: building another
    /// protocol with moves panics.
    #[must_use]
    pub fn moves(mut self, moves: Vec<MoveEvent>, mode: SnapshotMode) -> Self {
        self.players.moves = moves;
        self.players.snapshot_mode = mode;
        self
    }

    /// Makes `player` start *offline* (§IV-A): it neither subscribes nor
    /// publishes until `online_at`, then joins the game at its area and
    /// fetches the snapshot of everything it can see, in the mode given to
    /// [`Self::moves`] (QR with a window of 15 otherwise). G-COPSS only:
    /// building another protocol with an offline player panics.
    #[must_use]
    pub fn offline_until(mut self, player: PlayerId, online_at: SimTime) -> Self {
        self.players.offline.insert(player, online_at);
        self
    }

    /// Enables snapshot catch-up on the G-COPSS clients. G-COPSS only:
    /// building another protocol with catch-up panics.
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

    /// Assembles the simulation: the network with the players and then the
    /// protocol's hosts attached, shortest-path routing and the simulator
    /// are built the same way for every protocol, which then adds only its
    /// router, player and host behaviors.
    ///
    /// # Panics
    ///
    /// Panics if the spec gives a protocol other than G-COPSS extra hosts,
    /// moves, an offline player or catch-up.
    #[must_use]
    pub fn build(self) -> BuiltScenario {
        let Self {
            protocol,
            net,
            map,
            population,
            trace,
            metrics_mode,
            delivery_log,
            overload,
            extra_hosts,
            players,
            fault_plan,
        } = self;
        if !matches!(protocol, Protocol::Gcopss(_)) {
            let gcopss_only = [
                ("extra_hosts", !extra_hosts.is_empty()),
                ("moves", !players.moves.is_empty()),
                ("offline_until", !players.offline.is_empty()),
                ("catch_up", players.catch_up.is_some()),
            ];
            for (part, given) in gcopss_only {
                assert!(
                    !given,
                    "ScenarioSpec::{part} is G-COPSS only; this spec builds Protocol::{}",
                    protocol.name()
                );
            }
        }

        let BuiltNetwork {
            mut topology,
            routers,
            attach_points,
            rp_pool,
        } = net.build();
        let player_nodes = attach_hosts(
            &mut topology,
            &attach_points,
            population.len(),
            ACCESS_DELAY,
            "player",
        );
        let mut attach = |name: String, router: NodeId| {
            let node = topology.add_node_kind(name, gcopss_sim::NodeKind::Host);
            topology
                .try_add_link(node, router, ACCESS_DELAY, None)
                .expect("host attaches to a known router");
            node
        };
        let hosts = match &protocol {
            Protocol::Gcopss(_) => extra_hosts
                .iter()
                .enumerate()
                .map(|(i, h)| attach(format!("extra{i}"), h.attach_to))
                .collect(),
            // Servers attach to the RP pool positions (R1 on the testbed).
            Protocol::IpServer(cfg) => (0..cfg.server_count)
                .map(|i| attach(format!("server{i}"), rp_pool[i % rp_pool.len()]))
                .collect(),
            Protocol::Hybrid(_) | Protocol::NdnBaseline(_) => Vec::new(),
        };
        let stage = Stage {
            routers,
            attach_points,
            rp_pool,
            map: &map,
            population,
            trace: &trace,
        };
        let mut built = BuiltScenario {
            sim: new_sim(topology, metrics_mode, delivery_log, overload),
            player_nodes,
            rp_nodes: BTreeMap::new(),
            hosts,
            warmup: WARMUP,
            protocol: protocol.name(),
        };
        match protocol {
            Protocol::Gcopss(cfg) => assemble_gcopss(cfg, &stage, &mut built, extra_hosts, players),
            Protocol::IpServer(cfg) => assemble_ip_server(cfg, &stage, &mut built),
            Protocol::Hybrid(cfg) => assemble_hybrid(cfg, &stage, &mut built),
            Protocol::NdnBaseline(cfg) => assemble_ndn_baseline(cfg, &stage, &mut built),
        }
        if let Some(plan) = fault_plan {
            built.sim.install_faults(plan);
        }
        built
    }
}

/// The result of [`ScenarioSpec::build`]: one fully-assembled simulation,
/// whichever protocol built it.
pub struct BuiltScenario {
    /// The simulator, ready to run. NDN-baseline consumers poll forever, so
    /// run that protocol with [`Simulator::run_until`] up to a horizon
    /// rather than to quiescence.
    pub sim: Simulator<GPacket, GameWorld>,
    /// Host node of each player.
    pub player_nodes: Vec<NodeId>,
    /// Where the initial RPs live (G-COPSS; empty otherwise).
    pub rp_nodes: BTreeMap<RpId, NodeId>,
    /// The other hosts, in order: the [`ExtraHost`]s of a G-COPSS build,
    /// the game servers of an IP-server build, none otherwise.
    pub hosts: Vec<NodeId>,
    /// End of the warmup period (first trace event earliest time).
    pub warmup: SimDuration,
    /// The [`Protocol`] variant that built it.
    protocol: &'static str,
}

impl BuiltScenario {
    /// Asserts a G-COPSS build.
    ///
    /// # Panics
    ///
    /// Panics if the spec selected a different protocol.
    #[must_use]
    pub fn into_gcopss(self) -> Self {
        self.built_with("Gcopss")
    }

    /// Asserts an IP-server build.
    ///
    /// # Panics
    ///
    /// Panics if the spec selected a different protocol.
    #[must_use]
    pub fn into_ip_server(self) -> Self {
        self.built_with("IpServer")
    }

    fn built_with(self, protocol: &str) -> Self {
        assert!(
            self.protocol == protocol,
            "scenario was not built with Protocol::{protocol}"
        );
        self
    }
}

/// What every protocol's assembly reads besides its own config: the roles
/// of the network's routers and the game world.
struct Stage<'s> {
    routers: Vec<NodeId>,
    /// Edge routers, where players attach.
    attach_points: Vec<NodeId>,
    /// RP / server placements, in placement order.
    rp_pool: Vec<NodeId>,
    map: &'s Arc<GameMap>,
    population: &'s PlayerPopulation,
    trace: &'s Arc<Vec<TraceEvent>>,
}

/// The simulator every scenario starts from: a [`GameWorld`] over
/// `topology`, the [`GPacket`] classifiers registered as its
/// [`PacketMeta`], and engine overload control (a vacuous `overload`
/// installs nothing).
fn new_sim(
    topology: Topology,
    metrics_mode: MetricsMode,
    delivery_log: bool,
    overload: OverloadConfig,
) -> Simulator<GPacket, GameWorld> {
    let mut world = GameWorld::new(metrics_mode);
    if delivery_log {
        world = world.with_delivery_log();
    }
    let mut sim = Simulator::new(topology, world);
    sim.set_packet_meta(PacketMeta {
        kind: GPacket::kind,
        lineage_id: GPacket::lineage_id,
        priority: GPacket::priority,
        supersede_key: GPacket::supersede_key,
    });
    sim.install_overload(overload);
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

/// Where the behavior of player `p` plugs in: its host node, its edge
/// router and its cursor over the shared trace, offset by the warmup.
fn player_seat(stage: &Stage<'_>, b: &BuiltScenario, p: PlayerId) -> (NodeId, NodeId, TraceCursor) {
    let node = b.player_nodes[p.index()];
    let (edge, _) = b
        .sim
        .topology()
        .neighbors(node)
        .next()
        .expect("player attached");
    let cursor = TraceCursor::for_player(Arc::clone(stage.trace), p, b.warmup);
    (node, edge, cursor)
}

fn assemble_gcopss(
    cfg: GcopssConfig,
    stage: &Stage<'_>,
    b: &mut BuiltScenario,
    extra_hosts: Vec<ExtraHost>,
    players: PlayerSpec,
) {
    b.warmup = cfg.warmup;

    // Initial RP assignment.
    let groups = rp_prefix_partition(stage.map, cfg.rp_count);
    let mut rp_table = RpTable::new();
    for (i, group) in groups.iter().enumerate() {
        let rp = RpId(i as u32);
        for prefix in group {
            rp_table
                .assign(prefix.clone(), rp)
                .expect("partition is prefix-free");
        }
        b.rp_nodes
            .insert(rp, stage.rp_pool[i % stage.rp_pool.len()]);
    }
    for prefix in &cfg.extra_rp_prefixes {
        rp_table
            .assign(prefix.clone(), RpId(0))
            .expect("extra prefixes must not overlap the map namespace");
    }
    for (prefixes, node) in &cfg.extra_rps {
        let rp = RpId(b.rp_nodes.len() as u32);
        for prefix in prefixes {
            rp_table
                .assign(prefix.clone(), rp)
                .expect("extra RP prefixes must be disjoint");
        }
        b.rp_nodes.insert(rp, *node);
    }

    let world = b.sim.world_mut();
    world.next_rp_id = cfg.rp_count as u32;
    for (rp, node) in &b.rp_nodes {
        world.rp_locations.insert(rp.0, node.0);
    }
    b.sim.install_streams(cfg.stream);

    // Routers.
    for &r in &stage.routers {
        let faces = FaceMap::new(b.sim.topology(), r);
        let mut copss = CopssEngine::new();
        for (prefix, rp) in rp_table.assignments() {
            copss
                .rp_table_mut()
                .assign(prefix, rp)
                .expect("prefix-free");
        }
        let mut local_rps = std::collections::BTreeSet::new();
        let mut fib_routes: Vec<(Name, FaceId)> = Vec::new();
        for (&rp, &node) in &b.rp_nodes {
            if node == r {
                local_rps.insert(rp);
            } else if let Some(hop) = b.sim.routing().next_hop(r, node) {
                if let Some(face) = faces.face_of(hop) {
                    fib_routes.push((rp.ndn_prefix(), face));
                }
            }
        }
        for (h, &node) in extra_hosts.iter().zip(&b.hosts) {
            if let Some(hop) = b.sim.routing().next_hop(r, node) {
                if let Some(face) = faces.face_of(hop) {
                    for prefix in &h.routes {
                        fib_routes.push((prefix.clone(), face));
                    }
                }
            }
        }
        let split = SplitConfig {
            candidates: stage.rp_pool.clone(),
            strategy: cfg.rp_selection,
        };
        let mut router = GCopssRouter::new(
            cfg.params.clone(),
            faces,
            copss,
            fib_routes,
            local_rps,
            split,
        );
        if let Some(rc) = &cfg.recovery {
            router = router.with_recovery(rc.clone());
        }
        b.sim.set_behavior(r, Box::new(router));
    }

    // Players: each mover gets its own events, split once, in schedule
    // order.
    let mut moves_of: BTreeMap<PlayerId, Vec<MoveEvent>> = BTreeMap::new();
    for m in players.moves {
        moves_of.entry(m.player).or_default().push(m);
    }
    for p in stage.population.players() {
        let (node, edge, cursor) = player_seat(stage, b, p);
        let area = stage.population.area_of(p);
        let mut client = GamePlayerClient::new(p, edge, area, Arc::clone(stage.map), cursor);
        if let Some(rc) = &cfg.recovery {
            client = client.with_recovery(rc.clone());
        }
        if cfg.rate_adapt {
            client = client.with_rate_adapt();
        }
        if let Some(cu) = &players.catch_up {
            client = client.with_catch_up(cu.clone());
        }
        let moves = moves_of.remove(&p).unwrap_or_default();
        let online_at = players.offline.get(&p).copied();
        if !moves.is_empty() || online_at.is_some() {
            client = client.with_mover(moves, players.snapshot_mode, online_at);
        }
        b.sim.set_behavior(node, Box::new(client));
    }

    // Extra hosts.
    for (h, &node) in extra_hosts.into_iter().zip(&b.hosts) {
        let behavior = (h.make)(node, h.attach_to);
        b.sim.set_behavior(node, behavior);
    }
}

/// Configuration of an IP client/server baseline simulation.
#[derive(Debug, Clone)]
pub struct IpConfig {
    /// Calibration constants.
    pub params: SimParams,
    /// Number of game servers.
    pub server_count: usize,
    /// Failure-recovery tunables: `Some` enables the session model
    /// (client `Hello`s, server connection table, reconnect watchdogs).
    pub recovery: Option<RecoveryConfig>,
    /// Client-side congestion-feedback rate adaptation (see
    /// [`GcopssConfig::rate_adapt`]).
    pub rate_adapt: bool,
}

impl Default for IpConfig {
    fn default() -> Self {
        Self {
            params: SimParams::default(),
            server_count: 3,
            recovery: None,
            rate_adapt: false,
        }
    }
}

fn assemble_ip_server(cfg: IpConfig, stage: &Stage<'_>, b: &mut BuiltScenario) {
    // Plain IP routers (a G-COPSS router with no RPs forwards IP packets).
    for &r in &stage.routers {
        let faces = FaceMap::new(b.sim.topology(), r);
        b.sim.set_behavior(
            r,
            plain_router(&cfg.params, faces, Vec::new(), cfg.recovery.as_ref()),
        );
    }

    let population = stage.population;
    let roster = Arc::new(Roster::new(stage.map, population, b.player_nodes.clone()));
    for &s in &b.hosts {
        let mut server = IpServer::new(cfg.params.clone(), Arc::clone(&roster));
        if let Some(rc) = &cfg.recovery {
            server = server.with_recovery(rc.clone());
        }
        b.sim.set_behavior(s, Box::new(server));
    }

    let server_of = Arc::new(partition_cds_to_servers(stage.map, &b.hosts));
    for p in population.players() {
        let (node, edge, cursor) = player_seat(stage, b, p);
        let mut client = IpClient::new(p, edge, Arc::clone(&server_of), cursor);
        if let Some(rc) = &cfg.recovery {
            client = client.with_recovery(rc.clone());
        }
        if cfg.rate_adapt {
            client = client.with_rate_adapt();
        }
        b.sim.set_behavior(node, Box::new(client));
    }
}

/// Configuration of a hybrid-G-COPSS simulation (§III-D).
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Available IP multicast groups (Table II uses 6).
    pub group_count: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self { group_count: 6 }
    }
}

fn assemble_hybrid(cfg: HybridConfig, stage: &Stage<'_>, b: &mut BuiltScenario) {
    let params = SimParams::default();
    for &r in &stage.routers {
        let faces = FaceMap::new(b.sim.topology(), r);
        if stage.attach_points.contains(&r) {
            b.sim
                .set_behavior(r, Box::new(HybridEdgeRouter::new(faces, cfg.group_count)));
        } else {
            b.sim
                .set_behavior(r, plain_router(&params, faces, Vec::new(), None));
        }
    }

    for p in stage.population.players() {
        let (node, edge, cursor) = player_seat(stage, b, p);
        let area = stage.population.area_of(p);
        let client = GamePlayerClient::new(p, edge, area, Arc::clone(stage.map), cursor);
        b.sim.set_behavior(node, Box::new(client));
    }
}

/// Configuration of the NDN (VoCCN-style) baseline simulation. The
/// baseline has no client-side rate adaptation: its consumers pull
/// (Interests pace the producers already), so under
/// [`ScenarioSpec::overload`] only the router queues are managed.
#[derive(Debug, Clone)]
pub struct NdnBaselineConfig {
    /// Calibration constants.
    pub params: SimParams,
    /// The clients' update-accumulation interval `t` (default 100 ms).
    pub accum_interval: SimDuration,
    /// Failure-recovery tunables: `Some` enables the router PIT sweep and
    /// keeps every client's retry timer armed past the end of its trace,
    /// so lost Interests are always re-expressed eventually.
    pub recovery: Option<RecoveryConfig>,
}

impl Default for NdnBaselineConfig {
    fn default() -> Self {
        Self {
            params: SimParams::default(),
            accum_interval: SimDuration::from_millis(100),
            recovery: None,
        }
    }
}

fn assemble_ndn_baseline(cfg: NdnBaselineConfig, stage: &Stage<'_>, b: &mut BuiltScenario) {
    let population = stage.population;
    // NDN routers with /player/<id> routes toward every player host.
    for &r in &stage.routers {
        let faces = FaceMap::new(b.sim.topology(), r);
        let mut fib_routes: Vec<(Name, FaceId)> = Vec::new();
        for p in population.players() {
            let node = b.player_nodes[p.index()];
            if let Some(hop) = b.sim.routing().next_hop(r, node) {
                if let Some(face) = faces.face_of(hop) {
                    fib_routes.push((player_prefix(p), face));
                }
            }
        }
        b.sim.set_behavior(
            r,
            plain_router(&cfg.params, faces, fib_routes, cfg.recovery.as_ref()),
        );
    }

    let areas: Vec<_> = population
        .players()
        .map(|p| population.area_of(p))
        .collect();
    let rosters = NdnPlayerClient::rosters(stage.map, &areas);
    for p in population.players() {
        let (node, edge, cursor) = player_seat(stage, b, p);
        let roster = rosters[p.index()].clone();
        let client = NdnPlayerClient::new(p, edge, &cfg, cursor, roster);
        b.sim.set_behavior(node, Box::new(client));
    }
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
    use gcopss_game::{AreaId, MoveType};

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

    /// The paper map with one player per area, and an empty trace.
    fn small_world() -> (Arc<GameMap>, PlayerPopulation, Arc<Vec<TraceEvent>>) {
        let map = Arc::new(GameMap::paper_map());
        let pop = PlayerPopulation::uniform_per_area(&map, 1);
        (map, pop, Arc::new(Vec::new()))
    }

    #[test]
    fn spec_builds_every_protocol() {
        let (map, pop, trace) = small_world();
        let bounded = OverloadConfig {
            queue_capacity: Some(4_096),
            ..OverloadConfig::default()
        };
        // (protocol, initial RPs, other hosts)
        let cases = [
            (Protocol::Gcopss(GcopssConfig::default()), 3, 0),
            (Protocol::IpServer(IpConfig::default()), 0, 3),
            (Protocol::Hybrid(HybridConfig::default()), 0, 0),
            (Protocol::NdnBaseline(NdnBaselineConfig::default()), 0, 0),
        ];
        for (protocol, rps, hosts) in cases {
            let name = protocol.name();
            let built = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
                .protocol(protocol)
                .delivery_log()
                .overload(bounded.clone())
                .build();
            assert_eq!(built.player_nodes.len(), pop.len(), "{name}");
            assert_eq!(
                (built.rp_nodes.len(), built.hosts.len()),
                (rps, hosts),
                "{name}"
            );
            assert_eq!(built.warmup, WARMUP, "{name}");
            // The spec's world and engine settings reach every protocol.
            assert!(built.sim.world().delivery_log.is_some(), "{name}");
            assert!(built.sim.overload_active(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "not built with Protocol::Gcopss")]
    fn built_scenario_unwrap_checks_protocol() {
        let (map, pop, trace) = small_world();
        let _ = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
            .ip_server(IpConfig::default())
            .build()
            .into_gcopss();
    }

    /// Builds the IP server with a G-COPSS-only part `add`ed to its spec.
    fn build_ip_with(add: impl FnOnce(ScenarioSpec<'_>) -> ScenarioSpec<'_>) {
        let (map, pop, trace) = small_world();
        let spec = ScenarioSpec::new(&NetworkSpec::Testbed, &map, &pop, &trace)
            .ip_server(IpConfig::default());
        let _ = add(spec).build();
    }

    #[test]
    #[should_panic(expected = "ScenarioSpec::extra_hosts is G-COPSS only")]
    fn extra_hosts_fail_closed() {
        build_ip_with(|spec| {
            spec.extra_hosts(vec![ExtraHost {
                attach_to: NodeId(0),
                routes: Vec::new(),
                make: Box::new(
                    |_: NodeId, _: NodeId| -> Box<dyn NodeBehavior<GPacket, GameWorld>> {
                        unreachable!("the build panics first")
                    },
                ),
            }])
        });
    }

    #[test]
    #[should_panic(expected = "ScenarioSpec::moves is G-COPSS only")]
    fn moves_fail_closed() {
        let step = MoveEvent {
            time_ns: 0,
            player: PlayerId(0),
            from: AreaId(1),
            to: AreaId(2),
            move_type: MoveType::ZoneSameRegion,
            snapshot_cds: Vec::new(),
        };
        build_ip_with(|spec| spec.moves(vec![step], SnapshotMode::CyclicMulticast));
    }

    #[test]
    #[should_panic(expected = "ScenarioSpec::offline_until is G-COPSS only")]
    fn offline_until_fails_closed() {
        build_ip_with(|spec| spec.offline_until(PlayerId(0), SimTime::ZERO + WARMUP));
    }

    #[test]
    #[should_panic(expected = "ScenarioSpec::catch_up is G-COPSS only")]
    fn catch_up_fails_closed() {
        build_ip_with(|spec| spec.catch_up(CatchUpConfig::default()));
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
