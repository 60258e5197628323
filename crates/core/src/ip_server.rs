//! The IP client/server baseline (§V): players unicast updates to a game
//! server, which determines the interested players and unicasts a copy to
//! each.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gcopss_game::{GameMap, PlayerId, PlayerPopulation};
use gcopss_names::Name;
use gcopss_sim::{Ctx, FaultNotice, NodeBehavior, NodeId, SimDuration};

use crate::client::{ClientRecovery, RatePacer, TraceCursor};
use crate::params::IP_PROC;
use crate::scenario::viewers_by_cd;
use crate::{packet, GPacket, GameWorld, IpPacket, IpUpdate, RecoveryConfig, SimParams};

/// Timer key of trace-driven publishing (IP client).
const TIMER_PUBLISH: u64 = 0;
/// Timer key of the IP client's silence watchdog (recovery mode only).
const TIMER_WATCHDOG: u64 = 1;

/// Global game knowledge a server needs: which player sits where, and which
/// players must receive an update to a given leaf CD.
#[derive(Debug)]
pub struct Roster {
    /// Host node of each player.
    pub player_nodes: Vec<NodeId>,
    /// Precomputed: leaf CD → players whose subscriptions match it.
    viewers: BTreeMap<Name, Vec<PlayerId>>,
}

impl Roster {
    /// Builds the roster (and the per-CD viewer lists) from the static
    /// placements of `population`, player `p` hosted at `player_nodes[p]`.
    #[must_use]
    pub fn new(map: &GameMap, population: &PlayerPopulation, player_nodes: Vec<NodeId>) -> Self {
        let viewers = viewers_by_cd(map, population).into_iter();
        let viewers = viewers.map(|(cd, who)| (cd.clone(), who)).collect();
        Self {
            player_nodes,
            viewers,
        }
    }

    /// Players that must receive an update published to `cd`.
    #[must_use]
    pub fn viewers_of(&self, cd: &Name) -> &[PlayerId] {
        self.viewers.get(cd).map_or(&[], Vec::as_slice)
    }
}

/// The game server: receives one update, spends `server_proc` on game
/// logic, then unicasts a copy to every interested player (paying
/// `server_per_recipient` of send work each).
pub struct IpServer {
    params: SimParams,
    roster: Arc<Roster>,
    /// `Some` enables the connection model: the server only delivers to
    /// players that have (re-)established a session with a `Hello`, and a
    /// crash wipes the connection table (the TCP failure mode of a
    /// centralized game server).
    recovery: Option<RecoveryConfig>,
    connected: BTreeSet<PlayerId>,
}

impl IpServer {
    /// Creates a server with shared `roster` knowledge.
    #[must_use]
    pub fn new(params: SimParams, roster: Arc<Roster>) -> Self {
        Self {
            params,
            roster,
            recovery: None,
            connected: BTreeSet::new(),
        }
    }

    /// Enables the connection/reconnect model (see [`IpServer`]).
    #[must_use]
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }
}

impl NodeBehavior<GPacket, GameWorld> for IpServer {
    fn service_time(&self, pkt: &GPacket) -> SimDuration {
        match pkt {
            GPacket::Ip(IpPacket::ToServer { .. }) => self.params.server_proc,
            _ => IP_PROC,
        }
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        _from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let _p = gcopss_sim::prof::scope("ip_server/packet");
        let update = match pkt {
            GPacket::Ip(IpPacket::ToServer { update, .. }) => update,
            GPacket::Ip(IpPacket::Hello { player, .. }) => {
                self.connected.insert(player);
                return;
            }
            _ => {
                ctx.discard(crate::drops::SERVER_UNEXPECTED_PACKET, 0);
                return;
            }
        };
        let publisher = ctx.world().metrics.publisher_of(update.id);
        let mut recipients = 0u64;
        for &p in self.roster.viewers_of(&update.cd) {
            if Some(p) == publisher {
                continue;
            }
            // Connection model: a player whose session was lost in a server
            // crash gets nothing until it re-hellos.
            if self.recovery.is_some() && !self.connected.contains(&p) {
                ctx.discard(
                    crate::drops::SERVER_DISCONNECTED_PLAYER,
                    update.encoded_len() as u32,
                );
                continue;
            }
            let client = self.roster.player_nodes[p.index()];
            let g = GPacket::Ip(IpPacket::ToClient {
                client,
                update: update.clone(),
            });
            packet::send_toward(ctx, client, g);
            recipients += 1;
        }
        if ctx.telemetry_enabled() {
            ctx.counter("server-updates-in", 1);
            ctx.counter("server-unicasts-out", recipients);
            ctx.observe("server-fanout", recipients);
        }
        ctx.consume(self.params.server_per_recipient.saturating_mul(recipients));
    }

    fn on_fault(&mut self, _ctx: &mut Ctx<'_, GPacket, GameWorld>, notice: FaultNotice) {
        let _p = gcopss_sim::prof::scope("ip_server/fault");
        if notice == FaultNotice::Restarted {
            // The crash dropped every TCP session; clients must reconnect.
            self.connected.clear();
        }
    }
}

/// The IP baseline's player host: publishes its trace slice to the server
/// owning each CD, and records deliveries.
pub struct IpClient {
    player: PlayerId,
    edge: NodeId,
    /// CD → server node (servers partition the leaf CDs).
    server_of: Arc<BTreeMap<Name, NodeId>>,
    cursor: TraceCursor,
    recovery: Option<ClientRecovery>,
    pacer: Option<RatePacer>,
}

impl IpClient {
    /// Creates a client publishing its trace slice to the servers in
    /// `server_of`.
    #[must_use]
    pub fn new(
        player: PlayerId,
        edge: NodeId,
        server_of: Arc<BTreeMap<Name, NodeId>>,
        cursor: TraceCursor,
    ) -> Self {
        Self {
            player,
            edge,
            server_of,
            cursor,
            recovery: None,
            pacer: None,
        }
    }

    /// Enables session (re-)establishment: the client `Hello`s every server
    /// at start and again whenever deliveries go silent (capped exponential
    /// backoff) or its access link recovers. Requires
    /// [`gcopss_sim::Simulator::run_until`] — the watchdog re-arms forever.
    #[must_use]
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(ClientRecovery::new(cfg, self.player));
        self
    }

    /// Enables congestion-feedback rate adaptation, exactly as on the
    /// G-COPSS client: marked `ToClient` deliveries stretch the publish
    /// cadence multiplicatively (capped), clean deliveries decay it, and
    /// in-gap publishes are shed at the source (`"rate-limited"`).
    #[must_use]
    pub fn with_rate_adapt(mut self) -> Self {
        self.pacer = Some(RatePacer::default());
        self
    }

    /// Sends a session-establishment `Hello` to every distinct server.
    fn hello_servers(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let me = ctx.node();
        let servers: BTreeSet<NodeId> = self.server_of.values().copied().collect();
        for server in servers {
            let g = GPacket::Ip(IpPacket::Hello {
                server,
                player: self.player,
                client: me,
            });
            packet::send(ctx, self.edge, g);
        }
        ctx.world().bump("client-reconnects");
    }
}

impl NodeBehavior<GPacket, GameWorld> for IpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let _p = gcopss_sim::prof::scope("ip_client/start");
        self.cursor.rearm(ctx, TIMER_PUBLISH);
        let now = ctx.now();
        if self.recovery.is_some() {
            self.hello_servers(ctx);
            let r = self.recovery.as_mut().expect("recovery enabled");
            r.last_activity = now;
            let delay = r.first_tick();
            ctx.schedule(delay, TIMER_WATCHDOG);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, key: u64) {
        let _p = gcopss_sim::prof::scope("ip_client/timer");
        if key == TIMER_WATCHDOG {
            let now = ctx.now();
            let Some(r) = &mut self.recovery else { return };
            let (silent, next) = r.tick(now);
            if silent {
                self.hello_servers(ctx);
            }
            ctx.schedule(next, TIMER_WATCHDOG);
            return;
        }
        let Some((id, cd, size)) = RatePacer::pop(&mut self.pacer, &mut self.cursor, ctx) else {
            self.cursor.rearm(ctx, TIMER_PUBLISH);
            return;
        };
        let Some(&server) = self.server_of.get(&cd) else {
            ctx.discard(crate::drops::IP_CLIENT_NO_SERVER, size);
            self.cursor.rearm(ctx, TIMER_PUBLISH);
            return;
        };
        let now = ctx.now();
        ctx.world().metrics.publish(id, self.player, now);
        let g = GPacket::Ip(IpPacket::ToServer {
            server,
            update: IpUpdate { id, cd, size },
        });
        packet::send(ctx, self.edge, g);
        self.cursor.rearm(ctx, TIMER_PUBLISH);
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        _from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let _p = gcopss_sim::prof::scope("ip_client/packet");
        if let GPacket::Ip(IpPacket::ToClient { update, .. }) = pkt {
            let now = ctx.now();
            if let Some(r) = &mut self.recovery {
                r.last_activity = now;
            }
            if let Some(p) = &mut self.pacer {
                p.on_delivery(ctx.congestion_marked());
            }
            GameWorld::deliver(ctx, update.id, self.player);
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, notice: FaultNotice) {
        let _p = gcopss_sim::prof::scope("ip_client/fault");
        if self.recovery.is_none() {
            return;
        }
        match notice {
            FaultNotice::LinkUp { .. } | FaultNotice::Restarted => {
                let now = ctx.now();
                let r = self.recovery.as_mut().expect("recovery enabled");
                r.reanchor(now);
                self.hello_servers(ctx);
                if notice == FaultNotice::Restarted {
                    // The crash killed our pending timers: re-arm both.
                    self.cursor.rearm(ctx, TIMER_PUBLISH);
                    let r = self.recovery.as_mut().expect("recovery enabled");
                    let delay = r.first_tick();
                    ctx.schedule(delay, TIMER_WATCHDOG);
                }
            }
            FaultNotice::LinkDown { .. } => {}
        }
    }
}

/// Partitions the leaf CDs of `map` across `server_nodes` round-robin by
/// level-1 prefix (the same scheme RPs use), returning the CD → server
/// mapping clients publish with.
#[must_use]
pub fn partition_cds_to_servers(map: &GameMap, server_nodes: &[NodeId]) -> BTreeMap<Name, NodeId> {
    let mut out = BTreeMap::new();
    if server_nodes.is_empty() {
        return out;
    }
    // Group leaf CDs by level-1 component for locality, then round-robin.
    let mut tops: Vec<Name> = map.leaf_cds().iter().map(|cd| cd.prefix(1)).collect();
    tops.sort();
    tops.dedup();
    let top_server: BTreeMap<Name, NodeId> = tops
        .iter()
        .enumerate()
        .map(|(i, t)| (t.clone(), server_nodes[i % server_nodes.len()]))
        .collect();
    for cd in map.leaf_cds() {
        out.insert(cd.clone(), top_server[&cd.prefix(1)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_viewers_match_visibility() {
        let map = GameMap::paper_map();
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        let nodes: Vec<NodeId> = (0..pop.len() as u32).map(NodeId).collect();
        let roster = Roster::new(&map, &pop, nodes);
        // Everyone sees the world layer: /0 has 62 viewers.
        assert_eq!(roster.viewers_of(&Name::parse_lit("/0")).len(), 62);
        // A zone is seen by its 2 soldiers + 2 region flyers + 2 satellites.
        assert_eq!(roster.viewers_of(&Name::parse_lit("/1/2")).len(), 6);
        for &p in roster.viewers_of(&Name::parse_lit("/1/2")) {
            let viewer_area = pop.area_of(p);
            let target = map.area_of_leaf_cd(&Name::parse_lit("/1/2")).unwrap();
            assert!(map.can_see(viewer_area, target));
        }
    }

    #[test]
    fn cd_partition_covers_all_leaf_cds() {
        let map = GameMap::paper_map();
        let servers = vec![NodeId(100), NodeId(101), NodeId(102)];
        let part = partition_cds_to_servers(&map, &servers);
        assert_eq!(part.len(), 31);
        for s in part.values() {
            assert!(servers.contains(s));
        }
        // All CDs of one region go to one server.
        assert_eq!(
            part[&Name::parse_lit("/1/1")],
            part[&Name::parse_lit("/1/5")]
        );
        // With 6 level-1 prefixes and 3 servers, each serves 2.
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for cd in map.leaf_cds() {
            *counts.entry(part[cd]).or_default() += 1;
        }
        assert_eq!(counts.len(), 3);
    }

    /// A publication whose CD maps to no server is dropped at the source,
    /// and the trace keeps advancing: every event of the client's slice is
    /// booked, not only the first.
    #[test]
    fn no_server_drop_keeps_the_trace_advancing() {
        use gcopss_game::trace::TraceEvent;

        let mut topology = gcopss_sim::Topology::new();
        let (host, edge) = (topology.add_node("player"), topology.add_node("edge"));
        topology
            .try_add_link(host, edge, SimDuration::from_millis(1), None)
            .expect("two known nodes");
        let event = |k: u64| TraceEvent {
            time_ns: k * 1_000_000,
            player: PlayerId(0),
            cd: Name::parse_lit("/1/1"),
            object: gcopss_game::ObjectId(0),
            size: 100,
        };
        let trace: Arc<Vec<TraceEvent>> = Arc::new((0..5).map(event).collect());
        let cursor = TraceCursor::for_player(Arc::clone(&trace), PlayerId(0), SimDuration::ZERO);
        let client = IpClient::new(PlayerId(0), edge, Arc::new(BTreeMap::new()), cursor);

        let world = GameWorld::new(crate::MetricsMode::StatsOnly);
        let mut sim = gcopss_sim::Simulator::new(topology, world);
        sim.set_behavior(host, Box::new(client));
        sim.run();
        assert_eq!(
            sim.dropped(crate::drops::IP_CLIENT_NO_SERVER),
            trace.len() as u64
        );
        assert_eq!(sim.world().metrics.published(), 0);
    }

    #[test]
    fn single_server_gets_everything() {
        let map = GameMap::paper_map();
        let part = partition_cds_to_servers(&map, &[NodeId(7)]);
        assert!(part.values().all(|n| *n == NodeId(7)));
        assert!(partition_cds_to_servers(&map, &[]).is_empty());
    }
}
