//! hybrid-G-COPSS: COPSS at the edge, IP (multicast) in the core (§III-D).
//!
//! The incremental-deployment mode maps the hierarchical CD space onto a
//! limited number of IP multicast groups by hashing *high-level* CDs (the
//! level-1 prefixes), so a message published to `/1/1/1` reaches the group
//! that also carries `/1/1` and `/1`. Because several CDs share one group,
//! edge routers receive unwanted messages and filter them before their
//! hosts (the paper's trade-off: better latency — no RP detour, fast IP
//! core — but more network load).

use std::collections::BTreeMap;
use std::sync::Arc;

use gcopss_copss::{CopssPacket, MulticastPacket, SubscriptionTable};
use gcopss_names::Name;
use gcopss_ndn::FaceId;
use gcopss_sim::{Ctx, FaultNotice, NodeBehavior, NodeId, SimDuration};

use crate::params::{CONTROL_PROC, COPSS_MULTICAST_PROC, IP_PROC};
use crate::router::FaceMap;
use crate::{packet, GPacket, GameWorld, IpPacket};

/// The IP multicast group a CD maps to, among `group_count` groups.
///
/// High-level (level-1) prefixes are hashed, not leaf CDs, so that all CDs
/// under one region share a group and hierarchy-based delivery needs no
/// extra machinery.
#[must_use]
pub fn group_of(cd: &Name, group_count: u32) -> u32 {
    let level1 = cd.prefix_hash(cd.len().min(1));
    (level1 % u64::from(group_count.max(1))) as u32
}

/// The groups a *subscription* to `cd` must join: one group for a
/// subscription at or below a level-1 prefix, every group for the root
/// subscription `/` (a world-layer player sees all level-1 prefixes).
#[must_use]
pub fn groups_for_subscription(cd: &Name, group_count: u32) -> Vec<u32> {
    if cd.is_empty() {
        (0..group_count.max(1)).collect()
    } else {
        vec![group_of(cd, group_count)]
    }
}

/// Global IP-multicast group membership, kept in the shared world state
/// (standing in for IGMP).
#[derive(Debug, Default)]
pub struct McastGroups {
    members: BTreeMap<u32, Vec<NodeId>>,
}

impl McastGroups {
    /// Adds `edge` to `group`; idempotent.
    pub fn join(&mut self, group: u32, edge: NodeId) {
        let m = self.members.entry(group).or_default();
        if !m.contains(&edge) {
            m.push(edge);
            m.sort_unstable();
        }
    }

    /// Removes `edge` from `group`.
    pub fn leave(&mut self, group: u32, edge: NodeId) {
        if let Some(m) = self.members.get_mut(&group) {
            m.retain(|n| *n != edge);
        }
    }

    /// Current members of `group`.
    #[must_use]
    pub fn members(&self, group: u32) -> &[NodeId] {
        self.members.get(&group).map_or(&[], Vec::as_slice)
    }
}

/// Routes an IP packet at a plain (core) router: unicast packets follow
/// shortest paths; multicast packets are forwarded along the implicit
/// shortest-path tree, duplicating only where next hops diverge.
pub fn route_ip_at_router(ctx: &mut Ctx<'_, GPacket, GameWorld>, ip: IpPacket) {
    let dst = match ip {
        IpPacket::ToServer { server, .. } | IpPacket::Hello { server, .. } => server,
        IpPacket::ToClient { client, .. } => client,
        IpPacket::Mcast { group, dsts, inner } => {
            forward_mcast(ctx, group, &dsts, inner);
            return;
        }
    };
    let g = GPacket::Ip(ip);
    let size = g.wire_size();
    if ctx.send_toward(dst, g, size).is_none() {
        ctx.discard(crate::drops::IP_NO_ROUTE, size);
    }
}

/// Splits the remaining destinations by next hop and sends one copy per
/// distinct next hop — the packet-level behavior of an IP multicast tree.
pub(crate) fn forward_mcast(
    ctx: &mut Ctx<'_, GPacket, GameWorld>,
    group: u32,
    dsts: &[NodeId],
    inner: MulticastPacket,
) {
    let me = ctx.node();
    let mut by_hop: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &d in dsts {
        if d == me {
            continue;
        }
        if let Some(hop) = ctx.routing().next_hop(me, d) {
            by_hop.entry(hop).or_default().push(d);
        }
    }
    for (hop, subset) in by_hop {
        let g = GPacket::Ip(IpPacket::Mcast {
            group,
            dsts: Arc::new(subset),
            inner: inner.clone(),
        });
        packet::send(ctx, hop, g);
    }
}

/// The hybrid-G-COPSS *edge* router: COPSS-aware toward its hosts, IP
/// multicast toward the core.
///
/// * Host `Subscribe`: record in the local ST and join the IP multicast
///   groups of the subscribed CDs' level-1 prefixes.
/// * Host `Multicast`: deliver locally, then send one IP multicast into the
///   core addressed to all member edges of the CD's group.
/// * Incoming `Mcast`: forward along the tree; where this edge is a
///   destination, *filter* — deliver only to host faces whose ST actually
///   matches the CD (unwanted messages caused by group sharing stop here).
pub struct HybridEdgeRouter {
    faces: FaceMap,
    st: SubscriptionTable,
    group_count: u32,
    /// Level-1 prefixes this edge has joined groups for, with refcounts.
    joined: BTreeMap<u32, u32>,
    /// Reused ST match output, so a forwarded packet allocates no face list.
    host_faces: Vec<FaceId>,
}

impl HybridEdgeRouter {
    /// Creates a hybrid edge router with `group_count` available IP
    /// multicast groups (the paper's Table II uses 6).
    #[must_use]
    pub fn new(faces: FaceMap, group_count: u32) -> Self {
        Self {
            faces,
            st: SubscriptionTable::default(),
            group_count,
            joined: BTreeMap::new(),
            host_faces: Vec::new(),
        }
    }

    /// Sends `m` to every host face whose subscriptions match it; returns
    /// whether any face matched.
    fn deliver_to_hosts(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        m: &MulticastPacket,
        arrival: Option<FaceId>,
    ) -> bool {
        self.st
            .matching_faces_into(&m.cd, arrival, None, &mut self.host_faces);
        for &face in &self.host_faces {
            if let Some(node) = self.faces.node_of(face) {
                packet::send(ctx, node, GPacket::Copss(CopssPacket::Multicast(m.clone())));
            }
        }
        !self.host_faces.is_empty()
    }
}

impl NodeBehavior<GPacket, GameWorld> for HybridEdgeRouter {
    fn on_fault(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, notice: FaultNotice) {
        let _p = gcopss_sim::prof::scope("hybrid_edge/fault");
        match notice {
            FaultNotice::LinkDown { peer } => {
                // A dead host adjacency: drop its subscriptions and release
                // the IP groups they held.
                let Some(face) = self.faces.face_of(peer) else {
                    return;
                };
                let purged = self.st.remove_face(face);
                ctx.discard_batch(crate::drops::ST_PURGED, purged.len());
                let me = ctx.node();
                for cd in &purged {
                    for group in groups_for_subscription(cd, self.group_count) {
                        if let Some(c) = self.joined.get_mut(&group) {
                            *c = c.saturating_sub(1);
                            if *c == 0 {
                                ctx.world().mcast_groups.leave(group, me);
                            }
                        }
                    }
                }
                self.joined.retain(|_, c| *c > 0);
            }
            FaultNotice::LinkUp { .. } => {}
            FaultNotice::Restarted => {
                // All edge soft state (ST and IGMP joins) is gone; hosts
                // must re-Subscribe.
                self.st = SubscriptionTable::default();
                let me = ctx.node();
                for &group in self.joined.keys() {
                    ctx.world().mcast_groups.leave(group, me);
                }
                self.joined.clear();
            }
        }
    }

    fn service_time(&self, pkt: &GPacket) -> SimDuration {
        match pkt {
            // Edge does COPSS work: mapping/filtering on multicasts.
            GPacket::Copss(CopssPacket::Multicast(_)) | GPacket::Ip(IpPacket::Mcast { .. }) => {
                COPSS_MULTICAST_PROC
            }
            GPacket::Copss(_) => CONTROL_PROC,
            _ => IP_PROC,
        }
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let _p = gcopss_sim::prof::scope("hybrid_edge/packet");
        let arrival = from.and_then(|n| self.faces.face_of(n));
        match pkt {
            GPacket::Copss(CopssPacket::Subscribe { cds, .. }) => {
                let Some(face) = arrival else { return };
                let me = ctx.node();
                for cd in cds {
                    for group in groups_for_subscription(&cd, self.group_count) {
                        *self.joined.entry(group).or_insert(0) += 1;
                        ctx.world().mcast_groups.join(group, me);
                    }
                    self.st
                        .subscribe(face, cd, std::collections::BTreeSet::new(), true);
                }
            }
            GPacket::Copss(CopssPacket::Unsubscribe { cds, .. }) => {
                let Some(face) = arrival else { return };
                let me = ctx.node();
                for cd in cds {
                    if self.st.unsubscribe(face, &cd, None) {
                        for group in groups_for_subscription(&cd, self.group_count) {
                            if let Some(c) = self.joined.get_mut(&group) {
                                *c = c.saturating_sub(1);
                                if *c == 0 {
                                    ctx.world().mcast_groups.leave(group, me);
                                }
                            }
                        }
                    }
                }
            }
            GPacket::Copss(CopssPacket::Multicast(m)) => {
                // From a host: local delivery + one multicast into the core.
                self.deliver_to_hosts(ctx, &m, arrival);
                let group = group_of(m.cd.name(), self.group_count);
                let me = ctx.node();
                let members: Vec<NodeId> = ctx
                    .world()
                    .mcast_groups
                    .members(group)
                    .iter()
                    .copied()
                    .filter(|n| *n != me)
                    .collect();
                if !members.is_empty() {
                    forward_mcast(ctx, group, &members, m);
                }
            }
            GPacket::Ip(IpPacket::Mcast { group, dsts, inner }) => {
                let me = ctx.node();
                if dsts.contains(&me) {
                    // Filter: only actually-subscribed hosts receive it.
                    if !self.deliver_to_hosts(ctx, &inner, None) {
                        ctx.discard(
                            crate::drops::HYBRID_FILTERED_UNWANTED,
                            inner.encoded_len() as u32,
                        );
                    }
                }
                forward_mcast(ctx, group, &dsts, inner);
            }
            GPacket::Ip(other) => route_ip_at_router(ctx, other),
            _ => {
                ctx.discard(crate::drops::HYBRID_UNEXPECTED_PACKET, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_mapping_uses_level1_prefix() {
        let g = 6;
        assert_eq!(
            group_of(&Name::parse_lit("/1/1/1"), g),
            group_of(&Name::parse_lit("/1/2"), g)
        );
        assert_eq!(
            group_of(&Name::parse_lit("/1"), g),
            group_of(&Name::parse_lit("/1/5"), g)
        );
        // Root own-area maps consistently.
        assert_eq!(
            group_of(&Name::parse_lit("/0"), g),
            group_of(&Name::parse_lit("/0"), g)
        );
    }

    #[test]
    fn group_mapping_within_bounds() {
        for i in 0..20u32 {
            let cd = Name::root().child_index(i);
            assert!(group_of(&cd, 6) < 6);
        }
        assert_eq!(group_of(&Name::parse_lit("/1"), 0), 0, "clamped");
    }

    #[test]
    fn mcast_groups_membership() {
        let mut g = McastGroups::default();
        g.join(1, NodeId(5));
        g.join(1, NodeId(3));
        g.join(1, NodeId(5));
        assert_eq!(g.members(1), &[NodeId(3), NodeId(5)]);
        g.leave(1, NodeId(3));
        assert_eq!(g.members(1), &[NodeId(5)]);
        assert!(g.members(2).is_empty());
    }
}
