//! Shortest-path routing over a [`Topology`]: Dijkstra over link delays
//! among the core nodes, with every stub host routed through its one
//! access link.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{LinkId, NodeId, NodeKind, SimDuration, Topology};

/// The distance stored for an unreachable pair.
const UNREACHABLE: SimDuration = SimDuration::from_nanos(u64::MAX);

/// Shortest-path next hops and distances computed with Dijkstra over link
/// delays.
///
/// This stands in for the routing underlay (IP routing, or NDN FIB
/// population by a routing protocol): every forwarding decision in the
/// experiments ultimately consults shortest paths over the topology's
/// propagation delays, as the paper does with Rocketfuel link weights.
///
/// A *stub* is a [`NodeKind::Host`] with exactly one link whose neighbour
/// is not itself such a host; every other node is *core*. A stub is a leaf,
/// so it lies inside no shortest path: the table runs Dijkstra from every
/// core source over the core alone and keeps one flat core × core matrix of
/// first hops and distances, plus each stub's router and access delay. A
/// route to or from a stub is its router's route with the access link
/// added, so every answer equals that of a full node × node table. On the
/// paper's §V-B setup (414 players on 237 routers) that is 237² pairs
/// instead of 651².
///
/// The matrix spans node ids `0..m`, the shortest prefix holding every
/// core node: the generators and scenarios attach hosts after the routers,
/// so there it holds the routers alone. A stub that precedes the last core
/// node is routed inside the matrix, which is exact, only larger.
///
/// # Example
///
/// ```
/// # use gcopss_sim::{Topology, RoutingTable, SimDuration};
/// let mut t = Topology::new();
/// let a = t.add_node("a");
/// let b = t.add_node("b");
/// let c = t.add_node("c");
/// t.try_add_link(a, b, SimDuration::from_millis(1), None).unwrap();
/// t.try_add_link(b, c, SimDuration::from_millis(1), None).unwrap();
/// let rt = RoutingTable::shortest_paths(&t);
/// assert_eq!(rt.next_hop(a, c), Some(b));
/// assert_eq!(rt.path(a, c), vec![a, b, c]);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Number of nodes.
    n: usize,
    /// Nodes `0..m` are routed in the matrix; every node from `m` on is a
    /// stub.
    m: usize,
    /// `next[src * m + dst]`: the first hop from `src` to `dst`.
    next: Vec<Option<NodeId>>,
    /// `dist[src * m + dst]`, [`UNREACHABLE`] when there is no path.
    dist: Vec<SimDuration>,
    /// `access[s - m]`: how stub `s` reaches its router in this build.
    access: Vec<Access>,
}

/// How a stub reaches the core in one build of a [`RoutingTable`].
#[derive(Debug, Clone, Copy)]
enum Access {
    /// The stub is down: it routes nowhere, not even to itself.
    Down,
    /// The stub is up but its link or its router is not: it reaches only
    /// itself.
    Cut,
    /// The stub reaches `router` over a link of `delay`.
    Up { router: NodeId, delay: SimDuration },
}

/// Whether `node` is a host with exactly one link; returns that link's
/// `(neighbour, link)` if so.
fn lone_link(topology: &Topology, node: NodeId) -> Option<(NodeId, LinkId)> {
    if topology.node_kind(node) != NodeKind::Host {
        return None;
    }
    let mut links = topology.neighbors(node);
    let only = links.next()?;
    links.next().is_none().then_some(only)
}

/// Whether `node` is a stub: a one-link host whose neighbour is not one.
fn is_stub(topology: &Topology, node: NodeId) -> bool {
    lone_link(topology, node).is_some_and(|(peer, _)| lone_link(topology, peer).is_none())
}

impl RoutingTable {
    /// Computes shortest paths between all pairs of nodes, using link
    /// propagation delays as weights.
    ///
    /// Ties are broken deterministically by preferring the lower-numbered
    /// predecessor node.
    #[must_use]
    pub fn shortest_paths(topology: &Topology) -> Self {
        Self::shortest_paths_filtered(topology, |_| true, |_| true)
    }

    /// Computes shortest paths over the *surviving* subgraph: links for
    /// which `link_up` returns `false` and nodes for which `node_up` returns
    /// `false` are excluded. This is what the fault-injection layer calls
    /// after every topology-change event; [`RoutingTable::shortest_paths`]
    /// is the special case where everything is up.
    #[must_use]
    pub fn shortest_paths_filtered(
        topology: &Topology,
        link_up: impl Fn(LinkId) -> bool,
        node_up: impl Fn(NodeId) -> bool,
    ) -> Self {
        let n = topology.node_count();
        let m = (0..n)
            .rev()
            .find(|&i| !is_stub(topology, NodeId(i as u32)))
            .map_or(0, |i| i + 1);
        let access = (m..n)
            .map(|i| {
                let stub = NodeId(i as u32);
                let (router, link) = lone_link(topology, stub).expect("a stub has one link");
                if !node_up(stub) {
                    Access::Down
                } else if link_up(link) && node_up(router) {
                    Access::Up {
                        router,
                        delay: topology.link_delay(link),
                    }
                } else {
                    Access::Cut
                }
            })
            .collect();

        let mut next = vec![None; m * m];
        let mut dist = vec![UNREACHABLE; m * m];
        // Buffers reused by every source; the source's own rows of `next`
        // and `dist` are its first hops and best distances.
        let mut done = vec![false; m];
        let mut heap = BinaryHeap::with_capacity(m);
        for s in 0..m {
            let src = NodeId(s as u32);
            if !node_up(src) {
                // A dead source routes nowhere; leave the row unreachable.
                continue;
            }
            let first_hop = &mut next[s * m..(s + 1) * m];
            let best = &mut dist[s * m..(s + 1) * m];
            done.fill(false);
            best[s] = SimDuration::ZERO;
            heap.push(Reverse((SimDuration::ZERO, src, None::<NodeId>)));
            while let Some(Reverse((d, u, via))) = heap.pop() {
                if done[u.index()] {
                    continue;
                }
                done[u.index()] = true;
                first_hop[u.index()] = via;
                for (v, link) in topology.neighbors(u) {
                    // Nodes from `m` on are stubs: leaves no path crosses.
                    if v.index() >= m || done[v.index()] || !link_up(link) || !node_up(v) {
                        continue;
                    }
                    let nd = d + topology.link_delay(link);
                    if nd < best[v.index()] {
                        best[v.index()] = nd;
                        let hop = via.unwrap_or(v);
                        heap.push(Reverse((nd, v, Some(hop))));
                    }
                }
            }
        }

        Self {
            n,
            m,
            next,
            dist,
            access,
        }
    }

    /// The first hop on the shortest path from `src` to `dst`, or `None` if
    /// `src == dst` or `dst` is unreachable.
    #[inline]
    #[must_use]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let (s, d) = (src.index(), dst.index());
        if s.max(d) < self.m {
            return self.next[s * self.m + d];
        }
        self.stub_next_hop(src, dst)
    }

    /// [`RoutingTable::next_hop`] where `src` or `dst` is a stub.
    fn stub_next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if src == dst {
            return None;
        }
        match self.access(src) {
            // Every route out of a stub leaves through its router.
            Some(Access::Up { router, .. }) => self.distance(src, dst).is_some().then_some(router),
            Some(Access::Down | Access::Cut) => None,
            None => match self.access(dst)? {
                Access::Up { router, .. } if router == src => Some(dst),
                Access::Up { router, .. } => self.next_hop(src, router),
                Access::Down | Access::Cut => None,
            },
        }
    }

    /// The shortest-path distance (total propagation delay) from `src` to
    /// `dst`, or `None` if unreachable.
    #[must_use]
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let (s, d) = (src.index(), dst.index());
        if s.max(d) < self.m {
            let d = self.dist[s * self.m + d];
            return (d != UNREACHABLE).then_some(d);
        }
        if src == dst {
            return (!matches!(self.access(src), Some(Access::Down))).then_some(SimDuration::ZERO);
        }
        let (from, out) = self.attachment(src)?;
        let (to, inward) = self.attachment(dst)?;
        Some(self.distance(from, to)? + out + inward)
    }

    /// A stub's access, or `None` for a node routed in the matrix.
    fn access(&self, node: NodeId) -> Option<Access> {
        node.index().checked_sub(self.m).map(|i| self.access[i])
    }

    /// The matrix node that `node`'s routes go through and the delay to it:
    /// itself at zero, a stub's router over its access link, or `None` for
    /// a stub that reaches no router.
    fn attachment(&self, node: NodeId) -> Option<(NodeId, SimDuration)> {
        match self.access(node) {
            None => Some((node, SimDuration::ZERO)),
            Some(Access::Up { router, delay }) => Some((router, delay)),
            Some(Access::Down | Access::Cut) => None,
        }
    }

    /// The full node sequence of the shortest path from `src` to `dst`
    /// (inclusive of both). Empty if unreachable.
    #[must_use]
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        if src == dst {
            return vec![src];
        }
        let mut out = vec![src];
        let mut cur = src;
        for _ in 0..self.n {
            match self.next_hop(cur, dst) {
                Some(hop) => {
                    out.push(hop);
                    if hop == dst {
                        return out;
                    }
                    cur = hop;
                }
                None => return Vec::new(),
            }
        }
        Vec::new() // cycle guard; cannot happen with consistent tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// a --1-- b --1-- c
    ///  \------5------/
    #[test]
    fn prefers_lower_delay_path() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.try_add_link(a, b, ms(1), None).unwrap();
        t.try_add_link(b, c, ms(1), None).unwrap();
        t.try_add_link(a, c, ms(5), None).unwrap();
        let rt = RoutingTable::shortest_paths(&t);
        assert_eq!(rt.next_hop(a, c), Some(b));
        assert_eq!(rt.distance(a, c), Some(ms(2)));
        assert_eq!(rt.path(a, c), vec![a, b, c]);
    }

    #[test]
    fn direct_link_wins_when_cheaper() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.try_add_link(a, b, ms(3), None).unwrap();
        t.try_add_link(b, c, ms(3), None).unwrap();
        t.try_add_link(a, c, ms(5), None).unwrap();
        let rt = RoutingTable::shortest_paths(&t);
        assert_eq!(rt.next_hop(a, c), Some(c));
        assert_eq!(rt.distance(a, c), Some(ms(5)));
    }

    #[test]
    fn self_routing() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let rt = RoutingTable::shortest_paths(&t);
        assert_eq!(rt.next_hop(a, a), None);
        assert_eq!(rt.distance(a, a), Some(SimDuration::ZERO));
        assert_eq!(rt.path(a, a), vec![a]);
    }

    #[test]
    fn unreachable_nodes() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let rt = RoutingTable::shortest_paths(&t);
        assert_eq!(rt.next_hop(a, b), None);
        assert_eq!(rt.distance(a, b), None);
        assert!(rt.path(a, b).is_empty());
    }

    #[test]
    fn filtered_paths_route_around_failures() {
        // a --1-- b --1-- c with a direct a--5--c fallback.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let ab = t.try_add_link(a, b, ms(1), None).unwrap();
        t.try_add_link(b, c, ms(1), None).unwrap();
        t.try_add_link(a, c, ms(5), None).unwrap();

        // Killing the a-b link pushes a->c onto the direct link.
        let rt = RoutingTable::shortest_paths_filtered(&t, |l| l != ab, |_| true);
        assert_eq!(rt.next_hop(a, c), Some(c));
        assert_eq!(rt.distance(a, c), Some(ms(5)));
        assert_eq!(rt.next_hop(a, b), Some(c)); // a -> c -> b

        // Killing node b isolates it and reroutes a->c directly.
        let rt = RoutingTable::shortest_paths_filtered(&t, |_| true, |n| n != b);
        assert_eq!(rt.next_hop(a, c), Some(c));
        assert_eq!(rt.next_hop(a, b), None);
        assert_eq!(rt.distance(a, b), None);
        assert_eq!(rt.next_hop(b, a), None); // dead node routes nowhere

        // The unfiltered table is the everything-up special case.
        let all = RoutingTable::shortest_paths(&t);
        assert_eq!(all.next_hop(a, c), Some(b));
    }

    /// r0 --2-- r1, with stub hosts h0 on r0 and h1 on r1 (1 ms each).
    #[test]
    fn stubs_route_through_their_router() {
        let mut t = Topology::new();
        let r0 = t.add_node("r0");
        let r1 = t.add_node("r1");
        t.try_add_link(r0, r1, ms(2), None).unwrap();
        let h0 = t.add_node_kind("h0", NodeKind::Host);
        let h1 = t.add_node_kind("h1", NodeKind::Host);
        t.try_add_link(h0, r0, ms(1), None).unwrap();
        let a1 = t.try_add_link(h1, r1, ms(1), None).unwrap();
        let rt = RoutingTable::shortest_paths(&t);
        assert_eq!(rt.m, 2, "the matrix holds the routers alone");
        assert_eq!(rt.next_hop(h0, h1), Some(r0));
        assert_eq!(rt.next_hop(r0, h0), Some(h0));
        assert_eq!(rt.next_hop(r0, h1), Some(r1));
        assert_eq!(rt.distance(h0, h1), Some(ms(4)));
        assert_eq!(rt.path(h0, h1), vec![h0, r0, r1, h1]);

        // A cut access link leaves h1 reaching only itself; a dead h0 not
        // even that.
        let rt = RoutingTable::shortest_paths_filtered(&t, |l| l != a1, |n| n != h0);
        assert_eq!(rt.distance(h1, h1), Some(SimDuration::ZERO));
        assert_eq!(rt.distance(r1, h1), None);
        assert_eq!(rt.next_hop(h1, r1), None);
        assert_eq!(rt.distance(h0, h0), None);
        assert_eq!(rt.next_hop(r0, h0), None);
    }

    #[test]
    fn paths_are_consistent_hop_by_hop() {
        // Ring of 6 nodes with uniform delays: path from 0 to 3 has 3 hops.
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..6).map(|i| t.add_node(format!("n{i}"))).collect();
        for i in 0..6 {
            t.try_add_link(nodes[i], nodes[(i + 1) % 6], ms(1), None)
                .unwrap();
        }
        let rt = RoutingTable::shortest_paths(&t);
        for &src in &nodes {
            for &dst in &nodes {
                let p = rt.path(src, dst);
                assert!(!p.is_empty());
                // Each consecutive pair must be adjacent and consistent with
                // next_hop of the remaining journey.
                for w in p.windows(2) {
                    assert_eq!(rt.next_hop(w[0], dst), Some(w[1]));
                    assert!(t.link_between(w[0], w[1]).is_some());
                }
            }
        }
        assert_eq!(rt.path(nodes[0], nodes[3]).len(), 4);
    }
}
