//! Shortest-path routing over a [`Topology`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{NodeId, SimDuration, Topology};

/// All-pairs next-hop routing computed with Dijkstra over link delays.
///
/// This stands in for the routing underlay (IP routing, or NDN FIB
/// population by a routing protocol): every forwarding decision in the
/// experiments ultimately consults shortest paths over the topology's
/// propagation delays, as the paper does with Rocketfuel link weights.
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
    n: usize,
    /// next_hop[src][dst]
    next: Vec<Vec<Option<NodeId>>>,
    /// dist[src][dst]
    dist: Vec<Vec<SimDuration>>,
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
        link_up: impl Fn(crate::LinkId) -> bool,
        node_up: impl Fn(NodeId) -> bool,
    ) -> Self {
        let n = topology.node_count();
        let mut next = vec![vec![None; n]; n];
        let mut dist = vec![vec![SimDuration::from_nanos(u64::MAX); n]; n];

        for src in topology.node_ids() {
            if !node_up(src) {
                // A dead source routes nowhere; leave the row unreachable.
                continue;
            }
            // Dijkstra from src; record each node's *first hop* from src.
            let s = src.index();
            let mut first_hop: Vec<Option<NodeId>> = vec![None; n];
            let mut done = vec![false; n];
            dist[s][s] = SimDuration::ZERO;
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((SimDuration::ZERO, src, None::<NodeId>)));
            while let Some(Reverse((d, u, via))) = heap.pop() {
                if done[u.index()] {
                    continue;
                }
                done[u.index()] = true;
                first_hop[u.index()] = via;
                for (v, link) in topology.neighbors(u) {
                    if done[v.index()] || !link_up(link) || !node_up(v) {
                        continue;
                    }
                    let nd = d + topology.link_delay(link);
                    if nd < dist[s][v.index()] {
                        dist[s][v.index()] = nd;
                        let hop = via.unwrap_or(v);
                        heap.push(Reverse((nd, v, Some(hop))));
                    }
                }
            }
            for (i, hop) in first_hop.iter().enumerate() {
                next[s][i] = *hop;
            }
        }

        Self { n, next, dist }
    }

    /// The first hop on the shortest path from `src` to `dst`, or `None` if
    /// `src == dst` or `dst` is unreachable.
    #[must_use]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next[src.index()][dst.index()]
    }

    /// The shortest-path distance (total propagation delay) from `src` to
    /// `dst`, or `None` if unreachable.
    #[must_use]
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let d = self.dist[src.index()][dst.index()];
        (d != SimDuration::from_nanos(u64::MAX)).then_some(d)
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
    use crate::Topology;

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
