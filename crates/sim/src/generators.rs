//! Topology generators: the paper's benchmark testbed and a Rocketfuel-like
//! backbone.

use gcopss_compat::StdRng;
use gcopss_compat::seq::SliceRandom;
use gcopss_compat::{Rng, SeedableRng};

use crate::{NodeId, NodeKind, SimDuration, Topology};

/// The 6-router testbed topology of the paper's microbenchmark (Fig. 3b).
///
/// R1 is the hub that serves as the RP (and to which the IP server attaches).
/// Links are short (0.1 ms) because the microbenchmark explicitly measures
/// processing and queueing latency, not wire latency.
///
/// Returns the topology and the router ids `[R1, …, R6]`.
#[must_use]
pub fn benchmark_testbed() -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let r: Vec<NodeId> = (1..=6).map(|i| t.add_node(format!("R{i}"))).collect();
    let d = SimDuration::from_micros(100);
    // Fig. 3b arrangement: R1 central, R2 a second aggregation point.
    t.try_add_link(r[0], r[1], d, None).expect("generated links are valid"); // R1-R2
    t.try_add_link(r[0], r[2], d, None).expect("generated links are valid"); // R1-R3
    t.try_add_link(r[1], r[3], d, None).expect("generated links are valid"); // R2-R4
    t.try_add_link(r[1], r[4], d, None).expect("generated links are valid"); // R2-R5
    t.try_add_link(r[2], r[5], d, None).expect("generated links are valid"); // R3-R6
    (t, r)
}

/// Extra random core links beyond the spanning tree, as a fraction of the
/// core size (controls mesh density).
pub const EXTRA_LINK_FRACTION: f64 = 0.75;

/// Core link delay range in milliseconds (Rocketfuel link weights are
/// interpreted as delays).
pub const CORE_DELAY_MS: (u64, u64) = (1, 6);

/// Delay between an edge router and its core router (paper: 5 ms).
pub const EDGE_DELAY: SimDuration = SimDuration::from_millis(5);

/// Parameters for [`rocketfuel_like`].
#[derive(Debug, Clone)]
pub struct BackboneParams {
    /// Number of core routers (the paper uses Rocketfuel AS 3967 with 79).
    pub core_routers: usize,
    /// Edge routers attached per core router (the paper attaches 1–3; we
    /// use a fixed count for determinism, default 2, ≈160 edge routers).
    pub edge_per_core: usize,
}

impl Default for BackboneParams {
    fn default() -> Self {
        Self {
            core_routers: 79,
            edge_per_core: 2,
        }
    }
}

/// Output of [`rocketfuel_like`]: the topology plus the core and edge router
/// id lists.
#[derive(Debug, Clone)]
pub struct Backbone {
    /// The generated topology.
    pub topology: Topology,
    /// Core router ids.
    pub core: Vec<NodeId>,
    /// Edge router ids (attachment points for hosts).
    pub edge: Vec<NodeId>,
}

/// Generates a connected random backbone with the shape the paper takes
/// from Rocketfuel (AS 3967): `core_routers` core nodes joined by a random
/// spanning tree plus extra shortcut links, with link weights (delays) drawn
/// uniformly from [`CORE_DELAY_MS`], and `edge_per_core` edge routers hanging
/// off every core router at [`EDGE_DELAY`].
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `core_routers` is zero.
#[must_use]
pub fn rocketfuel_like(seed: u64, params: &BackboneParams) -> Backbone {
    assert!(params.core_routers > 0, "need at least one core router");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();

    let core: Vec<NodeId> = (0..params.core_routers)
        .map(|i| t.add_node_kind(format!("core{i}"), NodeKind::Core))
        .collect();

    let delay = |rng: &mut StdRng| {
        let (lo, hi) = CORE_DELAY_MS;
        SimDuration::from_millis(rng.gen_range(lo..=hi))
    };

    // Random spanning tree: connect each node to a random earlier node,
    // over a shuffled ordering so the tree shape varies with the seed.
    let mut order: Vec<usize> = (0..core.len()).collect();
    order.shuffle(&mut rng);
    for i in 1..order.len() {
        let a = core[order[i]];
        let b = core[order[rng.gen_range(0..i)]];
        let d = delay(&mut rng);
        t.try_add_link(a, b, d, None).expect("generated links are valid");
    }

    // Extra shortcut links for mesh-like density.
    let extra = (params.core_routers as f64 * EXTRA_LINK_FRACTION) as usize;
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < extra * 20 {
        attempts += 1;
        let a = core[rng.gen_range(0..core.len())];
        let b = core[rng.gen_range(0..core.len())];
        if a == b || t.link_between(a, b).is_some() {
            continue;
        }
        let d = delay(&mut rng);
        t.try_add_link(a, b, d, None).expect("generated links are valid");
        added += 1;
    }

    // Edge routers.
    let mut edge = Vec::new();
    for (ci, &c) in core.iter().enumerate() {
        for j in 0..params.edge_per_core {
            let e = t.add_node_kind(format!("edge{ci}_{j}"), NodeKind::Edge);
            t.try_add_link(c, e, EDGE_DELAY, None).expect("generated links are valid");
            edge.push(e);
        }
    }

    debug_assert!(t.is_connected());
    Backbone {
        topology: t,
        core,
        edge,
    }
}

/// Attaches `count` host nodes round-robin across the given edge routers
/// (the paper distributes players uniformly over edge routers), each with
/// the given access-link delay (paper: 1 ms).
///
/// Returns the host ids in attachment order.
pub fn attach_hosts(
    topology: &mut Topology,
    edges: &[NodeId],
    count: usize,
    access_delay: SimDuration,
    name_prefix: &str,
) -> Vec<NodeId> {
    assert!(!edges.is_empty(), "need at least one edge router");
    (0..count)
        .map(|i| {
            let h = topology.add_node_kind(format!("{name_prefix}{i}"), NodeKind::Host);
            topology.try_add_link(h, edges[i % edges.len()], access_delay, None).expect("generated links are valid");
            h
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingTable;

    #[test]
    fn benchmark_testbed_shape() {
        let (t, r) = benchmark_testbed();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.link_count(), 5);
        assert!(t.is_connected());
        assert_eq!(r.len(), 6);
        // R1 is the hub with degree 2 (R2, R3).
        assert_eq!(t.neighbors(r[0]).count(), 2);
    }

    #[test]
    fn rocketfuel_like_is_connected_and_sized() {
        let p = BackboneParams::default();
        let b = rocketfuel_like(42, &p);
        assert_eq!(b.core.len(), 79);
        assert_eq!(b.edge.len(), 79 * 2);
        assert_eq!(b.topology.node_count(), 79 * 3);
        assert!(b.topology.is_connected());
        // Spanning tree (78) + extras + edge links (158).
        assert!(b.topology.link_count() >= 78 + 158);
    }

    #[test]
    fn rocketfuel_like_is_deterministic() {
        let p = BackboneParams::default();
        let a = rocketfuel_like(7, &p);
        let b = rocketfuel_like(7, &p);
        assert_eq!(a.topology.link_count(), b.topology.link_count());
        for l in 0..a.topology.link_count() {
            let l = crate::LinkId(l as u32);
            assert_eq!(a.topology.link_endpoints(l), b.topology.link_endpoints(l));
            assert_eq!(a.topology.link_delay(l), b.topology.link_delay(l));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = BackboneParams::default();
        let a = rocketfuel_like(1, &p);
        let b = rocketfuel_like(2, &p);
        let differs = (0..a.topology.link_count().min(b.topology.link_count())).any(|i| {
            let l = crate::LinkId(i as u32);
            a.topology.link_endpoints(l) != b.topology.link_endpoints(l)
                || a.topology.link_delay(l) != b.topology.link_delay(l)
        });
        assert!(differs);
    }

    #[test]
    fn attach_hosts_round_robin() {
        let p = BackboneParams {
            core_routers: 4,
            edge_per_core: 1,
        };
        let mut b = rocketfuel_like(3, &p);
        let hosts = attach_hosts(
            &mut b.topology,
            &b.edge,
            10,
            SimDuration::from_millis(1),
            "player",
        );
        assert_eq!(hosts.len(), 10);
        assert!(b.topology.is_connected());
        // Each host hangs off exactly one edge router.
        for &h in &hosts {
            assert_eq!(b.topology.neighbors(h).count(), 1);
            let (e, _) = b.topology.neighbors(h).next().unwrap();
            assert_eq!(b.topology.node_kind(e), NodeKind::Edge);
        }
        // Round-robin: edge 0 gets hosts 0, 4, 8.
        let (e0, _) = b.topology.neighbors(hosts[0]).next().unwrap();
        let (e4, _) = b.topology.neighbors(hosts[4]).next().unwrap();
        assert_eq!(e0, e4);
    }

    #[test]
    fn host_distances_are_plausible() {
        // End-to-end delay between two hosts should be at least
        // 2*(access + edge) and bounded by the network diameter.
        let b = rocketfuel_like(11, &BackboneParams::default());
        let mut topo = b.topology;
        let hosts = attach_hosts(&mut topo, &b.edge, 20, SimDuration::from_millis(1), "h");
        let rt = RoutingTable::shortest_paths(&topo);
        let d = rt.distance(hosts[0], hosts[13]).unwrap();
        assert!(d >= SimDuration::from_millis(2 + 10)); // 2*1ms access + 2*5ms edge
        assert!(d <= SimDuration::from_millis(200));
    }
}
