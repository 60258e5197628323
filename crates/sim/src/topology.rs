//! Network topologies: nodes, links, and their parameters.

use std::fmt;


use crate::SimDuration;

/// Identifier of a node in a [`Topology`]. Dense, assigned in insertion
/// order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index into dense per-node arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a bidirectional link in a [`Topology`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link's index into dense per-link arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Coarse role of a node, used by experiment drivers to pick attachment
/// points and by reports to label results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeKind {
    /// A backbone router.
    #[default]
    Core,
    /// An access/edge router.
    Edge,
    /// An end host (player, server, broker).
    Host,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    name: String,
    kind: NodeKind,
}

/// Why a link could not be added to a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// An endpoint does not name an existing node.
    UnknownNode(NodeId),
    /// Both endpoints are the same node.
    SelfLink(NodeId),
    /// The link table is full (`u32` ids exhausted).
    TooManyLinks,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode(n) => write!(f, "unknown node {n}"),
            Self::SelfLink(n) => write!(f, "self-links are not allowed (node {n})"),
            Self::TooManyLinks => write!(f, "too many links"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A bidirectional link between two nodes.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    pub a: NodeId,
    pub b: NodeId,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Bytes per second; `None` means infinite (no serialization delay).
    pub bandwidth: Option<u64>,
}

/// A network topology: a set of nodes connected by bidirectional links.
///
/// Links carry a one-way propagation delay (the paper interprets Rocketfuel
/// link weights as milliseconds of delay) and an optional bandwidth used for
/// serialization delay and congestion.
///
/// # Example
///
/// ```
/// # use gcopss_sim::{Topology, SimDuration};
/// let mut t = Topology::new();
/// let a = t.add_node("a");
/// let b = t.add_node("b");
/// t.try_add_link(a, b, SimDuration::from_millis(2), None).unwrap();
/// assert_eq!(t.neighbors(a).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    links: Vec<Link>,
    /// adjacency: for each node, (neighbor, link id)
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with [`NodeKind::Core`] and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node_kind(name, NodeKind::Core)
    }

    /// Adds a node with an explicit kind and returns its id.
    pub fn add_node_kind(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(NodeInfo {
            name: name.into(),
            kind,
        });
        self.adj.push(Vec::new());
        id
    }

    /// Adds a bidirectional link and returns its id.
    ///
    /// `bandwidth` is in bytes per second; `None` disables serialization
    /// delay on this link. Malformed input is reported as an error rather
    /// than a panic, so topologies can come from external descriptions as
    /// well as generator code.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if either endpoint is unknown, if `a == b`,
    /// or if the link id space is exhausted.
    pub fn try_add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimDuration,
        bandwidth: Option<u64>,
    ) -> Result<LinkId, TopologyError> {
        if a.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        let id = LinkId(u32::try_from(self.links.len()).map_err(|_| TopologyError::TooManyLinks)?);
        self.links.push(Link {
            a,
            b,
            delay,
            bandwidth,
        });
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        Ok(id)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The display name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// The kind of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    #[must_use]
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// Iterates over `(neighbor, link)` pairs of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adj[node.index()].iter().copied()
    }

    /// The link between two adjacent nodes, if any.
    #[must_use]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adj
            .get(a.index())?
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// The one-way propagation delay of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown.
    #[must_use]
    pub fn link_delay(&self, link: LinkId) -> SimDuration {
        self.links[link.index()].delay
    }

    /// The bandwidth of a link in bytes/second, if finite.
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown.
    #[must_use]
    pub fn link_bandwidth(&self, link: LinkId) -> Option<u64> {
        self.links[link.index()].bandwidth
    }

    /// The two endpoints of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown.
    #[must_use]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.links[link.index()];
        (l.a, l.b)
    }

    /// Returns `true` if every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for (m, _) in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_topology() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node_kind("c", NodeKind::Host);
        let l = t.try_add_link(a, b, SimDuration::from_millis(1), None).unwrap();
        t.try_add_link(b, c, SimDuration::from_millis(2), Some(1_000_000)).unwrap();

        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.node_name(a), "a");
        assert_eq!(t.node_kind(c), NodeKind::Host);
        assert_eq!(t.link_between(a, b), Some(l));
        assert_eq!(t.link_between(a, c), None);
        assert_eq!(t.link_delay(l), SimDuration::from_millis(1));
        assert_eq!(t.link_bandwidth(l), None);
        assert_eq!(t.link_endpoints(l), (a, b));
        assert_eq!(t.neighbors(b).count(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_topology_detected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_node("island");
        t.try_add_link(a, b, SimDuration::from_millis(1), None).unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::new().is_connected());
    }

    #[test]
    fn try_add_link_reports_malformed_input() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert_eq!(
            t.try_add_link(a, a, SimDuration::ZERO, None),
            Err(TopologyError::SelfLink(a))
        );
        assert_eq!(
            t.try_add_link(a, NodeId(9), SimDuration::ZERO, None),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            t.try_add_link(NodeId(7), b, SimDuration::ZERO, None),
            Err(TopologyError::UnknownNode(NodeId(7)))
        );
        assert!(t.try_add_link(a, b, SimDuration::ZERO, None).is_ok());
        assert_eq!(t.link_count(), 1);
        // Errors are printable diagnostics.
        assert_eq!(
            TopologyError::UnknownNode(NodeId(9)).to_string(),
            "unknown node n9"
        );
    }
}
