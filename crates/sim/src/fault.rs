//! Deterministic fault injection: scheduled link/node failures and seeded
//! per-hop packet loss.
//!
//! A [`FaultPlan`] is a *chaos schedule*: a sorted list of link-down/up and
//! node-crash/restart events at fixed simulated times, plus an optional
//! Bernoulli loss probability applied to every transmission. The plan is
//! handed to [`crate::Simulator::install_faults`], which
//!
//! * executes the scheduled events as ordinary simulation events (so they
//!   interleave deterministically with traffic),
//! * recomputes the routing table over the surviving subgraph after every
//!   topology-change event
//!   ([`crate::RoutingTable::shortest_paths_filtered`]),
//! * drops packets crossing a dead link or addressed to a dead node,
//!   counting `link-lost` / `node-lost` drop reasons in telemetry, and
//! * notifies affected [`crate::NodeBehavior`]s through
//!   [`crate::NodeBehavior::on_fault`] so protocol layers can run their
//!   recovery half (soft-state purge, re-subscription, RP failover).
//!
//! Determinism: all loss draws come from one xoshiro PRNG seeded by the
//! plan, and a *vacuous* plan (empty schedule, zero loss) is never installed
//! at all, so it adds zero events and zero PRNG draws — a zero-failure chaos
//! run is byte-identical to a run with fault injection disabled.

use gcopss_compat::{Rng, SeedableRng, StdRng};

use crate::{LinkId, NodeId, SimDuration, SimTime};

/// One scheduled failure or repair event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The link stops carrying packets (both directions).
    LinkDown(LinkId),
    /// The link is repaired.
    LinkUp(LinkId),
    /// The node crashes: its service queue is flushed, pending timers die,
    /// and packets addressed to it are dropped until it restarts.
    NodeDown(NodeId),
    /// The node restarts with empty queues; its behavior receives
    /// [`FaultNotice::Restarted`].
    NodeUp(NodeId),
}

impl FaultEvent {
    /// Whether the event brings a link or node back up.
    pub(crate) fn is_repair(self) -> bool {
        matches!(self, Self::LinkUp(_) | Self::NodeUp(_))
    }
}

/// What a [`crate::NodeBehavior`] is told when a fault touches it.
///
/// Notices are delivered only to *live* nodes, after routing has been
/// recomputed over the surviving subgraph (so handlers can immediately
/// reroute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNotice {
    /// The link to `peer` went down, or `peer` itself crashed — either way
    /// the adjacency is unusable and any per-face soft state should be
    /// purged.
    LinkDown {
        /// The neighbor at the far end of the failed adjacency.
        peer: NodeId,
    },
    /// The link to `peer` came back up (or `peer` restarted).
    LinkUp {
        /// The neighbor at the far end of the repaired adjacency.
        peer: NodeId,
    },
    /// This node just restarted after a crash: all of its soft state is
    /// assumed lost and should be rebuilt from scratch.
    Restarted,
}

/// A seeded chaos schedule plus per-hop Bernoulli loss.
///
/// # Example
///
/// ```
/// # use gcopss_sim::{FaultPlan, LinkId, NodeId, SimTime, SimDuration};
/// let plan = FaultPlan::new(7)
///     .with_loss(0.01)
///     .link_down(SimTime::from_millis(100), LinkId(3))
///     .link_up(SimTime::from_millis(400), LinkId(3))
///     .node_down(SimTime::from_millis(200), NodeId(5));
/// assert!(!plan.is_vacuous());
/// assert_eq!(plan.schedule().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
    loss: f64,
    seed: u64,
}

impl FaultPlan {
    /// Creates an empty (vacuous) plan whose loss draws will use `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            events: Vec::new(),
            loss: 0.0,
            seed,
        }
    }

    /// Sets the per-transmission Bernoulli loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability {p} not in [0, 1]");
        self.loss = p;
        self
    }

    /// Schedules an arbitrary fault event.
    #[must_use]
    pub fn event(mut self, at: SimTime, ev: FaultEvent) -> Self {
        self.events.push((at, ev));
        self
    }

    /// Schedules a link failure.
    #[must_use]
    pub fn link_down(self, at: SimTime, link: LinkId) -> Self {
        self.event(at, FaultEvent::LinkDown(link))
    }

    /// Schedules a link repair.
    #[must_use]
    pub fn link_up(self, at: SimTime, link: LinkId) -> Self {
        self.event(at, FaultEvent::LinkUp(link))
    }

    /// Schedules a node crash.
    #[must_use]
    pub fn node_down(self, at: SimTime, node: NodeId) -> Self {
        self.event(at, FaultEvent::NodeDown(node))
    }

    /// Schedules a node restart.
    #[must_use]
    pub fn node_up(self, at: SimTime, node: NodeId) -> Self {
        self.event(at, FaultEvent::NodeUp(node))
    }

    /// Adds `count` link flaps drawn deterministically from the plan's seed:
    /// each flap picks a link uniformly from `candidates` and a down time
    /// uniformly in `[start, end)`, and repairs it `outage` later.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or `start >= end` while `count > 0`.
    #[must_use]
    pub fn random_link_flaps(
        mut self,
        candidates: &[LinkId],
        count: usize,
        start: SimTime,
        end: SimTime,
        outage: SimDuration,
    ) -> Self {
        if count == 0 {
            return self;
        }
        assert!(!candidates.is_empty(), "no candidate links to flap");
        assert!(start < end, "empty flap window");
        // A dedicated PRNG keeps schedule generation independent of the
        // runtime loss draws (which re-seed from the same value).
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_f1a5_0000_0001);
        for _ in 0..count {
            let link = candidates[rng.gen_range(0..candidates.len())];
            let down = SimTime::from_nanos(rng.gen_range(start.as_nanos()..end.as_nanos()));
            self.events.push((down, FaultEvent::LinkDown(link)));
            self.events.push((down + outage, FaultEvent::LinkUp(link)));
        }
        self
    }

    /// `true` when the plan schedules nothing and drops nothing — such a
    /// plan is never installed and perturbs the simulation in no way.
    #[must_use]
    pub fn is_vacuous(&self) -> bool {
        self.events.is_empty() && self.loss == 0.0
    }

    /// The scheduled events, in insertion order (sorted by time at install).
    #[must_use]
    pub fn schedule(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    pub(crate) fn into_parts(mut self) -> (Vec<(SimTime, FaultEvent)>, f64, u64) {
        // Stable sort: same-time events keep insertion order.
        self.events.sort_by_key(|&(t, _)| t);
        (self.events, self.loss, self.seed)
    }
}

/// The engine's live fault state (only allocated for non-vacuous plans):
/// the link/node up-down tables and the loss PRNG. The engine asks it
/// questions and applies [`FaultEvent`]s through [`FaultState::set_up`]; it
/// never touches the tables itself.
pub(crate) struct FaultState {
    link_up: Vec<bool>,
    node_up: Vec<bool>,
    loss: f64,
    rng: StdRng,
    last_repair: Option<SimTime>,
}

impl FaultState {
    pub(crate) fn new(nodes: usize, links: usize, loss: f64, seed: u64) -> Self {
        Self {
            link_up: vec![true; links],
            node_up: vec![true; nodes],
            loss,
            rng: StdRng::seed_from_u64(seed),
            last_repair: None,
        }
    }

    #[inline]
    pub(crate) fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.index()]
    }

    #[inline]
    pub(crate) fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// When the last repair (`LinkUp`/`NodeUp`) took effect.
    pub(crate) fn last_repair(&self) -> Option<SimTime> {
        self.last_repair
    }

    /// Whether a transmission over `link` is lost: the link is down, or the
    /// Bernoulli loss draw says so. Never touches the PRNG when the link is
    /// down or the plan is lossless, so loss-free chaos schedules stay
    /// draw-for-draw identical regardless of traffic volume.
    #[inline]
    pub(crate) fn loses(&mut self, link: LinkId) -> bool {
        !self.link_is_up(link) || (self.loss > 0.0 && self.rng.gen_bool(self.loss))
    }

    /// Applies a scheduled event to the up/down tables; a repair stamps
    /// [`FaultState::last_repair`]. Returns `false` when the link or node
    /// already was in that state, i.e. the event changes nothing.
    pub(crate) fn set_up(&mut self, ev: FaultEvent, now: SimTime) -> bool {
        let up = ev.is_repair();
        let slot = match ev {
            FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) => &mut self.link_up[l.index()],
            FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => &mut self.node_up[n.index()],
        };
        if *slot == up {
            return false;
        }
        *slot = up;
        if up {
            self.last_repair = Some(now);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacuous_plan_detected() {
        assert!(FaultPlan::new(1).is_vacuous());
        assert!(!FaultPlan::new(1).with_loss(0.5).is_vacuous());
        assert!(!FaultPlan::new(1)
            .link_down(SimTime::ZERO, LinkId(0))
            .is_vacuous());
    }

    #[test]
    fn into_parts_sorts_by_time_stably() {
        let plan = FaultPlan::new(3)
            .link_down(SimTime::from_millis(5), LinkId(1))
            .node_down(SimTime::from_millis(1), NodeId(2))
            .link_up(SimTime::from_millis(5), LinkId(1));
        let (events, loss, seed) = plan.into_parts();
        assert_eq!(loss, 0.0);
        assert_eq!(seed, 3);
        assert_eq!(
            events,
            vec![
                (SimTime::from_millis(1), FaultEvent::NodeDown(NodeId(2))),
                (SimTime::from_millis(5), FaultEvent::LinkDown(LinkId(1))),
                (SimTime::from_millis(5), FaultEvent::LinkUp(LinkId(1))),
            ]
        );
    }

    #[test]
    fn random_flaps_are_deterministic_and_paired() {
        let links = [LinkId(0), LinkId(1), LinkId(2)];
        let mk = || {
            FaultPlan::new(9).random_link_flaps(
                &links,
                4,
                SimTime::from_millis(10),
                SimTime::from_millis(100),
                SimDuration::from_millis(20),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.schedule().len(), 8);
        for pair in a.schedule().chunks(2) {
            let (down_t, FaultEvent::LinkDown(l)) = pair[0] else {
                panic!("expected down first");
            };
            let (up_t, FaultEvent::LinkUp(m)) = pair[1] else {
                panic!("expected up second");
            };
            assert_eq!(l, m);
            assert_eq!(up_t, down_t + SimDuration::from_millis(20));
            assert!(down_t >= SimTime::from_millis(10));
            assert!(down_t < SimTime::from_millis(100));
        }
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn loss_out_of_range_rejected() {
        let _ = FaultPlan::new(0).with_loss(1.5);
    }
}
