//! Overload control: bounded service queues, admission policies, priority
//! shedding, and congestion marking.
//!
//! The DES engine's per-node service queues are unbounded by default —
//! past saturation the system queues forever and delivery "succeeds" with
//! unbounded staleness. Installing an [`OverloadConfig`] (see
//! `Simulator::install_overload`) bounds each queue and activates a
//! pluggable admission policy:
//!
//! * **Drop-tail** — an arrival to a full queue is rejected
//!   (`"queue-full"`), unless priority shedding finds a worse victim.
//! * **Head-drop** — the oldest waiting packet (of the lowest-priority
//!   class, when priorities are on) is evicted to admit the arrival;
//!   under sustained overload this keeps queue contents fresh.
//! * **CoDel** — a hand-rolled sojourn-time AQM in the spirit of Nichols &
//!   Jacobson's CoDel (no external crates, per the hermetic policy): when
//!   the queue's head sojourn time has stayed above `target` for a full
//!   `interval`, packets are shed at dequeue (`"aqm-shed"`) at a rate that
//!   increases with the square root of the drop count. Bounded by the same
//!   hard `queue_capacity` (tail behavior) like a real router.
//!
//! With `priority: true` the policy consults the registered
//! [`PacketMeta`] (`Simulator::set_packet_meta`): by `priority` (class 0 =
//! control plane, higher = bulk) control traffic is inserted ahead of bulk
//! (FIFO within a class), is never AQM-shed, and on overflow the
//! lowest-priority packet loses; by `supersede_key` a full queue first
//! evicts a *stale* queued update that the arrival supersedes
//! (`"stale-superseded"`) — position updates are only ever useful in
//! their latest version.
//!
//! `mark_sojourn` enables congestion feedback: a packet whose total
//! sojourn through a node exceeds the threshold is marked (ECN-style);
//! the mark is carried to downstream hops and surfaces to behaviors via
//! `Ctx::congestion_marked`, where clients react by multiplicatively
//! stretching their publish cadence.
//!
//! Everything here is **deterministic by construction** — no PRNG draws
//! at all (stronger than seeded-determinism): same-seed runs stay
//! byte-identical, and a vacuous config (see [`OverloadConfig::is_vacuous`])
//! is never installed, so unconfigured runs are bit-identical to pre-overload
//! builds.
//!
//! The whole policy lives here, beside its state: the engine asks the
//! crate-private `OverloadState` what to do with an arrival (`admit`,
//! `insert_pos`), with the head of a queue (`shed_head`) and with a
//! finished packet (`mark`), then applies and accounts the answer. It never
//! looks at the config.

use std::collections::VecDeque;

use crate::engine::{EngineDrop, PacketMeta, Queued};
use crate::{prof, SimDuration, SimTime};

/// How a bounded service queue sheds load (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject arrivals when the queue is full.
    DropTail,
    /// Evict the oldest waiting packet (lowest class first) to admit the
    /// arrival.
    HeadDrop,
    /// Sojourn-time AQM: shed at dequeue once the head-of-queue delay has
    /// exceeded `target` for a full `interval`; shedding accelerates with
    /// the square root of the drop count (the CoDel control law).
    CoDel {
        /// Acceptable standing head-of-queue sojourn time.
        target: SimDuration,
        /// How long sojourn must stay above `target` before shedding
        /// starts; also the base of the drop-spacing control law.
        interval: SimDuration,
    },
}

/// Overload-control configuration for every node of a simulator.
///
/// The default config is vacuous (unbounded queue, no marking, no
/// priorities) and installing it is a no-op — mirroring the vacuous
/// `FaultPlan` rule, so no-overload runs stay byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Maximum number of *waiting* packets per node (the in-service packet
    /// is not counted). `None` = unbounded. Values below 1 are clamped to 1
    /// at install (a zero-capacity queue would deadlock the server).
    pub queue_capacity: Option<usize>,
    /// What to do when the queue is full (and, for CoDel, at dequeue).
    pub policy: AdmissionPolicy,
    /// Class-aware queueing: control traffic (class 0) preempts bulk,
    /// is never AQM-shed, and sheds last on overflow; stale superseded
    /// bulk updates shed first.
    pub priority: bool,
    /// Mark packets whose sojourn through a node exceeds this threshold;
    /// marks propagate downstream and reach `Ctx::congestion_marked`.
    pub mark_sojourn: Option<SimDuration>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            queue_capacity: None,
            policy: AdmissionPolicy::DropTail,
            priority: false,
            mark_sojourn: None,
        }
    }
}

impl OverloadConfig {
    /// `true` when installing this config could not change any run:
    /// no queue bound, no marking, no priority reordering, and no AQM.
    /// (`DropTail`/`HeadDrop` without a capacity never fire.)
    #[must_use]
    pub fn is_vacuous(&self) -> bool {
        self.queue_capacity.is_none()
            && self.mark_sojourn.is_none()
            && !self.priority
            && !matches!(self.policy, AdmissionPolicy::CoDel { .. })
    }
}

/// Per-node CoDel control state (Nichols & Jacobson's algorithm, simplified:
/// the decision runs when the engine looks for the next packet to serve).
#[derive(Debug, Clone, Default)]
pub(crate) struct CoDelState {
    /// When the head sojourn first exceeded `target` (+ `interval`): the
    /// earliest time shedding may begin. `None` while below target.
    first_above: Option<SimTime>,
    /// In the shedding state.
    dropping: bool,
    /// Next scheduled shed while `dropping`.
    drop_next: SimTime,
    /// Sheds in the current dropping episode (control-law denominator).
    count: u32,
}

impl CoDelState {
    /// One dequeue-time decision: should the head packet be shed?
    ///
    /// `sojourn` is the head packet's time in queue; `can_drop` is false
    /// when shedding is forbidden (last packet, or a control-class head).
    pub(crate) fn on_dequeue(
        &mut self,
        now: SimTime,
        sojourn: SimDuration,
        target: SimDuration,
        interval: SimDuration,
        can_drop: bool,
    ) -> bool {
        if sojourn < target || !can_drop {
            // Below target (or must not drop): leave the dropping state.
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        let first = match self.first_above {
            Some(t) => t,
            None => {
                // First crossing: arm the interval timer, don't drop yet.
                self.first_above = Some(now + interval);
                return false;
            }
        };
        if now < first {
            return false;
        }
        if !self.dropping {
            self.dropping = true;
            // Re-entering shortly after an episode resumes near the old
            // rate (the standard CoDel refinement, simplified).
            self.count = self.count.saturating_sub(2);
            self.drop_next = now;
        }
        if now >= self.drop_next {
            self.count += 1;
            let spacing = interval.as_nanos() / isqrt(u64::from(self.count)).max(1);
            self.drop_next = now + SimDuration::from_nanos(spacing);
            return true;
        }
        false
    }
}

/// What to do with an arrival at a bounded queue (see
/// [`OverloadState::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Enqueue the arrival.
    Admit,
    /// Enqueue the arrival after evicting the queued packet at this index,
    /// which is dropped for this reason.
    Evict(usize, EngineDrop),
    /// Drop the arrival (`"queue-full"`).
    Reject,
}

/// Live overload state of a simulator (installed by a non-vacuous config).
///
/// Every method takes a node's service queue plus `start`, the index of its
/// first *waiting* packet: the in-service front (index 0 while the node is
/// serving) is never reordered, evicted or shed.
#[derive(Debug)]
pub(crate) struct OverloadState {
    cfg: OverloadConfig,
    /// Per-node CoDel control state (empty unless the policy is CoDel).
    codel: Vec<CoDelState>,
    /// Packets congestion-marked on sojourn overrun.
    marks: u64,
}

impl OverloadState {
    pub(crate) fn new(mut cfg: OverloadConfig, node_count: usize) -> Self {
        if let Some(c) = cfg.queue_capacity.as_mut() {
            *c = (*c).max(1);
        }
        let codel = if matches!(cfg.policy, AdmissionPolicy::CoDel { .. }) {
            vec![CoDelState::default(); node_count]
        } else {
            Vec::new()
        };
        Self { cfg, codel, marks: 0 }
    }

    /// Packets congestion-marked so far.
    pub(crate) fn marks(&self) -> u64 {
        self.marks
    }

    /// Admission control for `pkt` arriving at `queue`.
    ///
    /// Overflow resolution order: (1) a queued *stale* packet the arrival
    /// supersedes sheds first; (2) head-drop evicts the oldest waiting
    /// packet of the worst class; (3) drop-tail/CoDel evict the newest
    /// packet of the worst class only if the arrival outranks it, else
    /// reject the arrival. Without priorities there are no classes: (2)
    /// evicts the oldest waiting packet and (3) always rejects.
    pub(crate) fn admit<P>(
        &self,
        queue: &VecDeque<Queued<P>>,
        start: usize,
        pkt: &P,
        meta: &PacketMeta<P>,
    ) -> Admission {
        let Some(cap) = self.cfg.queue_capacity else {
            return Admission::Admit;
        };
        if queue.len() - start < cap {
            return Admission::Admit;
        }
        let _ovp = prof::scope("engine/overload");
        let head_drop = self.cfg.policy == AdmissionPolicy::HeadDrop;
        if !self.cfg.priority {
            return if head_drop {
                Admission::Evict(start, EngineDrop::QueueFull)
            } else {
                Admission::Reject
            };
        }
        let waiting = || start..queue.len();
        if let Some(key) = (meta.supersede_key)(pkt) {
            let stale = |&i: &usize| (meta.supersede_key)(&queue[i].pkt) == Some(key);
            if let Some(i) = waiting().find(stale) {
                return Admission::Evict(i, EngineDrop::StaleSuperseded);
            }
        }
        let class = |i: usize| (meta.priority)(&queue[i].pkt);
        let worst = waiting()
            .map(class)
            .max()
            .expect("full queue has a waiting packet");
        let victim = if head_drop {
            waiting().find(|&i| class(i) == worst)
        } else if worst > (meta.priority)(pkt) {
            waiting().rfind(|&i| class(i) == worst)
        } else {
            None
        };
        victim.map_or(Admission::Reject, |i| {
            Admission::Evict(i, EngineDrop::QueueFull)
        })
    }

    /// Where an admitted `pkt` joins `queue`: at the back, or — with
    /// priorities on — ahead of every waiting packet of a strictly worse
    /// class (FIFO within a class).
    pub(crate) fn insert_pos<P>(
        &self,
        queue: &VecDeque<Queued<P>>,
        start: usize,
        pkt: &P,
        meta: &PacketMeta<P>,
    ) -> usize {
        let mut pos = queue.len();
        if self.cfg.priority {
            let class = (meta.priority)(pkt);
            while pos > start && (meta.priority)(&queue[pos - 1].pkt) > class {
                pos -= 1;
            }
        }
        pos
    }

    /// Whether the policy sheds at dequeue time at all (CoDel): only then
    /// does the engine ask [`OverloadState::shed_head`].
    pub(crate) fn sheds_at_dequeue(&self) -> bool {
        !self.codel.is_empty()
    }

    /// CoDel dequeue-time decision for idle `node`, about to serve the head
    /// of `queue`: `true` when that head's queueing delay proves a standing
    /// queue and it must be shed instead (see [`CoDelState`]). Never sheds
    /// the last waiting packet, and — with priorities on — never a
    /// control-class head.
    pub(crate) fn shed_head<P>(
        &mut self,
        node: usize,
        queue: &VecDeque<Queued<P>>,
        now: SimTime,
        meta: &PacketMeta<P>,
    ) -> bool {
        let AdmissionPolicy::CoDel { target, interval } = self.cfg.policy else {
            return false;
        };
        let Some(front) = queue.front() else {
            return false;
        };
        let can_drop =
            queue.len() > 1 && !(self.cfg.priority && (meta.priority)(&front.pkt) == 0);
        let sojourn = now.saturating_duration_since(front.at);
        self.codel[node].on_dequeue(now, sojourn, target, interval, can_drop)
    }

    /// Congestion marking: whether a so-far unmarked packet whose total
    /// sojourn through a node (queueing + service) was `sojourn` gets
    /// marked. Counts the mark.
    pub(crate) fn mark(&mut self, sojourn: SimDuration) -> bool {
        let marked = self.cfg.mark_sojourn.is_some_and(|th| sojourn > th);
        self.marks += u64::from(marked);
        marked
    }
}

/// Integer square root (Newton's method), used by the CoDel control law.
/// `isqrt(0) == 0`.
fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x0 = n / 2 + 1;
    let mut x1 = (x0 + n / x0) / 2;
    while x1 < x0 {
        x0 = x1;
        x1 = (x0 + n / x0) / 2;
    }
    x0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(2), 1);
        assert_eq!(isqrt(3), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(99), 9);
        assert_eq!(isqrt(100), 10);
        assert_eq!(isqrt(u64::MAX), 4_294_967_295);
        for n in 0..2_000u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
    }

    #[test]
    fn default_config_is_vacuous() {
        assert!(OverloadConfig::default().is_vacuous());
        let bounded = OverloadConfig {
            queue_capacity: Some(8),
            ..OverloadConfig::default()
        };
        assert!(!bounded.is_vacuous());
        let marking = OverloadConfig {
            mark_sojourn: Some(SimDuration::from_millis(5)),
            ..OverloadConfig::default()
        };
        assert!(!marking.is_vacuous());
        let prio = OverloadConfig {
            priority: true,
            ..OverloadConfig::default()
        };
        assert!(!prio.is_vacuous());
        let codel = OverloadConfig {
            policy: AdmissionPolicy::CoDel {
                target: SimDuration::from_millis(5),
                interval: SimDuration::from_millis(100),
            },
            ..OverloadConfig::default()
        };
        assert!(!codel.is_vacuous());
        // An unbounded head-drop can never fire: vacuous.
        let head = OverloadConfig {
            policy: AdmissionPolicy::HeadDrop,
            ..OverloadConfig::default()
        };
        assert!(head.is_vacuous());
    }

    #[test]
    fn codel_needs_a_full_interval_above_target() {
        let mut st = CoDelState::default();
        let target = SimDuration::from_millis(5);
        let interval = SimDuration::from_millis(100);
        let t0 = SimTime::ZERO + SimDuration::from_secs(1);
        // Below target: never drops, state stays reset.
        assert!(!st.on_dequeue(t0, SimDuration::from_millis(1), target, interval, true));
        // Above target but interval not yet elapsed.
        assert!(!st.on_dequeue(t0, SimDuration::from_millis(9), target, interval, true));
        let t1 = t0 + SimDuration::from_millis(50);
        assert!(!st.on_dequeue(t1, SimDuration::from_millis(9), target, interval, true));
        // A dip below target resets the clock entirely.
        assert!(!st.on_dequeue(t1, SimDuration::from_millis(1), target, interval, true));
        let t2 = t1 + SimDuration::from_millis(60);
        assert!(!st.on_dequeue(t2, SimDuration::from_millis(9), target, interval, true));
        // Sustained: a full interval after re-arming, drops begin.
        let t3 = t2 + interval;
        assert!(st.on_dequeue(t3, SimDuration::from_millis(9), target, interval, true));
        // Immediately after a drop the next one is spaced out.
        assert!(!st.on_dequeue(t3, SimDuration::from_millis(9), target, interval, true));
        // ... and arrives once interval/sqrt(count) has passed.
        let t4 = t3 + interval;
        assert!(st.on_dequeue(t4, SimDuration::from_millis(9), target, interval, true));
    }

    #[test]
    fn codel_respects_can_drop() {
        let mut st = CoDelState::default();
        let target = SimDuration::from_millis(1);
        let interval = SimDuration::from_millis(10);
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            t += SimDuration::from_millis(10);
            assert!(!st.on_dequeue(t, SimDuration::from_millis(50), target, interval, false));
        }
    }
}
