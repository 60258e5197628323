//! COPSS: a Content-Oriented Publish/Subscribe System for content-centric
//! networks.
//!
//! COPSS (Chen et al., ANCS 2011) adds an efficient push-based
//! publish/subscribe capability to NDN by introducing three packet types —
//! `Subscribe`, `Unsubscribe` and `Multicast` — plus `FibAdd`/`FibRemove`
//! control packets, a per-face *Subscription Table* (ST), and *Rendezvous
//! Points* (RPs) that root core-based multicast trees for hierarchical
//! *Content Descriptors* (CDs). G-COPSS (the paper reproduced by this
//! workspace) builds its gaming infrastructure directly on these primitives.
//!
//! This crate provides the router-local machinery:
//!
//! * [`CopssPacket`] / [`MulticastPacket`] — the wire messages.
//! * [`SubscriptionTable`] — per-face CD sets stored both exactly and as
//!   counting Bloom filters (the paper's representation), with the
//!   hierarchical match rule: a multicast with CD *c* leaves through every
//!   face subscribed to any prefix of *c*.
//! * [`RpTable`] — the prefix-free CD-prefix → RP assignment (§III-B
//!   "Rendezvous Point Setup"), with the overlap queries subscription
//!   propagation needs and the move operation behind hot-spot offloading.
//! * [`TrafficWindow`] — the sliding window of recent per-CD traffic an RP
//!   monitors, and the load-balancing split planner (§IV-B).
//! * [`CopssEngine`] — ties ST + RP table + upstream-join bookkeeping into
//!   the hop-level decisions a G-COPSS router makes. Like the NDN engine it
//!   is sandboxed: it returns decisions, the host executes them.
//!
//! # Example
//!
//! ```
//! use gcopss_copss::{CopssEngine, RpId};
//! use gcopss_names::{Cd, Name};
//! use gcopss_ndn::FaceId;
//!
//! let mut e = CopssEngine::new();
//! e.rp_table_mut().assign(Name::root(), RpId(0)).unwrap();
//!
//! // A downstream host subscribes to region /1.
//! let joins = e.handle_subscribe(FaceId(3), &[Name::parse_lit("/1")], None);
//! assert_eq!(joins.len(), 1, "must join toward RP 0");
//!
//! // A publication to /1/2 travelling RP 0's tree leaves through that face.
//! let cd = Cd::parse_lit("/1/2");
//! assert_eq!(e.st().matching_faces(&cd, None, Some(RpId(0))), vec![FaceId(3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod packet;
mod rp;
mod st;
mod traffic;

pub use engine::{CopssEngine, JoinRequest, PruneRequest};
pub use packet::{CopssPacket, MulticastPacket, RpId};
pub use rp::{RpAssignError, RpTable};
pub use st::SubscriptionTable;
pub use traffic::{SplitPlan, TrafficWindow};
