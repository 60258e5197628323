//! The G-COPSS system: the paper's primary contribution, its gaming
//! add-ons, and the baselines it is evaluated against.
//!
//! This crate assembles the substrates (`gcopss-names`, `gcopss-ndn`,
//! `gcopss-copss`, `gcopss-sim`, `gcopss-game`) into runnable systems:
//!
//! * [`GCopssRouter`] — the router of Fig. 2 (NDN + COPSS engines) with the
//!   dynamic RP-balancing protocol of §IV-B.
//! * [`GamePlayerClient`] — the player host: hierarchical subscriptions,
//!   trace-driven publishing, latency accounting.
//! * [`broker`] — the decentralized snapshot brokers of §IV-A with both
//!   dissemination modes (query/response and cyclic multicast).
//! * [`SnapName`] — the one owner of the snapshot plane's name grammar.
//! * [`hybrid`] — hybrid-G-COPSS (COPSS edge + IP multicast core, §III-D).
//! * [`ip_server`] — the IP client/server baseline.
//! * [`ndn_baseline`] — the VoCCN-style NDN query/response baseline.
//! * [`scenario`] — builders assembling complete simulations.
//! * [`experiments`] — drivers regenerating every table and figure of §V.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
mod client;
pub mod drops;
pub mod experiments;
pub mod hybrid;
pub mod ip_server;
pub mod ndn_baseline;
mod packet;
pub mod params;
mod router;
pub mod scenario;
mod snapname;
mod world;

pub use client::{CatchUpConfig, DedupWindow, GamePlayerClient, TraceCursor};
pub use packet::{payload_of, GPacket, IpPacket, IpUpdate};
pub use params::{RecoveryConfig, SimParams};
pub use router::{FaceMap, GCopssRouter, RpSelection, SplitConfig};
pub use snapname::SnapName;
pub use world::{
    CatchUpAudit, CatchUpLedger, CatchUpMode, CatchUpRecord, ConvergenceRecord, GameWorld,
    MetricsMode, SplitRecord, UpdateMetrics,
};
