//! A from-scratch NDN (Named Data Networking) forwarding engine.
//!
//! G-COPSS is implemented on top of CCNx/NDN (§III-C of the paper): the
//! COPSS layer encapsulates `Multicast` packets into Interests addressed to
//! `/rp/<id>` and lets the NDN engine forward them, while ordinary
//! query/response traffic (snapshot retrieval, the VoCCN-style baseline)
//! uses the NDN engine directly. This crate is that engine:
//!
//! * [`Interest`] / [`Data`] — the two NDN packet types.
//! * [`Fib`] — the Forwarding Information Base: longest-prefix match from
//!   name prefixes to outgoing [`FaceId`]s.
//! * [`Pit`] — the Pending Interest Table: breadcrumbs of forwarded
//!   Interests so Data flows back along the reverse path, with nonce-based
//!   loop suppression and Interest aggregation.
//! * [`ContentStore`] — an LRU content cache with freshness expiry.
//! * [`NdnEngine`] — ties the three together with the standard NDN
//!   forwarding pipeline. The engine is *sandboxed*: it never performs I/O;
//!   each call hands the [`NdnAction`]s the host (a simulated router) must
//!   carry out to a sink the host passes in, one by one.
//!
//! # Example
//!
//! ```
//! use gcopss_ndn::{Data, FaceId, Interest, NdnAction, NdnEngine};
//! use gcopss_names::Name;
//!
//! let mut engine = NdnEngine::new(Default::default());
//! let producer_face = FaceId(1);
//! let consumer_face = FaceId(2);
//! engine.fib_mut().add(Name::parse_lit("/video"), producer_face);
//!
//! // Interest goes toward the producer...
//! let i = Interest::new(Name::parse_lit("/video/seg1"), 7);
//! let mut actions = Vec::new();
//! engine.process_interest(0, consumer_face, i, |a| actions.push(a));
//! assert_eq!(actions, vec![NdnAction::SendInterest {
//!     face: producer_face,
//!     interest: Interest::new(Name::parse_lit("/video/seg1"), 7),
//! }]);
//!
//! // ...and Data follows the breadcrumb back.
//! let d = Data::new(Name::parse_lit("/video/seg1"), gcopss_compat::bytes::Bytes::from_static(b"x"));
//! let mut actions = Vec::new();
//! engine.process_data(0, producer_face, d.clone(), |a| actions.push(a));
//! assert_eq!(actions, vec![NdnAction::SendData { face: consumer_face, data: d }]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cs;
mod engine;
mod fib;
mod packet;
mod pit;

pub use cs::{ContentStore, ContentStoreConfig};
pub use engine::{NdnAction, NdnEngine};
pub use fib::Fib;
pub use packet::{Data, FaceId, Interest};
pub use pit::{Pit, PitInsert};
