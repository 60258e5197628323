//! The game model of G-COPSS: hierarchical maps, players, objects, traces
//! and movement.
//!
//! The paper (§III-A, §V) evaluates G-COPSS with a Counter-Strike-like game
//! whose world map is partitioned hierarchically: the evaluation map has 5
//! regions of 5 zones each, yielding 31 *leaf CDs* — 25 zones (`/1/1` …
//! `/5/5`), 5 region own-areas (`/1/0` … `/5/0`, the airspace over each
//! region) and 1 world own-area (`/0`, the satellite layer).
//!
//! This crate models everything game-side:
//!
//! * [`GameMap`] — arbitrary-depth hierarchical maps with the paper's
//!   naming convention, publication/subscription CD derivation, visibility
//!   queries, and movement classification (the six movement types of
//!   Table III).
//! * [`ObjectModel`] / [`ObjectState`] — game objects distributed over
//!   areas, with the geometric update-size accumulation model
//!   `size(obj_vn) = Σ αⁿ⁻ⁱ·size(upd_i)` used to size snapshots.
//! * [`PlayerPopulation`] — player placement (2 per area for the
//!   microbenchmark, 4–20 per area for the 414-player trace).
//! * [`trace`] — synthetic trace generators replaying the *statistics* of
//!   the paper's traces: the 62-player / ≈12,440-event microbenchmark
//!   trace and the 414-player / 1,686,905-update Counter-Strike trace with
//!   its heavy-tailed per-player update distribution.
//! * [`MovementModel`] — the §V-B player-movement workload (move every
//!   5–35 min; 10% up, 10% down, 80–90% lateral) with per-move snapshot
//!   requirements.
//! * [`stats`] — the trace characterization of Fig. 3c/3d.
//!
//! # Example
//!
//! ```
//! use gcopss_game::{AreaId, GameMap};
//!
//! let map = GameMap::paper_map(); // 5 regions × 5 zones
//! assert_eq!(map.leaf_cds().len(), 31);
//!
//! // A soldier in zone /1/2 subscribes to the satellite layer, the
//! // airspace over region 1, and its own zone.
//! let zone = map.area_by_name(&"/1/2".parse().unwrap()).unwrap();
//! let subs: Vec<String> = map
//!     .subscription_cds(zone)
//!     .iter()
//!     .map(ToString::to_string)
//!     .collect();
//! assert_eq!(subs, ["/0", "/1/0", "/1/2"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod movement;
mod objects;
mod players;
pub mod stats;
pub mod trace;

pub use map::{AreaId, GameMap, MoveType};
pub use movement::{MoveEvent, MovementModel};
pub use objects::{ObjectId, ObjectModel, ObjectModelParams, ObjectState};
pub use players::{PlayerId, PlayerPopulation};
