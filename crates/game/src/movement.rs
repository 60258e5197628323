//! The player-movement workload (§V-B "Message Dissemination for Players
//! Moving").

use gcopss_names::Name;
use gcopss_compat::StdRng;
use gcopss_compat::{Rng, SeedableRng};

use crate::{AreaId, GameMap, MoveType, PlayerId, PlayerPopulation};

/// Probability of moving one layer up (if not already at the world);
/// paper: 10%.
const P_UP: f64 = 0.10;

/// Probability of moving one layer down (if not at a zone); paper: 10%.
/// Every other move is lateral.
const P_DOWN: f64 = 0.10;

/// One movement of one player, with the snapshots it requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveEvent {
    /// Event time in nanoseconds from trace start.
    pub time_ns: u64,
    /// The moving player.
    pub player: PlayerId,
    /// Area the player leaves.
    pub from: AreaId,
    /// Area the player enters.
    pub to: AreaId,
    /// Table III movement classification.
    pub move_type: MoveType,
    /// Leaf CDs whose snapshot the player must download (newly visible).
    pub snapshot_cds: Vec<Name>,
}

/// Generates movement traces over a [`GameMap`]: each move goes up with
/// probability 10%, down with 10% (when possible) and laterally otherwise.
#[derive(Debug, Clone)]
pub struct MovementModel {
    interval_ns: (u64, u64),
}

impl MovementModel {
    /// Creates a model whose players each move after an interval drawn
    /// uniformly from `interval_ns` (nanoseconds).
    #[must_use]
    pub fn new(interval_ns: (u64, u64)) -> Self {
        Self { interval_ns }
    }

    /// Generates all moves up to `duration_ns`, sorted by time. Players
    /// start at their [`PlayerPopulation`] areas; each subsequent move
    /// starts from wherever the previous one ended.
    #[must_use]
    pub fn generate(
        &self,
        seed: u64,
        map: &GameMap,
        population: &PlayerPopulation,
        duration_ns: u64,
    ) -> Vec<MoveEvent> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for player in population.players() {
            let mut area = population.area_of(player);
            let mut t = rng.gen_range(self.interval_ns.0..=self.interval_ns.1);
            while t < duration_ns {
                let to = self.next_area(&mut rng, map, area);
                if to != area {
                    let move_type = map
                        .classify_move(area, to)
                        .expect("generated moves are single-step");
                    events.push(MoveEvent {
                        time_ns: t,
                        player,
                        from: area,
                        to,
                        move_type,
                        snapshot_cds: map.snapshot_cds_for_move(area, to),
                    });
                    area = to;
                }
                t += rng.gen_range(self.interval_ns.0..=self.interval_ns.1);
            }
        }
        events.sort_by_key(|e| e.time_ns);
        events
    }

    /// Picks the next area: up / down / lateral per `P_UP` / `P_DOWN`,
    /// falling back to lateral when up/down is impossible.
    fn next_area(&self, rng: &mut StdRng, map: &GameMap, from: AreaId) -> AreaId {
        let roll: f64 = rng.gen();
        if roll < P_UP {
            if let Some(parent) = map.parent(from) {
                return parent;
            }
        } else if roll < P_UP + P_DOWN {
            let children = map.children(from);
            if !children.is_empty() {
                return children[rng.gen_range(0..children.len())];
            }
        }
        // Lateral: a different area at the same depth.
        let depth = map.depth(from);
        let peers: Vec<AreaId> = map
            .areas()
            .filter(|&a| map.depth(a) == depth && a != from)
            .collect();
        if peers.is_empty() {
            // The world has no peer; descend instead.
            let children = map.children(from);
            if children.is_empty() {
                return from;
            }
            return children[rng.gen_range(0..children.len())];
        }
        peers[rng.gen_range(0..peers.len())]
    }
}

impl Default for MovementModel {
    /// The paper's schedule: every player moves after 5–35 minutes.
    fn default() -> Self {
        Self::new((300_000_000_000, 2_100_000_000_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GameMap, PlayerPopulation) {
        let map = GameMap::paper_map();
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        (map, pop)
    }

    #[test]
    fn moves_are_sorted_and_classified() {
        let (map, pop) = setup();
        let model = MovementModel::default();
        // 2 hours of game time -> every player moves a handful of times.
        let events = model.generate(3, &map, &pop, 7_200_000_000_000);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
        for e in &events {
            assert_ne!(e.from, e.to);
            assert_eq!(map.classify_move(e.from, e.to), Some(e.move_type));
            assert_eq!(
                e.snapshot_cds,
                map.snapshot_cds_for_move(e.from, e.to),
                "snapshot CDs consistent"
            );
        }
    }

    #[test]
    fn move_chain_is_consistent_per_player() {
        let (map, pop) = setup();
        let events = MovementModel::default().generate(5, &map, &pop, 7_200_000_000_000);
        let mut loc: Vec<AreaId> = pop.players().map(|p| pop.area_of(p)).collect();
        for e in &events {
            assert_eq!(loc[e.player.index()], e.from, "moves chain correctly");
            loc[e.player.index()] = e.to;
        }
    }

    #[test]
    fn all_six_move_types_occur() {
        let (map, pop) = setup();
        // Long duration + many players => all move types appear.
        let events = MovementModel::default().generate(8, &map, &pop, 36_000_000_000_000);
        for t in MoveType::all() {
            assert!(
                events.iter().any(|e| e.move_type == t),
                "move type {t:?} never generated"
            );
        }
    }

    #[test]
    fn lateral_moves_dominate() {
        assert_eq!((P_UP, P_DOWN), (0.10, 0.10), "the paper's 10% / 10%");
        let (map, pop) = setup();
        let events = MovementModel::default().generate(9, &map, &pop, 36_000_000_000_000);
        let lateral = events
            .iter()
            .filter(|e| {
                matches!(
                    e.move_type,
                    MoveType::ZoneSameRegion
                        | MoveType::ZoneDifferentRegion
                        | MoveType::RegionToRegion
                )
            })
            .count();
        let frac = lateral as f64 / events.len() as f64;
        assert!(
            (0.6..=0.95).contains(&frac),
            "lateral fraction {frac:.2} out of expected range"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let (map, pop) = setup();
        let a = MovementModel::default().generate(1, &map, &pop, 7_200_000_000_000);
        let b = MovementModel::default().generate(1, &map, &pop, 7_200_000_000_000);
        assert_eq!(a, b);
    }
}
