//! Player identities and placement.

use std::fmt;

use gcopss_compat::StdRng;
use gcopss_compat::{Rng, SeedableRng};

use crate::{AreaId, GameMap};

/// Identifier of a player.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlayerId(pub u32);

impl PlayerId {
    /// Index into dense per-player arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "player{}", self.0)
    }
}

/// A placement of players over the areas of a [`GameMap`].
///
/// Two constructions mirror the paper's setups:
/// [`PlayerPopulation::uniform_per_area`] (the 62-player microbenchmark: 2
/// players in every area) and [`PlayerPopulation::random_per_area`] (the
/// 414-player trace: 4–20 players per area, Fig. 3d).
#[derive(Debug, Clone)]
pub struct PlayerPopulation {
    /// Initial area of each player, indexed by player id.
    locations: Vec<AreaId>,
}

impl PlayerPopulation {
    /// Places exactly `per_area` players in every area (including the
    /// world and region layers). The paper's microbenchmark uses
    /// `per_area = 2` on the 31-area map → 62 players.
    #[must_use]
    pub fn uniform_per_area(map: &GameMap, per_area: u32) -> Self {
        let mut locations = Vec::new();
        for area in map.areas() {
            for _ in 0..per_area {
                locations.push(area);
            }
        }
        Self { locations }
    }

    /// Places a uniformly-drawn `per_area.0..=per_area.1` players in every
    /// area, deterministically for a given seed. With the paper's 31 areas
    /// and 4–20 players per area this lands near the trace's 414 players;
    /// [`PlayerPopulation::resize`] trims or pads to hit it exactly.
    #[must_use]
    pub fn random_per_area(seed: u64, map: &GameMap, per_area: (u32, u32)) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locations = Vec::new();
        for area in map.areas() {
            let count = rng.gen_range(per_area.0..=per_area.1);
            for _ in 0..count {
                locations.push(area);
            }
        }
        Self { locations }
    }

    /// Adjusts the population to exactly `count` players by trimming the
    /// tail or cycling placements from the start.
    #[must_use]
    pub fn resize(mut self, count: usize) -> Self {
        if self.locations.len() > count {
            self.locations.truncate(count);
        } else {
            let mut i = 0;
            while self.locations.len() < count {
                let a = self.locations[i % self.locations.len().max(1)];
                self.locations.push(a);
                i += 1;
            }
        }
        self
    }

    /// Number of players.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Returns `true` if there are no players.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// All player ids.
    pub fn players(&self) -> impl Iterator<Item = PlayerId> + '_ {
        (0..self.locations.len() as u32).map(PlayerId)
    }

    /// The initial area of a player.
    ///
    /// # Panics
    ///
    /// Panics if `p` is unknown.
    #[must_use]
    pub fn area_of(&self, p: PlayerId) -> AreaId {
        self.locations[p.index()]
    }

    /// Players initially located in `area`.
    #[must_use]
    pub fn players_in(&self, area: AreaId) -> Vec<PlayerId> {
        self.players()
            .filter(|p| self.area_of(*p) == area)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmark_population_is_62() {
        let map = GameMap::paper_map();
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        assert_eq!(pop.len(), 62);
        for a in map.areas() {
            assert_eq!(pop.players_in(a).len(), 2);
        }
    }

    #[test]
    fn random_population_in_range_and_deterministic() {
        let map = GameMap::paper_map();
        let a = PlayerPopulation::random_per_area(9, &map, (4, 20));
        let b = PlayerPopulation::random_per_area(9, &map, (4, 20));
        assert_eq!(a.len(), b.len());
        for area in map.areas() {
            assert!((4..=20).contains(&a.players_in(area).len()));
        }
        // 31 areas x 4..20 -> mean 372; resize to the paper's 414.
        let resized = a.resize(414);
        assert_eq!(resized.len(), 414);
    }

    #[test]
    fn resize_trims() {
        let map = GameMap::paper_map();
        let pop = PlayerPopulation::uniform_per_area(&map, 2).resize(10);
        assert_eq!(pop.len(), 10);
        assert!(!pop.is_empty());
    }

    #[test]
    fn players_in_lists_members() {
        let map = GameMap::paper_map();
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        let world_players = pop.players_in(map.world());
        assert_eq!(world_players.len(), 2);
        assert_eq!(pop.area_of(world_players[0]), map.world());
    }
}
