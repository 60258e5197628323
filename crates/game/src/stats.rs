//! Trace characterization (Fig. 3c / Fig. 3d of the paper).

use std::collections::BTreeMap;

use gcopss_names::Name;

use crate::trace::TraceEvent;
use crate::{GameMap, ObjectModel, PlayerPopulation};

/// Updates performed by each player, sorted ascending — the quantity whose
/// CDF the paper plots in Fig. 3c.
#[must_use]
pub fn updates_per_player(events: &[TraceEvent], player_count: usize) -> Vec<u64> {
    let mut counts = vec![0u64; player_count];
    for e in events {
        if let Some(c) = counts.get_mut(e.player.index()) {
            *c += 1;
        }
    }
    counts.sort_unstable();
    counts
}

/// CDF points `(updates, cumulative fraction of players)` from the sorted
/// per-player counts.
#[must_use]
pub fn updates_per_player_cdf(events: &[TraceEvent], player_count: usize) -> Vec<(u64, f64)> {
    let sorted = updates_per_player(events, player_count);
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, (i + 1) as f64 / n as f64))
        .collect()
}

/// Per-leaf-CD statistics: players located there, objects placed there and
/// updates observed there — the data behind Fig. 3d.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaStats {
    /// The area's leaf CD.
    pub cd: Name,
    /// Players whose publication CD this is.
    pub players: usize,
    /// Objects placed in the area.
    pub objects: usize,
    /// Updates published to the area in the trace.
    pub updates: u64,
}

/// Computes per-area statistics for a trace.
#[must_use]
pub fn per_area_stats(
    map: &GameMap,
    objects: &ObjectModel,
    population: &PlayerPopulation,
    events: &[TraceEvent],
) -> Vec<AreaStats> {
    let mut updates: BTreeMap<&Name, u64> = BTreeMap::new();
    for e in events {
        *updates.entry(&e.cd).or_insert(0) += 1;
    }
    let mut players_per_cd: BTreeMap<Name, usize> = BTreeMap::new();
    for p in population.players() {
        let cd = map.publication_cd(population.area_of(p));
        *players_per_cd.entry(cd.name().clone()).or_insert(0) += 1;
    }
    map.leaf_cds()
        .iter()
        .map(|cd| AreaStats {
            cd: cd.clone(),
            players: players_per_cd.get(cd).copied().unwrap_or(0),
            objects: objects.objects_in(cd).len(),
            updates: updates.get(cd).copied().unwrap_or(0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::microbenchmark_trace;
    use crate::ObjectModelParams;

    fn setup() -> (GameMap, ObjectModel, PlayerPopulation, Vec<TraceEvent>) {
        let map = GameMap::paper_map();
        let objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        let events = microbenchmark_trace(4, &map, &objects, &pop, 60_000_000_000);
        (map, objects, pop, events)
    }

    #[test]
    fn updates_per_player_sums_to_total() {
        let (_, _, pop, events) = setup();
        let counts = updates_per_player(&events, pop.len());
        assert_eq!(counts.len(), 62);
        assert_eq!(counts.iter().sum::<u64>() as usize, events.len());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cdf_ends_at_one() {
        let (_, _, pop, events) = setup();
        let cdf = updates_per_player_cdf(&events, pop.len());
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert!(cdf[0].1 > 0.0);
    }

    #[test]
    fn per_area_stats_cover_all_leaf_cds() {
        let (map, objects, pop, events) = setup();
        let stats = per_area_stats(&map, &objects, &pop, &events);
        assert_eq!(stats.len(), 31);
        let total_updates: u64 = stats.iter().map(|s| s.updates).sum();
        assert_eq!(total_updates as usize, events.len());
        let total_players: usize = stats.iter().map(|s| s.players).sum();
        assert_eq!(total_players, 62);
        for s in &stats {
            assert!((80..=120).contains(&s.objects));
            assert_eq!(s.players, 2);
        }
    }

    #[test]
    fn world_layer_receives_most_updates_per_area() {
        // The paper's observation: the 87 top-layer objects see 27k+
        // changes each while bottom-layer objects see far fewer.
        let (map, _, _, events) = setup();
        let at_depth = |d| {
            let on = |e: &&TraceEvent| map.area_of_leaf_cd(&e.cd).map(|a| map.depth(a)) == Some(d);
            events.iter().filter(on).count() as f64
        };
        // depth 0: 1 area; depth 1: 5; depth 2: 25.
        let per_area_0 = at_depth(0);
        let per_area_2 = at_depth(2) / 25.0;
        assert!(per_area_0 > per_area_2);
    }
}
