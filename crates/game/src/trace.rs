//! Synthetic workload traces with the statistics of the paper's traces.
//!
//! The paper drives its evaluation with two traces:
//!
//! * a **microbenchmark trace**: 62 players (2 per area), 1 minute, each
//!   player publishing every 100–500 ms with 50–350-byte payloads,
//!   totalling ≈12,440 publish events (§V-A);
//! * a **Counter-Strike trace**: 414 unique players and 1,686,905 updates,
//!   with a heavy-tailed per-player update distribution (Fig. 3c) and a
//!   mean inter-arrival around 2.4 ms in the evaluated peak window (§V-B).
//!
//! The original Wireshark capture is not redistributable, so
//! [`CsTraceGenerator`] synthesizes a trace matching those published
//! statistics, deterministically from a seed.

use gcopss_names::Name;
use gcopss_compat::distributions::{Distribution, WeightedIndex};
use gcopss_compat::StdRng;
use gcopss_compat::{Rng, SeedableRng};

use crate::{GameMap, ObjectId, ObjectModel, PlayerId, PlayerPopulation};

/// One publish event of a trace: at `time_ns`, `player` modifies `object`
/// (located in leaf CD `cd`) with an update of `size` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in nanoseconds from trace start.
    pub time_ns: u64,
    /// The publishing player.
    pub player: PlayerId,
    /// The leaf CD the update is published to.
    pub cd: Name,
    /// The modified object.
    pub object: ObjectId,
    /// Update payload size in bytes.
    pub size: u32,
}

/// Publication size range in bytes (Feng et al.: game packets are almost
/// all under 200 B; the paper uses 50–350 for both traces).
pub const UPDATE_SIZE: (u32, u32) = (50, 350);

/// Per-player publish interval range of the microbenchmark trace in
/// nanoseconds (paper: 100–500 ms).
pub const MICROBENCH_INTERVAL_NS: (u64, u64) = (100_000_000, 500_000_000);

/// Generates the microbenchmark trace (§V-A; the paper runs 1 minute):
/// for `duration_ns`, every player publishes periodically (uniform random
/// interval from [`MICROBENCH_INTERVAL_NS`]) to an object drawn uniformly
/// from its AoI.
///
/// Events are returned sorted by time.
#[must_use]
pub fn microbenchmark_trace(
    seed: u64,
    map: &GameMap,
    objects: &ObjectModel,
    population: &PlayerPopulation,
    duration_ns: u64,
) -> Vec<TraceEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let visible = VisibleObjects::build(map, objects, population);
    let mut events = Vec::new();
    for player in population.players() {
        let mut t = rng.gen_range(0..=MICROBENCH_INTERVAL_NS.1);
        while t < duration_ns {
            let (cd, object) = visible.pick(&mut rng, player);
            events.push(TraceEvent {
                time_ns: t,
                player,
                cd,
                object,
                size: rng.gen_range(UPDATE_SIZE.0..=UPDATE_SIZE.1),
            });
            t += rng.gen_range(MICROBENCH_INTERVAL_NS.0..=MICROBENCH_INTERVAL_NS.1);
        }
    }
    events.sort_by_key(|e| e.time_ns);
    events
}

/// Log-normal σ of the per-player update-rate weights; ≈1.5 produces the
/// heavy tail of Fig. 3c.
pub const WEIGHT_SIGMA: f64 = 1.5;

/// Linear ramp of the arrival rate across the trace, as multipliers of the
/// mean inter-arrival at the start and end. The real capture grows busier
/// toward its peak — the paper's 2-RP run only congests "after 70,000
/// packets" — so the trace starts ~35% slower and ends ~35% faster than the
/// mean (averaging to the configured mean).
pub const RAMP: (f64, f64) = (1.35, 0.65);

/// Parameters of the synthetic Counter-Strike trace (§V-B defaults).
#[derive(Debug, Clone)]
pub struct CsTraceParams {
    /// Total number of update events (paper: 1,686,905). Scale this down
    /// for quick runs; the per-player distribution shape is preserved.
    pub total_updates: usize,
    /// Mean inter-arrival time between consecutive updates, network-wide
    /// (paper: ≈2.4 ms in the evaluated window).
    pub mean_interarrival_ns: u64,
}

impl Default for CsTraceParams {
    fn default() -> Self {
        Self {
            total_updates: 1_686_905,
            mean_interarrival_ns: 2_400_000,
        }
    }
}

/// Synthesizes a Counter-Strike-like trace: a Poisson arrival process whose
/// events are attributed to players according to heavy-tailed (log-normal)
/// weights, each update targeting an object drawn uniformly from the
/// player's AoI — so world-layer objects, visible to everyone, accumulate
/// the most changes, exactly as in the paper's object statistics.
#[derive(Debug, Clone)]
pub struct CsTraceGenerator {
    params: CsTraceParams,
    weights: Vec<f64>,
}

impl CsTraceGenerator {
    /// Prepares a generator for `population`, drawing per-player weights
    /// deterministically from `seed`.
    #[must_use]
    pub fn new(seed: u64, population: &PlayerPopulation, params: CsTraceParams) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let weights = (0..population.len())
            .map(|_| {
                // ln N(0, sigma^2)
                let z: f64 = sample_standard_normal(&mut rng);
                (WEIGHT_SIGMA * z).exp()
            })
            .collect();
        Self { params, weights }
    }

    /// Generates the trace (sorted by time).
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    #[must_use]
    pub fn generate(
        &self,
        seed: u64,
        map: &GameMap,
        objects: &ObjectModel,
        population: &PlayerPopulation,
    ) -> Vec<TraceEvent> {
        assert!(!population.is_empty(), "population must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let visible = VisibleObjects::build(map, objects, population);
        let pick_player =
            WeightedIndex::new(&self.weights).expect("weights are positive and finite");
        let mean = self.params.mean_interarrival_ns as f64;
        let (r0, r1) = RAMP;
        let n = self.params.total_updates.max(1) as f64;
        let mut t = 0u64;
        let mut events = Vec::with_capacity(self.params.total_updates);
        for k in 0..self.params.total_updates {
            // Exponential gap -> (non-homogeneous) Poisson process whose
            // rate ramps linearly across the trace.
            let factor = r0 + (r1 - r0) * (k as f64 / n);
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += (-u.ln() * mean * factor).round() as u64;
            let player = PlayerId(pick_player.sample(&mut rng) as u32);
            let (cd, object) = visible.pick(&mut rng, player);
            events.push(TraceEvent {
                time_ns: t,
                player,
                cd,
                object,
                size: rng.gen_range(UPDATE_SIZE.0..=UPDATE_SIZE.1),
            });
        }
        events
    }
}

/// Per-player cache of the visible objects (AoI), for fast uniform draws.
struct VisibleObjects {
    /// For each player: flattened (leaf CD index into `cds`, object) list.
    per_player: Vec<Vec<(usize, ObjectId)>>,
    cds: Vec<Name>,
}

impl VisibleObjects {
    fn build(map: &GameMap, objects: &ObjectModel, population: &PlayerPopulation) -> Self {
        let cds: Vec<Name> = map.leaf_cds().to_vec();
        // Visible object lists are identical for players in the same area;
        // build one per area and share.
        let mut per_area: Vec<Option<Vec<(usize, ObjectId)>>> =
            vec![None; map.area_count()];
        let mut per_player = Vec::with_capacity(population.len());
        for p in population.players() {
            let area = population.area_of(p);
            if per_area[area.index()].is_none() {
                let mut list = Vec::new();
                for cd in map.visible_leaf_cds(area) {
                    let ci = cds.iter().position(|c| *c == cd).expect("leaf CD known");
                    for &o in objects.objects_in(&cd) {
                        list.push((ci, o));
                    }
                }
                per_area[area.index()] = Some(list);
            }
            per_player.push(per_area[area.index()].clone().expect("just built"));
        }
        Self { per_player, cds }
    }

    fn pick(&self, rng: &mut StdRng, player: PlayerId) -> (Name, ObjectId) {
        let list = &self.per_player[player.index()];
        let (ci, o) = list[rng.gen_range(0..list.len())];
        (self.cds[ci].clone(), o)
    }
}

/// Samples a standard normal deviate via Box–Muller (keeps us off extra
/// dependencies; `rand` 0.8 has no normal distribution without
/// `rand_distr`).
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectModelParams;

    /// The paper's microbenchmark duration: 1 minute.
    const MINUTE_NS: u64 = 60_000_000_000;

    fn setup() -> (GameMap, ObjectModel, PlayerPopulation) {
        let map = GameMap::paper_map();
        let objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let pop = PlayerPopulation::uniform_per_area(&map, 2);
        (map, objects, pop)
    }

    #[test]
    fn microbenchmark_event_count_matches_paper() {
        let (map, objects, pop) = setup();
        let events = microbenchmark_trace(7, &map, &objects, &pop, MINUTE_NS);
        // 62 players, 60 s, mean interval 300 ms -> ~12,400 events;
        // the paper reports 12,440.
        assert!(
            (11_000..=14_000).contains(&events.len()),
            "got {} events",
            events.len()
        );
        // Sorted by time, all within duration, sizes in range.
        for w in events.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
        for e in &events {
            assert!(e.time_ns < MINUTE_NS);
            assert!((50..=350).contains(&e.size));
            assert!(map.leaf_cds().contains(&e.cd));
        }
    }

    #[test]
    fn microbenchmark_is_deterministic() {
        let (map, objects, pop) = setup();
        let a = microbenchmark_trace(7, &map, &objects, &pop, MINUTE_NS);
        let b = microbenchmark_trace(7, &map, &objects, &pop, MINUTE_NS);
        assert_eq!(a, b);
        let c = microbenchmark_trace(8, &map, &objects, &pop, MINUTE_NS);
        assert_ne!(a, c);
    }

    #[test]
    fn events_target_objects_in_aoi() {
        let (map, objects, pop) = setup();
        let events = microbenchmark_trace(3, &map, &objects, &pop, MINUTE_NS);
        for e in events.iter().take(500) {
            let area = pop.area_of(e.player);
            let visible = map.visible_leaf_cds(area);
            assert!(visible.contains(&e.cd), "{} not visible from {area}", e.cd);
            assert_eq!(objects.leaf_cd_of(e.object), &e.cd);
        }
    }

    #[test]
    fn cs_trace_matches_requested_statistics() {
        let map = GameMap::paper_map();
        let objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let pop = PlayerPopulation::random_per_area(2, &map, (4, 20)).resize(414);
        let params = CsTraceParams {
            total_updates: 20_000,
            ..Default::default()
        };
        let generator = CsTraceGenerator::new(11, &pop, params);
        let events = generator.generate(12, &map, &objects, &pop);
        assert_eq!(events.len(), 20_000);
        // Mean inter-arrival within 10% of the target.
        let span = events.last().unwrap().time_ns - events[0].time_ns;
        let mean = span as f64 / (events.len() - 1) as f64;
        assert!(
            (mean - 2_400_000.0).abs() < 240_000.0,
            "mean inter-arrival {mean}"
        );
        // Heavy tail: the top 10% of players produce >30% of updates.
        let mut per_player = vec![0u64; pop.len()];
        for e in &events {
            per_player[e.player.index()] += 1;
        }
        per_player.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = per_player.iter().take(pop.len() / 10).sum();
        let total: u64 = per_player.iter().sum();
        assert!(
            top as f64 / total as f64 > 0.3,
            "top-10% share = {}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn cs_trace_world_objects_hottest() {
        // Objects at the world layer are visible to every player and must
        // receive disproportionately many updates (paper's object stats).
        let map = GameMap::paper_map();
        let objects = ObjectModel::generate(1, &map, &ObjectModelParams::default());
        let pop = PlayerPopulation::random_per_area(2, &map, (4, 20));
        let generator = CsTraceGenerator::new(
            5,
            &pop,
            CsTraceParams {
                total_updates: 30_000,
                ..Default::default()
            },
        );
        let events = generator.generate(6, &map, &objects, &pop);
        let world_cd = Name::parse_lit("/0");
        let world_updates = events.iter().filter(|e| e.cd == world_cd).count();
        let world_objects = objects.objects_in(&world_cd).len();
        let per_world_object = world_updates as f64 / world_objects as f64;
        // Compare to a zone: pick /3/3.
        let zone_cd = Name::parse_lit("/3/3");
        let zone_updates = events.iter().filter(|e| e.cd == zone_cd).count();
        let zone_objects = objects.objects_in(&zone_cd).len();
        let per_zone_object = zone_updates as f64 / zone_objects.max(1) as f64;
        assert!(
            per_world_object > per_zone_object * 2.0,
            "world {per_world_object:.2} vs zone {per_zone_object:.2}"
        );
    }
}
