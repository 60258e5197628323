//! Fig. 3c / Fig. 3d: characterization of the synthetic Counter-Strike
//! trace — updates per player (CDF) and players/objects per area.

use gcopss_game::stats::{per_area_stats, updates_per_player_cdf, AreaStats};
use gcopss_sim::json::Json;
use gcopss_sim::{LogHistogram, TelemetryReport};

use super::{Workload, WorkloadParams};

/// The trace characterization output.
#[derive(Debug, Clone)]
pub struct TraceStatsOutput {
    /// Fig. 3c: `(updates, cumulative fraction of players)`.
    pub updates_cdf: Vec<(u64, f64)>,
    /// Fig. 3d: per-leaf-CD players / objects / updates.
    pub per_area: Vec<AreaStats>,
    /// Total updates in the trace.
    pub total_updates: usize,
    /// Number of players.
    pub players: usize,
    /// Total objects.
    pub objects: usize,
}

/// Generates the workload and computes its statistics.
#[must_use]
pub fn run(p: &WorkloadParams) -> TraceStatsOutput {
    let w = Workload::counter_strike(p);
    TraceStatsOutput {
        updates_cdf: updates_per_player_cdf(&w.trace, w.population.len()),
        per_area: per_area_stats(&w.map, &w.objects, &w.population, &w.trace),
        total_updates: w.trace.len(),
        players: w.population.len(),
        objects: w.objects.object_count(),
    }
}

/// Builds a telemetry report from the trace characterization — there is no
/// simulator here, so the "run" is the workload itself: log-scale
/// histograms of updates per player, update sizes, and per-area
/// player/object/update counts.
#[must_use]
pub fn telemetry_report(p: &WorkloadParams, out: &TraceStatsOutput) -> TelemetryReport {
    let w = Workload::counter_strike(p);
    let mut per_player = LogHistogram::new();
    for &(updates, _) in &out.updates_cdf {
        per_player.record(updates);
    }
    let mut sizes = LogHistogram::new();
    for e in w.trace.iter() {
        sizes.record(u64::from(e.size));
    }
    let mut area_players = LogHistogram::new();
    let mut area_objects = LogHistogram::new();
    let mut area_updates = LogHistogram::new();
    for a in &out.per_area {
        area_players.record(a.players as u64);
        area_objects.record(a.objects as u64);
        area_updates.record(a.updates);
    }
    let hist = |name: &str, h: &LogHistogram| {
        Json::obj([("metric", Json::str(name)), ("hist", h.to_json())])
    };
    TelemetryReport {
        label: "trace-stats".to_string(),
        summary: Json::obj([
            ("label", Json::from("trace-stats")),
            ("players", Json::UInt(out.players as u64)),
            ("total_updates", Json::UInt(out.total_updates as u64)),
            ("objects", Json::UInt(out.objects as u64)),
            (
                "histograms",
                Json::arr([
                    hist("updates-per-player", &per_player),
                    hist("update-bytes", &sizes),
                    hist("area-players", &area_players),
                    hist("area-objects", &area_objects),
                    hist("area-updates", &area_updates),
                ]),
            ),
        ]),
        trace_events: Vec::new(),
        fingerprint: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_paper_shape() {
        let out = run(&WorkloadParams {
            updates: 30_000,
            ..WorkloadParams::default()
        });
        assert_eq!(out.players, 414);
        assert_eq!(out.per_area.len(), 31);
        assert_eq!(out.total_updates, 30_000);
        // Players per area within the configured 4..=20 (resize may trim
        // the last area slightly).
        let total_players: usize = out.per_area.iter().map(|a| a.players).sum();
        assert_eq!(total_players, 414);
        // Objects per area 80..=120; total near the paper's 3,197.
        for a in &out.per_area {
            assert!((80..=120).contains(&a.objects), "{:?}", a);
        }
        assert!((31 * 80..=31 * 120).contains(&out.objects));
        // The CDF covers all players and ends at 1.
        assert_eq!(out.updates_cdf.len(), 414);
        assert!((out.updates_cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Heavy tail: the busiest player has far more updates than the
        // median.
        let median = out.updates_cdf[207].0;
        let max = out.updates_cdf.last().unwrap().0;
        assert!(max > median * 4, "median {median}, max {max}");
    }
}
