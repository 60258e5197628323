//! Fig. 6: response latency and aggregate network load vs the number of
//! players (3 RPs vs 3 servers).

use crate::{header, ExpHarness, ExpOptions};
use gcopss_core::experiments::player_sweep::{self, PlayerSweepConfig};

pub fn run(opts: ExpOptions) {
    // Many runs in this sweep: sample the journal 1-in-16 and cap it low so
    // the merged trace file stays small.
    let mut h = ExpHarness::new("fig6", opts).with_sampled_capture();
    let updates_per_player = h.opts.scaled(40, 250);
    let player_counts = if h.opts.full {
        vec![50, 100, 150, 200, 250, 300, 350, 400]
    } else {
        vec![50, 100, 200, 300, 400]
    };
    let seed = h.opts.seed;
    let out = player_sweep::run(
        &PlayerSweepConfig {
            seed,
            player_counts,
            updates_per_player,
        },
        h.cap(),
    );

    header("Fig. 6a — response latency vs #players (3 RPs / 3 servers)");
    println!(
        "{:>8} {:>16} {:>16}",
        "players", "G-COPSS (ms)", "IP server (ms)"
    );
    for (g, i) in out.gcopss.iter().zip(&out.ip) {
        println!(
            "{:>8} {:>16.2} {:>16.2}",
            g.players,
            g.summary.mean_latency.as_millis_f64(),
            i.summary.mean_latency.as_millis_f64()
        );
    }

    header("Fig. 6b — aggregate network load vs #players");
    println!(
        "{:>8} {:>16} {:>16}",
        "players", "G-COPSS (GB)", "IP server (GB)"
    );
    for (g, i) in out.gcopss.iter().zip(&out.ip) {
        println!(
            "{:>8} {:>16.4} {:>16.4}",
            g.players,
            g.summary.network_gb(),
            i.summary.network_gb()
        );
    }

    header("Shape check (paper: G-COPSS flat; server knee ~250 players)");
    let g_first = out.gcopss.first().unwrap().summary.mean_latency.as_millis_f64();
    let g_last = out.gcopss.last().unwrap().summary.mean_latency.as_millis_f64();
    let i_first = out.ip.first().unwrap().summary.mean_latency.as_millis_f64();
    let i_last = out.ip.last().unwrap().summary.mean_latency.as_millis_f64();
    println!("G-COPSS latency growth = {:.1}x over the sweep", g_last / g_first.max(1e-9));
    println!("IP server latency growth = {:.1}x over the sweep", i_last / i_first.max(1e-9));

    h.finish();
}
