//! The one experiment runner.
//!
//! ```text
//! cargo run --release -p gcopss-bench --bin gcopss-exp -- <name> [--full] [--scale f] [--seed n]
//! cargo run --release -p gcopss-bench --bin gcopss-exp -- --list
//! ```

use std::process::ExitCode;

use gcopss_bench::{exp, ExpOptions, EXPERIMENTS};

/// Prints the usage text (with the reason, if any) and fails.
fn usage(problem: Option<String>) -> ExitCode {
    if let Some(problem) = problem {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: gcopss-exp <name>|--list [--full] [--scale f] [--seed n]\n\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<12} {}", e.name, e.about);
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        return usage(None);
    };
    if name == "--list" {
        for e in EXPERIMENTS {
            println!("{}", e.name);
        }
    } else if let Some(e) = exp::find(name) {
        (e.run)(ExpOptions::parse(&args[1..]));
    } else {
        return usage(Some(format!("unknown experiment `{name}`")));
    }
    ExitCode::SUCCESS
}
