//! Runs every analytic and structural experiment in sequence, in process,
//! and summarizes the reproduction status (the simulation figures are
//! listed with their commands rather than executed — they take minutes to
//! hours). Which is which is the `InAll` column of `COMMANDS`.

use crate::{Args, InAll, COMMANDS};

pub fn run(args: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    for cmd in COMMANDS.iter().filter(|c| c.in_all == InAll::Run) {
        println!("================================================================");
        println!("== {}", cmd.name);
        println!("================================================================");
        // A panicking check (the tables assert their closed forms) fails
        // that experiment, not the loop.
        let outcome =
            std::panic::catch_unwind(|| (cmd.run)(args)).unwrap_or_else(|_| Err("panicked".into()));
        if let Err(e) = outcome {
            eprintln!("** {} failed: {e}", cmd.name);
            failures.push(cmd.name);
        }
    }
    println!("================================================================");
    println!("Fast experiments complete ({} failures).", failures.len());
    println!("Simulation experiments (run separately; --full for paper scale):");
    for cmd in COMMANDS.iter().filter(|c| c.in_all == InAll::List) {
        println!("  cargo run --release -p pf-bench -- {}", cmd.name);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failures.join(", ")))
    }
}
