//! Runs every analytic and structural experiment harness in sequence and
//! summarizes the reproduction status (the simulation figures are listed
//! with their commands rather than executed — they take minutes to hours).

#![allow(clippy::print_stdout)] // figure/table emitters print their artifact

use std::process::Command;

fn main() {
    let fast = [
        "fig01_design_space",
        "fig02_moore_bound",
        "table01_feasibility",
        "table02_triangles",
        "table03_intermediate",
        "table04_expansion",
        "table05_configs",
        "table06_path_diversity",
        "fig13_layout",
        "fig15_cost",
    ];
    let slow = [
        "fig08_comparison",
        "fig09_perm_hops",
        "fig10_size_sweep",
        "fig11_expansion",
        "fig12_bisection",
        "fig14_resilience",
        "ablation_study",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .expect("locate target dir");

    let mut failures = Vec::new();
    for bin in fast {
        println!("================================================================");
        println!("== {bin}");
        println!("================================================================");
        let status = Command::new(exe_dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("** {bin} failed: {other:?}");
                failures.push(bin);
            }
        }
    }
    println!("================================================================");
    println!("Fast experiments complete ({} failures).", failures.len());
    println!("Simulation experiments (run separately; PF_FULL=1 for paper scale):");
    for bin in slow {
        println!("  cargo run --release -p pf-bench --bin {bin}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
