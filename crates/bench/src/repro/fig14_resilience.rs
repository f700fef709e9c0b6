//! Figure 14: diameter and average shortest path length as a function of
//! the link-failure ratio (median of seeded random-failure trials), plus
//! the median disconnection ratio per topology.

use crate::Args;
use pf_bench::comparison_topologies;
use pf_graph::failures::median_failure_trial;

pub fn run(args: &Args) -> Result<(), String> {
    let trials = if args.full { 100 } else { 25 };
    let checkpoints: Vec<f64> = (0..=17).map(|i| i as f64 * 0.05).collect();
    println!("Figure 14 — resilience under random link failures ({trials} trials/topology)");
    println!("(paper: PF diameter jumps to 4 by ~5% failures, stays 4 to ~55%;");
    println!(" PF/SF disconnect later than DF1/FT; JF most resilient)\n");
    for t in comparison_topologies(args.full) {
        let g = t.graph();
        let (median_ratio, trial) = median_failure_trial(g, trials, &checkpoints, 99);
        println!(
            "# {}  median disconnection ratio = {:.3}",
            t.name(),
            median_ratio
        );
        println!(
            "{:>8} {:>9} {:>8} {:>10}",
            "fail%", "diameter", "ASPL", "connected"
        );
        for p in &trial.curve {
            if p.failure_ratio > median_ratio + 0.051 {
                break;
            }
            println!(
                "{:8.2} {:>9} {:8.3} {:>10}",
                p.failure_ratio,
                p.diameter,
                p.aspl,
                if p.connected { "yes" } else { "NO" }
            );
        }
        println!();
    }
    Ok(())
}
