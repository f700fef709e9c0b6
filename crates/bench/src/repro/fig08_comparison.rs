//! Figure 8: latency vs offered load for PolarFly against Slim Fly,
//! Dragonfly (DF1/DF2), Jellyfish, and fat tree, under four scenarios:
//!
//! * `uniform-min`      — uniform traffic, minimal routing (FT uses NCA)
//! * `uniform-adaptive` — uniform traffic, UGAL / UGAL-PF / NCA
//! * `randperm`         — random router permutation, adaptive routing
//! * `tornado`          — tornado permutation, adaptive routing
//!
//! Run a single panel by passing its name as the operand.

use crate::Args;
use pf_bench::{comparison_topologies, load_points, print_curve_rows, sim_config};
use pf_sim::sweep::load_curve;
use pf_sim::{Routing, TrafficPattern};

/// The panels, in print order; the operand selects one.
pub const PANELS: [&str; 4] = ["uniform-min", "uniform-adaptive", "randperm", "tornado"];

pub fn run(args: &Args) -> Result<(), String> {
    // Per panel: the traffic, and whether direct networks route adaptively.
    let panels = PANELS.into_iter().zip([
        (TrafficPattern::Uniform, false),
        (TrafficPattern::Uniform, true),
        (TrafficPattern::RandomPermutation, true),
        (TrafficPattern::Tornado, true),
    ]);
    let topos = comparison_topologies(args.full);
    let loads = load_points(args.full);
    let cfg = sim_config(args.full);

    for (name, (pattern, adaptive)) in panels {
        if args.operands.first().is_some_and(|a| a != name) {
            continue;
        }
        println!("=== Figure 8 panel: {name} ===\n");
        for (i, topo) in topos.iter().enumerate() {
            let is_ft = !topo.is_direct();
            // FT always routes NCA; direct networks use MIN or their
            // adaptive algorithm (UGAL; plus UGAL-PF for PolarFly).
            let routings: Vec<Routing> = match (is_ft, adaptive, i) {
                (true, _, _) => vec![Routing::MinAdaptive],
                (false, false, _) => vec![Routing::Min],
                (false, true, 0) => vec![Routing::Ugal, Routing::UgalPf],
                (false, true, _) => vec![Routing::Ugal],
            };
            for routing in routings {
                let curve = load_curve(topo, routing, pattern, &loads, &cfg);
                print_curve_rows(&curve);
            }
        }
    }
    Ok(())
}
