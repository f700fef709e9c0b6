//! Figure 9: PolarFly under the Perm2Hop and Perm1Hop adversarial
//! permutations with MIN, UGAL, and UGAL-PF routing.

use crate::Args;
use pf_bench::{load_points, print_curve_rows, sim_config};
use pf_sim::sweep::load_curve;
use pf_sim::{Routing, TrafficPattern};
use pf_topo::PolarFlyTopo;

pub fn run(args: &Args) -> Result<(), String> {
    let topo = if args.full {
        PolarFlyTopo::new(31, 16).unwrap()
    } else {
        PolarFlyTopo::new(13, 7).unwrap()
    };
    let cfg = sim_config(args.full);
    // Permutations cap near 1/p with MIN; sweep the low-load range densely.
    let loads: Vec<f64> = load_points(args.full).iter().map(|l| l * 0.7).collect();
    for pattern in [TrafficPattern::Perm2Hop, TrafficPattern::Perm1Hop] {
        println!("=== Figure 9: {pattern} ===\n");
        for routing in [Routing::Min, Routing::Ugal, Routing::UgalPf] {
            let curve = load_curve(&topo, routing, pattern, &loads, &cfg);
            print_curve_rows(&curve);
        }
    }
    Ok(())
}
