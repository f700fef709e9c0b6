//! Figure 10: PolarFly performance stability across sizes — balanced
//! instances q = 13, 19, 25, 31 under uniform traffic with MIN and
//! UGAL-PF routing.

use crate::Args;
use pf_bench::{load_points, print_curve_rows, sim_config};
use pf_sim::sweep::load_curve;
use pf_sim::{Routing, TrafficPattern};
use pf_topo::PolarFlyTopo;

pub fn run(args: &Args) -> Result<(), String> {
    let qs: Vec<u64> = if args.full {
        vec![13, 19, 25, 31]
    } else {
        vec![13, 19]
    };
    let cfg = sim_config(args.full);
    let loads = load_points(args.full);
    for routing in [Routing::Min, Routing::UgalPf] {
        println!("=== Figure 10: uniform traffic, {} ===\n", routing.label());
        for &q in &qs {
            let topo = PolarFlyTopo::balanced(q).unwrap();
            let curve = load_curve(&topo, routing, TrafficPattern::Uniform, &loads, &cfg);
            print_curve_rows(&curve);
        }
    }
    Ok(())
}
