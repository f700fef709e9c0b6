//! Traffic simulation walkthrough: drive the cycle-accurate simulator on a
//! PolarFly under benign and adversarial traffic, comparing minimal and
//! adaptive routing — a miniature of the paper's §VIII evaluation.
//!
//! ```sh
//! cargo run --release -p pf-bench -- traffic_sim
//! ```

use crate::Args;
use pf_sim::engine::{simulate, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{Routing, RoutingAlgorithm};
use pf_topo::{PolarFlyTopo, Topology};

pub fn run(_: &Args) -> Result<(), String> {
    // Balanced PolarFly q=13: 183 routers, radix 14, 7 endpoints each.
    let topo = PolarFlyTopo::balanced(13).unwrap();
    println!(
        "simulating {} ({} routers, {} endpoints)\n",
        topo.name(),
        topo.router_count(),
        topo.total_endpoints()
    );

    let tables = RouteTables::build(topo.graph(), 1);
    let cfg = SimConfig::default()
        .warmup(300)
        .measure(800)
        .drain_max(1200);

    println!(
        "{:<10} {:<8} {:>7} {:>10} {:>12} {:>7}",
        "pattern", "routing", "load", "accepted", "avg latency", "hops"
    );
    for pattern in [TrafficPattern::Uniform, TrafficPattern::Tornado] {
        let dests = resolve(pattern, topo.graph(), &topo.host_routers(), 11);
        for routing in [Routing::Min, Routing::Ugal, Routing::UgalPf] {
            for load in [0.2, 0.5] {
                let r = simulate(&topo, &tables, &dests, routing, load, cfg.clone());
                println!(
                    "{:<10} {:<8} {:>7.2} {:>10.3} {:>12.1} {:>7.2}{}",
                    pattern,
                    routing.label(),
                    r.offered_load,
                    r.accepted_load,
                    r.avg_latency,
                    r.avg_hops,
                    if r.saturated { "  (saturated)" } else { "" }
                );
            }
        }
    }

    println!("\nReading the table:");
    println!("- uniform: MIN keeps ~1.9 hops and matches offered load;");
    println!("- tornado: MIN collapses to ~1/p of injection bandwidth (all of a");
    println!("  router's endpoints share one minimal path), while UGAL/UGAL-PF");
    println!("  spread load over Valiant detours and keep accepting traffic.");
    Ok(())
}
