//! Figure 15: network cost per node normalized to PolarFly under
//! iso-injection-bandwidth constraints (co-packaged optical IO counting).

use crate::Args;
use polarfly::cost::{paper_configuration, relative_costs, TrafficScenario};

pub fn run(_: &Args) -> Result<(), String> {
    println!("Figure 15 — normalized network cost (paper: uniform 1/1.24/1.81/5.19,");
    println!("permutation 1/1.21/2.25/2.68)\n");
    for (name, scenario) in [
        ("Iso Bandwidth: Uniform", TrafficScenario::Uniform),
        ("Iso Bandwidth: Permutation", TrafficScenario::Permutation),
    ] {
        println!("# {name}");
        for bar in relative_costs(&paper_configuration(), scenario) {
            println!("  {:<10} {:>6.2}", bar.name, bar.relative_cost);
        }
        println!();
    }
    println!(
        "OIO budget check: Fat-tree = 4864 switches x 4 OIO + 1024 nodes x 2 OIO = 21504 modules"
    );
    Ok(())
}
