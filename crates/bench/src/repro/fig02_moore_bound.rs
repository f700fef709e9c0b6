//! Figure 2: scalability of direct diameter-2 topologies as a percentage
//! of the Moore bound N <= 1 + k².

use crate::Args;
use polarfly::feasibility;

pub fn run(_: &Args) -> Result<(), String> {
    println!("Figure 2 — percentage of the diameter-2 Moore bound vs degree\n");
    println!("# PolarFly (ER_q): k = q+1, N = q²+q+1");
    println!("{:>7} {:>9} {:>8}", "degree", "routers", "%Moore");
    for p in feasibility::polarfly_moore_curve(130) {
        println!(
            "{:>7} {:>9} {:>8.2}",
            p.degree, p.routers, p.percent_of_moore
        );
    }
    println!("\n# Slim Fly (MMS): k = (3q-δ)/2, N = 2q²");
    println!("{:>7} {:>9} {:>8}", "degree", "routers", "%Moore");
    for p in feasibility::slimfly_moore_curve(130) {
        println!(
            "{:>7} {:>9} {:>8.2}",
            p.degree, p.routers, p.percent_of_moore
        );
    }
    println!("\n# HyperX (best 2-D Hamming graph)");
    println!("{:>7} {:>9} {:>8}", "degree", "routers", "%Moore");
    for p in feasibility::hyperx_moore_curve(130).iter().step_by(8) {
        println!(
            "{:>7} {:>9} {:>8.2}",
            p.degree, p.routers, p.percent_of_moore
        );
    }
    println!("\n# Moore graphs (exact): Petersen, Hoffman–Singleton");
    for p in feasibility::moore_graphs() {
        println!(
            "degree {:>3}: {:>4} routers = {:.1}%",
            p.degree, p.routers, p.percent_of_moore
        );
    }
    Ok(())
}
