//! Figure 1: design space of feasible network radixes for PolarFly,
//! Slim Fly, and PolarFly+ (the union of both design spaces).

use crate::Args;
use polarfly::feasibility;

pub fn run(_: &Args) -> Result<(), String> {
    println!("Figure 1 — feasible radix counts (paper: SF 6/11/17/19/26/32,");
    println!("PF 9/17/22/26/34/43, PF+ 12/23/33/39/53/68)\n");
    let budgets = [16u64, 32, 48, 64, 96, 128];
    println!(
        "{:>10} {:>9} {:>9} {:>10}",
        "radix <=", "SlimFly", "PolarFly", "PolarFly+"
    );
    for c in feasibility::design_space_counts(&budgets) {
        println!(
            "{:>10} {:>9} {:>9} {:>10}",
            c.max_radix, c.slimfly, c.polarfly, c.polarfly_plus
        );
    }
    println!(
        "\nPolarFly radixes <= 64: {:?}",
        feasibility::polarfly_radixes(64)
    );
    println!(
        "Slim Fly radixes <= 64: {:?}",
        feasibility::slimfly_radixes(64)
    );
    let pf = feasibility::polarfly_radixes(128).len() as f64;
    let sf = feasibility::slimfly_radixes(128).len() as f64;
    println!(
        "\nPF/SF design-space ratio at radix<=128: {:.2} (paper: ~1.5x asymptotically)",
        pf / sf
    );
    Ok(())
}
