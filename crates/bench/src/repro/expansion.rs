//! Incremental expansion without rewiring (paper §VI): grow a deployed
//! PolarFly by replicating racks, and watch size, degree, diameter, and
//! path lengths evolve under both methods.
//!
//! ```sh
//! cargo run --release -p pf-bench -- expansion
//! ```

use crate::Args;
use polarfly::expansion::{replicate_non_quadric, replicate_quadric, stats};
use polarfly::{Layout, PolarFly};

pub fn run(_: &Args) -> Result<(), String> {
    let q = 13u64;
    let pf = PolarFly::new(q).unwrap();
    let layout = Layout::new(&pf);
    println!(
        "base PolarFly q={q}: {} routers, radix {}, diameter {}\n",
        pf.router_count(),
        pf.degree(),
        pf.measured_diameter().unwrap()
    );

    println!("Method A — replicate the quadrics rack (diameter stays 2):");
    println!(
        "{:>6} {:>9} {:>8} {:>9} {:>9} {:>9} {:>7}",
        "steps", "routers", "growth", "min deg", "max deg", "diameter", "ASPL"
    );
    for steps in 1..=4usize {
        let ex = replicate_quadric(&pf, &layout, steps);
        let s = stats(&pf, &ex);
        assert_eq!(s.rewired_links, 0, "no existing cable may move");
        println!(
            "{:>6} {:>9} {:>7.1}% {:>9} {:>9} {:>9} {:>7.3}",
            steps,
            ex.router_count(),
            100.0 * ex.growth(),
            s.degree_range.0,
            s.degree_range.1,
            s.diameter,
            s.aspl
        );
    }

    println!("\nMethod B — replicate non-quadric racks (near-uniform degrees):");
    println!(
        "{:>6} {:>9} {:>8} {:>9} {:>9} {:>9} {:>7}",
        "steps", "routers", "growth", "min deg", "max deg", "diameter", "ASPL"
    );
    for steps in 1..=4usize {
        let ex = replicate_non_quadric(&pf, &layout, steps);
        let s = stats(&pf, &ex);
        assert_eq!(s.rewired_links, 0);
        println!(
            "{:>6} {:>9} {:>7.1}% {:>9} {:>9} {:>9} {:>7.3}",
            steps,
            ex.router_count(),
            100.0 * ex.growth(),
            s.degree_range.0,
            s.degree_range.1,
            s.diameter,
            s.aspl
        );
    }

    println!("\nTrade-off (paper Table IV): quadric replication keeps diameter 2 but");
    println!("concentrates new links on quadrics/V1; non-quadric replication grows");
    println!("~2x faster per unit radix with near-uniform degrees, at diameter 3");
    println!("(ASPL stays below 2).");
    Ok(())
}
