//! Table IV: characteristics of the two incremental-expansion methods,
//! measured on expanded instances.

use crate::Args;
use polarfly::expansion::{replicate_non_quadric, replicate_quadric, stats};
use polarfly::{Layout, PolarFly};

pub fn run(args: &Args) -> Result<(), String> {
    let q: u64 = if args.full { 31 } else { 13 };
    println!("Table IV — expansion methods measured on PF(q={q}) (paper: quadric");
    println!("scalability (q+1)/2, non-uniform degrees, D=2; non-quadric ~q, uniform, D=3)\n");
    let pf = PolarFly::new(q).unwrap();
    let layout = Layout::new(&pf);
    println!(
        "{:<14} {:>6} {:>9} {:>13} {:>9} {:>9} {:>9} {:>9}",
        "Method", "steps", "routers", "scalability", "min deg", "max deg", "diameter", "ASPL"
    );
    for steps in [1usize, 2, 4] {
        let ex = replicate_quadric(&pf, &layout, steps);
        let s = stats(&pf, &ex);
        assert_eq!(s.rewired_links, 0);
        println!(
            "{:<14} {:>6} {:>9} {:>13.2} {:>9} {:>9} {:>9} {:>9.3}",
            "Quadric",
            steps,
            ex.router_count(),
            s.scalability,
            s.degree_range.0,
            s.degree_range.1,
            s.diameter,
            s.aspl
        );
    }
    for steps in [1usize, 2, 4] {
        let ex = replicate_non_quadric(&pf, &layout, steps);
        let s = stats(&pf, &ex);
        assert_eq!(s.rewired_links, 0);
        println!(
            "{:<14} {:>6} {:>9} {:>13.2} {:>9} {:>9} {:>9} {:>9.3}",
            "Non-quadric",
            steps,
            ex.router_count(),
            s.scalability,
            s.degree_range.0,
            s.degree_range.1,
            s.diameter,
            s.aspl
        );
    }
    println!("\nrewired links = 0 in all cases (expansion never moves existing cables)");
    Ok(())
}
