//! Design explorer: given a router radix budget and a target system size,
//! enumerate the feasible diameter-2 designs and compare their scalability
//! and cost — the co-packaged system-design workflow that motivates the
//! paper (§I, §III).
//!
//! ```sh
//! cargo run --release -p pf-bench -- design_explorer 48 2000
//! ```

use crate::Args;
use pf_galois::primes;
use polarfly::cost::{paper_configuration, relative_costs, TrafficScenario};
use polarfly::feasibility;

pub fn run(args: &Args) -> Result<(), String> {
    let radix = args.number(0).unwrap_or(48);
    let target = args.number(1).unwrap_or(2000);

    println!("Design exploration: router radix <= {radix}, target >= {target} routers\n");

    // PolarFly candidates: q prime power, k = q + 1 <= radix.
    println!("PolarFly candidates (diameter 2):");
    println!(
        "{:>6} {:>7} {:>9} {:>8} {:>10}",
        "q", "radix", "routers", "%Moore", "fits?"
    );
    let mut best_pf: Option<(u64, u64)> = None;
    for q in primes::prime_powers_in(2, radix.saturating_sub(1)) {
        let n = q * q + q + 1;
        let k = q + 1;
        let pct = 100.0 * n as f64 / feasibility::moore_bound(k, 2) as f64;
        let fits = n >= target;
        if fits && best_pf.is_none() {
            best_pf = Some((q, n));
        }
        if k + 6 >= radix || fits {
            println!(
                "{q:>6} {k:>7} {n:>9} {pct:>8.2} {:>10}",
                if fits { "yes" } else { "" }
            );
        }
    }

    // Slim Fly candidates at the same budget.
    println!("\nSlim Fly candidates (diameter 2):");
    println!(
        "{:>6} {:>7} {:>9} {:>8} {:>10}",
        "q", "radix", "routers", "%Moore", "fits?"
    );
    for p in feasibility::slimfly_moore_curve(radix) {
        let fits = p.routers >= target;
        if p.degree + 8 >= radix || fits {
            println!(
                "{:>6} {:>7} {:>9} {:>8.2} {:>10}",
                "-",
                p.degree,
                p.routers,
                p.percent_of_moore,
                if fits { "yes" } else { "" }
            );
        }
    }

    if let Some((q, n)) = best_pf {
        println!(
            "\nSmallest fitting PolarFly: q = {q} -> {n} routers at radix {}",
            q + 1
        );
        println!("Expansion headroom without rewiring (non-quadric replication, diameter 3):");
        for steps in [1u64, q / 4, q / 2] {
            if steps == 0 {
                continue;
            }
            println!(
                "  +{steps} replication steps: {} routers (+{:.0}%), max radix {}",
                n + steps * q,
                100.0 * (steps * q) as f64 / n as f64,
                q + 2 + steps
            );
        }
    }

    println!("\nCost context (Fig. 15 model, 1024-node normalization):");
    for bar in relative_costs(&paper_configuration(), TrafficScenario::Uniform) {
        println!("  {:<10} {:.2}x (uniform)", bar.name, bar.relative_cost);
    }
    Ok(())
}
