//! Figure 12: bisection bandwidth — fraction of links crossing a balanced
//! bisection — versus network radix, for PF, SF, DF, JF (fat tree = 0.5 by
//! construction). Partitioner: spectral + Fiduccia–Mattheyses (METIS
//! substitute, see DESIGN.md, "Bisection (Fig. 12)"). The default-scale
//! stdout is committed as `crates/bench/golden/fig12_bisection.txt` and
//! pinned by `tests/goldens.rs`.

use crate::Args;
use pf_graph::partition::bisection_cut_fraction;
use pf_topo::{Dragonfly, Jellyfish, SlimFly};
use polarfly::PolarFly;

pub fn run(args: &Args) -> Result<(), String> {
    let restarts = if args.full { 6 } else { 3 };
    println!("Figure 12 — normalized edges in bisection vs radix (paper: PF>0.4 from");
    println!("radix 18, approaching 0.5; SF ~0.33; DF ~0.17; FT optimal 0.5)\n");

    println!("# PolarFly");
    let pf_qs: &[u64] = if args.full {
        &[7, 11, 17, 23, 31, 43, 61, 79]
    } else {
        &[7, 11, 17, 23, 31]
    };
    for &q in pf_qs {
        let pf = PolarFly::new(q).unwrap();
        let cut = bisection_cut_fraction(pf.graph(), restarts, 42);
        println!(
            "  radix {:>4} N {:>6}: {:.4}",
            q + 1,
            pf.router_count(),
            cut
        );
    }

    println!("# Slim Fly");
    let sf_qs: &[u64] = if args.full {
        &[5, 9, 13, 19, 25, 32, 43]
    } else {
        &[5, 9, 13, 19]
    };
    for &q in sf_qs {
        let sf = SlimFly::new(q, 1).unwrap();
        let cut = bisection_cut_fraction(sf.graph(), restarts, 42);
        println!(
            "  radix {:>4} N {:>6}: {:.4}",
            sf.graph().max_degree(),
            sf.router_count(),
            cut
        );
    }

    println!("# Dragonfly (balanced a=2h)");
    let hs: &[u32] = if args.full {
        &[2, 3, 4, 6, 8, 10]
    } else {
        &[2, 3, 4, 6]
    };
    for &h in hs {
        let df = Dragonfly::new(2 * h, h, 1);
        let cut = bisection_cut_fraction(df.graph(), restarts, 42);
        println!(
            "  radix {:>4} N {:>6}: {:.4}",
            df.graph().max_degree(),
            df.router_count(),
            cut
        );
    }

    println!("# Jellyfish (random regular, PF-matched sizes)");
    for &q in pf_qs {
        let n = (q * q + q + 1) as usize;
        let k = (q + 1) as usize;
        let n = if n * k % 2 == 1 { n + 1 } else { n };
        let jf = Jellyfish::new(n, k, 1, 7);
        let cut = bisection_cut_fraction(jf.graph(), restarts, 42);
        println!("  radix {:>4} N {:>6}: {:.4}", k, jf.router_count(), cut);
    }

    println!("# Fat tree: 0.5 (non-blocking folded Clos, by construction)");
    Ok(())
}
