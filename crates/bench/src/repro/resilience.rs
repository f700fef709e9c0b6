//! Fault tolerance (paper §IX-B): inject random link failures into a
//! PolarFly and track diameter / average path length up to disconnection,
//! alongside the path-diversity explanation from Table VI.
//!
//! ```sh
//! cargo run --release -p pf-bench -- resilience
//! ```

use crate::Args;
use pf_graph::failures::{failure_trial, median_failure_trial};
use polarfly::paths::measured_diversity;
use polarfly::PolarFly;

pub fn run(_: &Args) -> Result<(), String> {
    let q = 13u64;
    let pf = PolarFly::new(q).unwrap();
    let g = pf.graph();
    println!(
        "PolarFly q={q}: {} routers, {} links\n",
        g.vertex_count(),
        g.edge_count()
    );

    // Why the diameter jumps to 4 quickly but then stays there: a quadric
    // link has no 2- or 3-hop alternative, but O(q²) 4-hop ones.
    let w = pf.quadrics()[0];
    let u = g.neighbors(w)[0];
    let d = measured_diversity(&pf, w, u);
    println!("path diversity for quadric link {w}-{u}:");
    println!(
        "  1-hop: {}  2-hop: {}  3-hop: {}  4-hop: {}",
        d.len1, d.len2, d.len3, d.len4
    );
    println!(
        "  -> one quadric-link failure forces a 4-hop detour, but {} of them exist\n",
        d.len4
    );

    // Single seeded trial with a fine-grained curve.
    let checkpoints: Vec<f64> = (0..=12).map(|i| i as f64 * 0.05).collect();
    let trial = failure_trial(g, &checkpoints, 7);
    println!(
        "single failure trial (seed 7): disconnects at {:.1}% links failed",
        100.0 * trial.disconnect_ratio
    );
    println!(
        "{:>7} {:>9} {:>7} {:>10}",
        "fail%", "diameter", "ASPL", "connected"
    );
    for p in &trial.curve {
        println!(
            "{:>6.0}% {:>9} {:>7.3} {:>10}",
            100.0 * p.failure_ratio,
            p.diameter,
            p.aspl,
            if p.connected { "yes" } else { "NO" }
        );
        if !p.connected {
            break;
        }
    }

    // Median over many trials (the paper's Fig. 14 methodology).
    let (median, _) = median_failure_trial(g, 25, &[0.0], 99);
    println!(
        "\nmedian disconnection ratio over 25 trials: {:.1}% of links",
        100.0 * median
    );
    Ok(())
}
