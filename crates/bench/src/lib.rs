//! Shared harness utilities for the `repro` binary's subcommands
//! (`src/repro/*.rs`, one per figure, table, sweep and walkthrough).
//!
//! Every figure/table subcommand regenerates one table or figure of the
//! PolarFly paper and prints the same rows/series the paper reports. Two
//! scales are supported:
//!
//! * **default** — reduced-scale instances (~100–300 routers) with
//!   shortened simulation windows: minutes of wall clock, same qualitative
//!   shapes (saturation ordering, crossovers);
//! * **`--full`** (`full = true` below) — the paper's exact Table V
//!   configurations (~1 000 routers) and full warmup/measurement windows.

// The harness *is* the stdout emitter for every subcommand.
#![allow(clippy::print_stdout)]

pub mod jsonl;
pub mod telemetry;

use pf_sim::engine::SimConfig;
use pf_topo::{Dragonfly, FatTree, Jellyfish, PolarFlyTopo, SlimFly, Topology};

/// Simulation window sized for the scale (`full`: the paper's).
pub fn sim_config(full: bool) -> SimConfig {
    if full {
        SimConfig::default() // 1000 warmup / 2000 measure / 4000 drain
    } else {
        SimConfig::default()
            .warmup(300)
            .measure(700)
            .drain_max(1000)
    }
}

/// Offered-load grid for latency-vs-load curves.
pub fn load_points(full: bool) -> Vec<f64> {
    if full {
        vec![
            0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.72, 0.78, 0.84, 0.9, 0.96,
        ]
    } else {
        vec![0.05, 0.2, 0.35, 0.5, 0.6, 0.7, 0.8, 0.9]
    }
}

/// The comparison topologies (Table V at full scale; proportionally
/// reduced instances otherwise). Order: PF, SF, DF1, DF2, JF, FT.
pub fn comparison_topologies(full: bool) -> Vec<Topology> {
    if full {
        vec![
            PolarFlyTopo::new(31, 16).unwrap(),
            SlimFly::new(23, 18).unwrap(),
            Dragonfly::df1(),
            Dragonfly::df2(),
            Jellyfish::table_v(7),
            FatTree::table_v(),
        ]
    } else {
        vec![
            // PF q=13: 183 routers, radix 14, balanced p=7.
            PolarFlyTopo::new(13, 7).unwrap(),
            // SF q=9: 162 routers, radix 13, balanced p=7.
            SlimFly::new(9, 7).unwrap(),
            // Balanced small Dragonfly: 114 routers, radix 8.
            Dragonfly::new(6, 3, 3),
            // Radix-matched Dragonfly: 180 routers, radix 14.
            Dragonfly::new(4, 11, 5),
            // Jellyfish at PF scale/radix.
            Jellyfish::new(183, 14, 7, 7),
            // 3-level folded Clos, 108 switches, radix 12.
            FatTree::new(6),
        ]
    }
}

/// Prints one latency-vs-load curve as an aligned table.
pub fn print_curve_rows(curve: &pf_sim::LoadCurve) {
    println!(
        "# {} / {} / {}",
        curve.topology, curve.routing, curve.pattern
    );
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>6}",
        "offered", "accepted", "avg_latency", "p99", "sat"
    );
    for p in &curve.points {
        println!(
            "{:8.3} {:10.4} {:12.2} {:10.1} {:>6}",
            p.offered_load,
            p.accepted_load,
            p.avg_latency,
            p.p99_latency,
            if p.saturated { "SAT" } else { "-" }
        );
    }
    println!(
        "# saturation_throughput = {:.4}, zero_load_latency = {:.1}",
        curve.saturation_throughput(),
        curve.zero_load_latency()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_topologies_build() {
        // The default harness instances must all construct and be usable.
        let topos = comparison_topologies(false);
        assert_eq!(topos.len(), 6);
        for t in &topos {
            assert!(t.router_count() > 50);
            assert!(t.graph().is_connected());
            assert!(t.total_endpoints() > 0);
        }
    }

    #[test]
    fn load_points_are_increasing() {
        let pts = load_points(false);
        for w in pts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
