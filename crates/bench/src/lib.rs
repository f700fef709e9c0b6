//! Shared harness utilities for the per-figure/per-table benchmark
//! binaries (`src/bin/figXX_*`, `src/bin/tableXX_*`).
//!
//! Every binary regenerates one table or figure of the PolarFly paper and
//! prints the same rows/series the paper reports. Two scales are
//! supported:
//!
//! * **default** — reduced-scale instances (~100–300 routers) with
//!   shortened simulation windows: minutes of wall clock, same qualitative
//!   shapes (saturation ordering, crossovers);
//! * **`PF_FULL=1`** — the paper's exact Table V configurations
//!   (~1 000 routers) and full warmup/measurement windows.

// The harness *is* the stdout emitter for every figure/table binary.
#![allow(clippy::print_stdout)]

pub mod jsonl;
pub mod telemetry;

use pf_sim::engine::SimConfig;
use pf_topo::{Dragonfly, FatTree, Jellyfish, PolarFlyTopo, SlimFly, Topology};

/// Whether the harness runs at the paper's full scale (`PF_FULL=1`).
#[allow(clippy::disallowed_methods)] // the one sanctioned environment read (clippy.toml)
pub fn full_scale() -> bool {
    std::env::var("PF_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Simulation window sized for the current scale.
pub fn sim_config() -> SimConfig {
    if full_scale() {
        SimConfig::default() // 1000 warmup / 2000 measure / 4000 drain
    } else {
        SimConfig::default()
            .warmup(300)
            .measure(700)
            .drain_max(1000)
    }
}

/// Offered-load grid for latency-vs-load curves.
pub fn load_points() -> Vec<f64> {
    if full_scale() {
        vec![
            0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.72, 0.78, 0.84, 0.9, 0.96,
        ]
    } else {
        vec![0.05, 0.2, 0.35, 0.5, 0.6, 0.7, 0.8, 0.9]
    }
}

/// The comparison topologies (Table V at full scale; proportionally
/// reduced instances otherwise). Order: PF, SF, DF1, DF2, JF, FT.
pub fn comparison_topologies() -> Vec<Box<dyn Topology>> {
    if full_scale() {
        vec![
            Box::new(PolarFlyTopo::new(31, 16).unwrap()),
            Box::new(SlimFly::new(23, 18).unwrap()),
            Box::new(Dragonfly::df1()),
            Box::new(Dragonfly::df2()),
            Box::new(Jellyfish::table_v(7)),
            Box::new(FatTree::table_v()),
        ]
    } else {
        vec![
            // PF q=13: 183 routers, radix 14, balanced p=7.
            Box::new(PolarFlyTopo::new(13, 7).unwrap()),
            // SF q=9: 162 routers, radix 13, balanced p=7.
            Box::new(SlimFly::new(9, 7).unwrap()),
            // Balanced small Dragonfly: 114 routers, radix 8.
            Box::new(Dragonfly::new(6, 3, 3)),
            // Radix-matched Dragonfly: 180 routers, radix 14.
            Box::new(Dragonfly::new(4, 11, 5)),
            // Jellyfish at PF scale/radix.
            Box::new(Jellyfish::new(183, 14, 7, 7)),
            // 3-level folded Clos, 108 switches, radix 12.
            Box::new(FatTree::new(6)),
        ]
    }
}

/// Prints a labelled series as aligned columns (figure data as text).
pub fn print_series(header: &str, xs: &[f64], ys: &[f64]) {
    println!("# {header}");
    for (x, y) in xs.iter().zip(ys) {
        println!("{x:8.3} {y:12.4}");
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

/// Renders a latency-vs-load curve as a small ASCII plot (y = latency,
/// capped; x = offered load), matching the visual reading of Figs. 8–11.
pub fn ascii_curve(curve: &pf_sim::LoadCurve, latency_cap: f64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let height = 12usize;
    let width = curve.points.len().max(1);
    let _ = writeln!(
        s,
        "{} / {} / {} (y: 0..{:.0} cycles)",
        curve.topology, curve.routing, curve.pattern, latency_cap
    );
    let mut grid = vec![vec![b' '; width]; height];
    for (x, p) in curve.points.iter().enumerate() {
        let lat = p.avg_latency.min(latency_cap);
        let row = ((lat / latency_cap) * (height as f64 - 1.0)).round() as usize;
        let row = height - 1 - row;
        grid[row][x] = if p.saturated { b'X' } else { b'*' };
    }
    for row in grid {
        let _ = writeln!(s, "|{}", String::from_utf8(row).unwrap());
    }
    let _ = writeln!(s, "+{}", "-".repeat(width));
    let loads: Vec<String> = curve
        .points
        .iter()
        .map(|p| format!("{:.2}", p.offered_load))
        .collect();
    let _ = writeln!(s, " loads: {}", loads.join(" "));
    s
}

/// Serializes a curve as CSV (`offered,accepted,avg_latency,p99,saturated`).
pub fn curve_csv(curve: &pf_sim::LoadCurve) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("offered,accepted,avg_latency,p99_latency,avg_hops,saturated\n");
    for p in &curve.points {
        let _ = writeln!(
            s,
            "{:.4},{:.4},{:.2},{:.1},{:.3},{}",
            p.offered_load, p.accepted_load, p.avg_latency, p.p99_latency, p.avg_hops, p.saturated
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_topologies_build() {
        // The default harness instances must all construct and be usable.
        let topos = comparison_topologies();
        assert_eq!(topos.len(), 6);
        for t in &topos {
            assert!(t.router_count() > 50);
            assert!(t.graph().is_connected());
            assert!(t.total_endpoints() > 0);
        }
    }

    #[test]
    fn load_points_are_increasing() {
        let pts = load_points();
        for w in pts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn ascii_and_csv_render() {
        use pf_sim::sweep::load_curve;
        use pf_sim::{Routing, SimConfig, TrafficPattern};
        let topo = pf_topo::PolarFlyTopo::new(5, 2).unwrap();
        let curve = load_curve(
            &topo,
            Routing::Min,
            TrafficPattern::Uniform,
            &[0.1, 0.5],
            &SimConfig::quick(),
        );
        let plot = ascii_curve(&curve, 100.0);
        assert!(plot.contains("PF(q=5,p=2)"));
        assert!(plot.contains('*') || plot.contains('X'));
        let csv = curve_csv(&curve);
        assert_eq!(csv.lines().count(), 3); // header + 2 points
        assert!(csv.starts_with("offered,"));
    }
}
