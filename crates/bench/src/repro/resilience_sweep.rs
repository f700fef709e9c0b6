//! Companion to Fig. 14: latency and throughput under **live** link
//! failures.
//!
//! `fig14_resilience` reproduces the paper's static §IX-B curves
//! (diameter / ASPL vs. failure ratio); this sweep answers the question
//! operators actually ask of a degraded deployment: what happens to
//! packet latency, accepted throughput, and delivery ratio when links
//! die. For each failure ratio a seeded connected [`FailureSet`] is
//! drawn, the topology takes it as a fault schedule
//! ([`Topology::with_faults`]) that fails those links at cycle 0 and
//! never repairs them, and a full
//! latency-vs-load curve is run (Rayon-parallel across loads, like every
//! `load_curve` consumer) under MIN and UGAL-PF — adaptive routing sees
//! the failures only through residual route tables, per-port link masks,
//! and live queue state.
//!
//! Scales:
//!
//! * `--smoke` — tiny instances and windows (CI);
//! * default — the paper's Table V PolarFly (q=31, p=16) vs Slim Fly
//!   (q=23, p=18) with reduced windows;
//! * `--full` — the full §VIII-A warmup/measurement windows.
//!
//! `--telemetry-interval N` / `--trace-sample N` turn on the engine's
//! epoch time-series and sampled packet traces, as in `collective_sweep`:
//! each load point's report follows its data row, keyed by its run label.
//!
//! Fails (exit 1) if any curve fails to deliver everything at its
//! *lowest* offered load (10%): the engine flags saturation exactly when
//! packets fail to drain, and at 10% load congestion cannot explain that
//! — only a routing bug (misroute, livelock, dead-link traversal) can.

use crate::Args;
use pf_bench::jsonl::Row;
use pf_graph::{FailureSet, FaultSchedule};
use pf_sim::{load_curve, Routing, SimConfig, TrafficPattern};
use pf_topo::{PolarFlyTopo, SlimFly, Topology};

/// Failure seed: one draw per (topology, ratio), shared by both routings
/// so they face identical dead links.
const FAILURE_SEED: u64 = 0xFA11;

pub fn run(args: &Args) -> Result<(), String> {
    // Residual minimal paths exceed the healthy diameter and adaptive
    // detours add one more hop: 8 hop-indexed VC classes keep every
    // degraded path deadlock-free (healthy runs need only 4).
    let cfg = if args.smoke {
        SimConfig::quick()
            .warmup(100)
            .measure(200)
            .drain_max(600)
            .vc_classes(8)
    } else {
        pf_bench::sim_config(args.full).vc_classes(8)
    };
    let loads: Vec<f64> = if args.smoke {
        vec![0.1, 0.3]
    } else {
        vec![0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
    };
    let topos: Vec<Topology> = if args.smoke {
        vec![
            PolarFlyTopo::new(7, 4).unwrap(),
            SlimFly::new(5, 4).unwrap(),
        ]
    } else {
        vec![
            PolarFlyTopo::new(31, 16).unwrap(),
            SlimFly::new(23, 18).unwrap(),
        ]
    };
    let ratios = [0.0, 0.05, 0.10];
    let routings = [Routing::Min, Routing::UgalPf];

    println!("Resilience sweep — latency under live link failures (uniform traffic)");
    let cfg = args.telemetry(cfg);
    println!("(a curve failing to deliver everything at its lowest load is a routing bug;");
    println!(" data rows are JSON lines — filter with `grep '^{{'`)\n");

    let mut broken_curves = 0usize;
    for topo in &topos {
        for &ratio in &ratios {
            let failures = FailureSet::sample_connected(topo.graph(), ratio, FAILURE_SEED);
            let degraded =
                topo
                .with_faults(FaultSchedule::from_failures(&failures))
                .map_err(|e| e.to_string())?;
            for routing in routings {
                let curve = load_curve(&degraded, routing, TrafficPattern::Uniform, &loads, &cfg);
                for p in &curve.points {
                    Row::new("resilience")
                        .str("topology", &curve.topology)
                        .str("routing", curve.routing)
                        .str("pattern", curve.pattern)
                        .f64("failure_ratio", ratio)
                        .sim_result(p)
                        .emit();
                    if let Some(report) = &p.telemetry {
                        let label = format!(
                            "{} / {} / failure_ratio {ratio} / load {}",
                            curve.topology, curve.routing, p.offered_load
                        );
                        pf_bench::telemetry::emit_report(&label, report);
                    }
                }
                // `saturated` is set exactly when packets failed to drain;
                // at the lowest offered load that can only be a routing
                // bug, never congestion.
                if curve.points.first().is_some_and(|p| p.saturated) {
                    eprintln!(
                        "BROKEN: {} / {} drops packets at load {:.2}",
                        curve.topology, curve.routing, curve.points[0].offered_load
                    );
                    broken_curves += 1;
                }
            }
        }
    }

    if broken_curves > 0 {
        return Err(format!(
            "FAIL: {broken_curves} curve(s) dropped packets at the lowest offered load"
        ));
    }
    println!("OK: every curve delivered all packets at its lowest offered load");
    Ok(())
}
