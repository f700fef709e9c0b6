//! Transient-fault sweep: links die and repair *mid-run* (MTBF ×
//! repair-time × load) and the network must come back.
//!
//! `resilience_sweep` answers the static question — latency on a
//! network whose dead links stay dead. This sweep answers the
//! operational one the Slim Fly deployment study and the multipathing
//! survey both stress: what happens *during* failure and re-convergence.
//! Each cell draws a seeded, connectivity-safe [`FaultSchedule`] (fault
//! count = `links · window / MTBF`), puts it on the topology
//! ([`Topology::with_faults`]), and runs PF vs SF under MIN and UGAL-PF with both
//! in-flight policies: drop-and-retransmit at source, and drain. Faults
//! land inside the warmup window and every link repairs before
//! measurement, so the measurement-window delivery ratio must return to
//! exactly 1.0 at the swept sub-saturation loads.
//!
//! Scales: `--smoke` (CI-sized instances), default (Table V topologies,
//! reduced windows), `--full` (full §VIII-A windows and more loads).
//! `--telemetry-interval N` / `--trace-sample N` turn on the engine's
//! epoch time-series and sampled packet traces, as in `collective_sweep`:
//! each load point's report follows its data row, keyed by its run label.
//!
//! Fails (exit 1) if any cell:
//!
//! * fails to deliver every measured packet (delivery ratio < 1.0 after
//!   repair at sub-saturation load),
//! * lets any flit traverse a fully-down link (`down_link_flits > 0`),
//! * clamps the hop-indexed VC class budget during the stale-table
//!   serving window (`vc_class_clamps > 0`), or
//! * never exercised the machinery (no retransmissions/drops anywhere
//!   under drop-and-retransmit, or no table swap in a faulted run —
//!   a vacuous sweep is a broken sweep).

use crate::Args;
use pf_bench::jsonl::Row;
use pf_graph::FaultSchedule;
use pf_sim::{load_curve, InFlightPolicy, Routing, SimConfig, TrafficPattern};
use pf_topo::{PolarFlyTopo, SlimFly, Topology};

/// Schedule seed: one draw per (topology, MTBF, repair), shared by both
/// routings and both policies so they face identical fault timelines.
const FAULT_SEED: u64 = 0x7A11;

struct Scale {
    topos: Vec<Topology>,
    /// Per-link mean cycles between failures.
    mtbfs: Vec<f64>,
    /// Cycles from failure to repair.
    repairs: Vec<u32>,
    /// Offered loads (all sub-saturation: delivery must be 1.0).
    loads: Vec<f64>,
    /// Failures land in `[0, fail_window)`; `fail_window + max repair`
    /// stays inside warmup so measurement sees a repaired network.
    fail_window: u32,
    cfg: SimConfig,
}

fn scale(args: &Args) -> Scale {
    // 8 hop-indexed VC classes cover the residual diameters and detours
    // these schedules produce (same headroom as resilience_sweep).
    if args.smoke {
        Scale {
            topos: vec![
                PolarFlyTopo::new(7, 4).unwrap(),
                SlimFly::new(5, 4).unwrap(),
            ],
            mtbfs: vec![2_000.0, 8_000.0],
            repairs: vec![120, 300],
            loads: vec![0.1, 0.3],
            fail_window: 200,
            cfg: SimConfig::default()
                .warmup(500)
                .measure(300)
                .drain_max(1500)
                .vc_classes(8)
                .convergence_delay(100),
        }
    } else {
        Scale {
            topos: vec![
                PolarFlyTopo::new(31, 16).unwrap(),
                SlimFly::new(23, 18).unwrap(),
            ],
            mtbfs: vec![100_000.0, 400_000.0],
            repairs: vec![150, 450],
            loads: if args.full {
                vec![0.1, 0.25, 0.4, 0.55]
            } else {
                vec![0.1, 0.3]
            },
            fail_window: 300,
            cfg: if args.full {
                SimConfig::default().vc_classes(8).convergence_delay(150)
            } else {
                SimConfig::default()
                    .warmup(800)
                    .measure(400)
                    .drain_max(2500)
                    .vc_classes(8)
                    .convergence_delay(150)
            },
        }
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let mut s = scale(args);
    let routings = [Routing::Min, Routing::UgalPf];
    let policies = [InFlightPolicy::DropRetransmit, InFlightPolicy::Drain];

    println!("Transient-fault sweep — MTBF × repair × load, uniform traffic");
    s.cfg = args.telemetry(s.cfg);
    println!("(delivery must return to 1.0 after repair; no flit on a down link;");
    println!(" no VC-class clamp in the stale-table window;");
    println!(" data rows are JSON lines — filter with `grep '^{{'`)\n");

    let mut broken = 0usize;
    let mut retransmissions = 0u64;
    let mut swaps_seen = 0u32;
    for topo in &s.topos {
        for (mi, &mtbf) in s.mtbfs.iter().enumerate() {
            for (ri, &repair) in s.repairs.iter().enumerate() {
                // Expected failures over the window, as a sampled ratio.
                let ratio = (f64::from(s.fail_window) / mtbf).min(0.12);
                let seed = FAULT_SEED ^ ((mi as u64) << 8) ^ ((ri as u64) << 16);
                let schedule = FaultSchedule::sample_connected_links(
                    topo.graph(),
                    ratio,
                    s.fail_window,
                    repair,
                    seed,
                );
                let faults = schedule.len();
                let transient = topo.with_faults(schedule).map_err(|e| e.to_string())?;
                for routing in routings {
                    for policy in policies {
                        let cfg = s.cfg.clone().fault_policy(policy);
                        let curve = load_curve(
                            &transient,
                            routing,
                            TrafficPattern::Uniform,
                            &s.loads,
                            &cfg,
                        );
                        let policy_label = match policy {
                            InFlightPolicy::DropRetransmit => "drop",
                            InFlightPolicy::Drain => "drain",
                        };
                        for p in &curve.points {
                            let delivered_all = !p.saturated && p.delivered == p.generated;
                            let clean = p.down_link_flits == 0 && p.vc_class_clamps == 0;
                            let ok = delivered_all && clean;
                            if !ok {
                                broken += 1;
                            }
                            retransmissions += p.retransmitted_packets;
                            swaps_seen += p.table_swaps;
                            Row::new("transient")
                                .str("topology", topo.name())
                                .str("routing", curve.routing)
                                .str("policy", policy_label)
                                .f64("mtbf", mtbf)
                                .u64("repair", u64::from(repair))
                                .u64("faults", faults as u64)
                                .sim_result(p)
                                .bool("ok", ok)
                                .emit();
                            if let Some(report) = &p.telemetry {
                                let label = format!(
                                    "{} / {} / {policy_label} / mtbf {mtbf} / repair {repair} / load {}",
                                    topo.name(),
                                    curve.routing,
                                    p.offered_load
                                );
                                pf_bench::telemetry::emit_report(&label, report);
                            }
                            if !delivered_all {
                                eprintln!(
                                    "BROKEN: {} / {} / {:?} mtbf={mtbf} repair={repair} \
                                     load={:.2}: delivery {:.4} after repair",
                                    topo.name(),
                                    curve.routing,
                                    policy,
                                    p.offered_load,
                                    p.delivery_ratio()
                                );
                            }
                            if p.down_link_flits > 0 {
                                eprintln!(
                                    "BROKEN: {} / {}: {} flit(s) traversed a down link",
                                    topo.name(),
                                    curve.routing,
                                    p.down_link_flits
                                );
                            }
                            if p.vc_class_clamps > 0 {
                                eprintln!(
                                    "BROKEN: {} / {}: VC class budget clamped {} time(s)",
                                    topo.name(),
                                    curve.routing,
                                    p.vc_class_clamps
                                );
                            }
                            if faults > 0 && p.table_swaps == 0 {
                                broken += 1;
                                eprintln!(
                                    "BROKEN: {} / {}: {faults} fault(s) but no table swap",
                                    topo.name(),
                                    curve.routing
                                );
                            }
                        }
                    }
                }
                println!();
            }
        }
    }

    if retransmissions == 0 {
        broken += 1;
        eprintln!("BROKEN: no cell ever retransmitted — the faults never bit (vacuous sweep)");
    }
    if swaps_seen == 0 {
        broken += 1;
        eprintln!("BROKEN: no table re-convergence anywhere (vacuous sweep)");
    }
    if broken > 0 {
        return Err(format!("FAIL: {broken} violation(s)"));
    }
    println!(
        "OK: delivery returned to 1.0 everywhere; 0 down-link flits; 0 VC clamps; \
         {retransmissions} retransmissions, {swaps_seen} table swaps exercised"
    );
    Ok(())
}
