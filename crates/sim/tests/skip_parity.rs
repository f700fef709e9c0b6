//! Bit-for-bit parity of the event-driven cycle-skip schedule
//! (`SimConfig::skip`) against the dense scan, across topology sizes,
//! routing algorithms, and injection modes.
//!
//! The skip machinery's contract is *exact*: leaping a provably-idle
//! router forward must change nothing observable — every simulated
//! field of `SimResult` equals the dense run's, down to the bit. Only
//! the execution-observability field `skipped_router_cycles` may
//! differ. See `DESIGN.md`, "Event-driven cycle skipping".

mod common;

use common::assert_bit_identical;

use pf_graph::FaultSchedule;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{load_curve, simulate_workload, Engine, Routing, SimConfig};
use pf_topo::{PolarFlyTopo, Topology, TransientTopo};
use pf_workload::{param_server, ring_allreduce, JobAssignment};

/// Runs one Bernoulli load point dense, then skipping, asserting both
/// agree bit-for-bit and that the skip run actually skipped something.
fn check_bernoulli(topo: &dyn Topology, routing: Routing, load: f64, cfg: &SimConfig) {
    let point = |skip: bool| {
        load_curve(
            topo,
            routing,
            TrafficPattern::Uniform,
            &[load],
            &cfg.clone().skip(skip),
        )
        .points
        .remove(0)
    };
    let dense = point(false);
    let label = format!("{} load {load}", routing.label());
    assert!(dense.delivered > 0, "{label}: vacuous parity baseline");
    assert_eq!(
        dense.skipped_router_cycles, 0,
        "{label}: dense run reported skips"
    );
    let skipping = point(true);
    assert_bit_identical(&dense, &skipping, &label);
    assert!(
        skipping.skipped_router_cycles > 0,
        "{label}: skip enabled but nothing skipped"
    );
}

/// PF(7): MIN and UGAL-PF, below and near saturation.
#[test]
fn bernoulli_parity_q7() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::quick().seed(3);
    for routing in [Routing::Min, Routing::UgalPf] {
        check_bernoulli(&topo, routing, 0.2, &cfg);
        check_bernoulli(&topo, routing, 0.55, &cfg);
    }
}

/// PF(31) — the paper's 993-router instance, shortened windows. The
/// full-scale port/VC index space is where a stale occupancy mask or a
/// premature sleep would hide.
#[test]
fn bernoulli_parity_q31() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let cfg = SimConfig::default()
        .warmup(60)
        .measure(100)
        .drain_max(500)
        .seed(9);
    check_bernoulli(&topo, Routing::Min, 0.25, &cfg);
    check_bernoulli(&topo, Routing::UgalPf, 0.25, &cfg);
}

/// PF(37): radix 38 is past the 32-bit port-occupancy masks, so the
/// skip schedule scans every port of each awake router instead of the
/// occupied ones — the scan every larger network (and Slim Fly q=23)
/// runs.
#[test]
fn bernoulli_parity_q37_without_port_masks() {
    let topo = PolarFlyTopo::new(37, 19).unwrap();
    assert!(
        topo.graph().max_degree() > 32,
        "PF(37) must exceed the mask width"
    );
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(200)
        .drain_max(600)
        .seed(13);
    check_bernoulli(&topo, Routing::Min, 0.25, &cfg);
    check_bernoulli(&topo, Routing::UgalPf, 0.25, &cfg);
}

/// PF(3) at load 0.001 — one packet per ~150 cycles network-wide, so the
/// engine spends the run leaping from one open-loop arrival to the next
/// *while generating*. The leap bound must land on every arrival's cycle
/// (checked each step by [`Engine::validate_skip_invariants`]) and the
/// result must equal the dense walk of all 22 000 cycles.
#[test]
fn bernoulli_parity_leaps_between_arrivals() {
    let topo = PolarFlyTopo::new(3, 2).unwrap();
    let cfg = SimConfig::default()
        .warmup(2000)
        .measure(20000)
        .drain_max(500)
        .seed(29);
    check_bernoulli(&topo, Routing::Min, 0.001, &cfg);

    let tables = pf_sim::RouteTables::build(topo.graph(), 7);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let mut e = Engine::new(
        &topo,
        &tables,
        &dests,
        Routing::Min,
        0.001,
        cfg.clone().skip(true),
    );
    let (mut steps, mut leaps) = (0u32, 0u32);
    while e.cycle() < 22000 {
        let from = e.cycle();
        e.step();
        e.validate_skip_invariants();
        steps += 1;
        leaps += u32::from(e.cycle() > from + 1);
    }
    assert!(e.total_generated() > 50, "vacuous: almost no arrivals");
    assert!(
        leaps > 50 && steps < 22000 / 4,
        "generating cycles did not leap: {leaps} leaps, {steps} steps for 22000 cycles"
    );
}

/// Closed-loop workload DAGs: compute timers arm wake-ups while a
/// router is otherwise silent, so makespans and phase spans are the
/// sharpest probe of a missed wake.
#[test]
fn workload_parity() {
    for (q, p) in [(7u64, 4usize), (31, 16)] {
        let topo = PolarFlyTopo::new(q, p).unwrap();
        let jobs = || {
            vec![
                JobAssignment {
                    workload: ring_allreduce(8, 16, 4),
                    hosts: (0..8).collect(),
                },
                JobAssignment {
                    workload: param_server(6, 8, 4, 8, 20),
                    hosts: (8..15).collect(),
                },
            ]
        };
        let routings: &[Routing] = if q == 7 {
            &[Routing::Min, Routing::UgalPf]
        } else {
            &[Routing::Min] // full-scale: one algorithm keeps runtime sane
        };
        for &routing in routings {
            let base = SimConfig::default().seed(17);
            let dense =
                simulate_workload(&topo, routing, jobs(), &base.clone().skip(false)).unwrap();
            assert!(!dense.saturated, "{}: workload wedged", routing.label());
            let run = simulate_workload(&topo, routing, jobs(), &base.clone().skip(true)).unwrap();
            let label = format!("workload q={q} {}", routing.label());
            assert_bit_identical(&dense, &run, &label);
            assert!(
                run.skipped_router_cycles > 0,
                "{label}: no skips on a sparse workload"
            );
        }
    }
}

/// Transient fault bursts: mid-run link deaths, retransmits, staged
/// table swaps. Fault events must wake the routers they touch — the
/// retransmit/drop counters diverge immediately if one sleeps through
/// a purge.
#[test]
fn transient_burst_parity() {
    for (q, p) in [(7u64, 4usize), (31, 16)] {
        let pf = PolarFlyTopo::new(q, p).unwrap();
        let schedule = FaultSchedule::sample_connected_links(pf.graph(), 0.05, 150, 150, 23);
        assert!(!schedule.is_empty());
        let transient = TransientTopo::new(&pf, schedule);
        let cfg = SimConfig::default()
            .warmup(300)
            .measure(250)
            .drain_max(if q == 7 { 1500 } else { 900 })
            .vc_classes(8)
            .convergence_delay(100)
            .seed(11);
        let routings: &[Routing] = if q == 7 {
            &[Routing::Min, Routing::UgalPf]
        } else {
            &[Routing::Min]
        };
        for &routing in routings {
            let dense = load_curve(
                &transient,
                routing,
                TrafficPattern::Uniform,
                &[0.2],
                &cfg.clone().skip(false),
            );
            assert!(
                dense.points[0].retransmitted_packets > 0,
                "q={q} {}: schedule never hit committed traffic",
                routing.label()
            );
            let run = load_curve(
                &transient,
                routing,
                TrafficPattern::Uniform,
                &[0.2],
                &cfg.clone().skip(true),
            );
            let label = format!("transient q={q} {}", routing.label());
            assert_bit_identical(&dense.points[0], &run.points[0], &label);
        }
    }
}

/// Property: a router's tracked next-interesting cycle never overshoots
/// its actual next state change. [`Engine::validate_skip_invariants`]
/// asserts exactly that (plus mask/occupancy coherence) against ground
/// truth, every cycle of a run that exercises generation, drain, and
/// full sleep.
#[test]
fn next_interesting_cycle_never_overshoots() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = pf_sim::RouteTables::build(topo.graph(), 7);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    for routing in [Routing::Min, Routing::UgalPf] {
        let cfg = SimConfig::default()
            .warmup(100)
            .measure(200)
            .drain_max(1000)
            .gen_cutoff(300)
            .seed(41)
            .skip(true);
        let mut e = Engine::new(&topo, &tables, &dests, routing, 0.3, cfg);
        for _ in 0..1300 {
            e.step();
            e.validate_skip_invariants();
            e.validate_flow_invariants();
        }
        assert!(
            e.skipped_router_cycles() > 0,
            "{}: drained network never slept",
            routing.label()
        );
    }
}
