//! Transient faults, end to end: links die and repair mid-run, in-flight flits follow the configured policy, stale tables
//! keep serving until the staged re-convergence swap — and through all
//! of it, every packet below saturation is delivered, no flit ever
//! crosses a fully-down link, and the hop-indexed VC class budget is
//! never clamped.

use pf_graph::{FailureSet, FaultSchedule};
use pf_sim::engine::Engine;
use pf_sim::router::PortMap;
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{load_curve, InFlightPolicy, Routing, SimConfig};
use pf_topo::PolarFlyTopo;

/// Transient runs need VC-class headroom twice over: residual minimal
/// paths exceed the healthy diameter of 2, and stale-window local
/// detours add hops on top. 8 classes cover everything these schedules
/// produce — and every test asserts the clamp counter stayed at 0.
fn transient_cfg() -> SimConfig {
    SimConfig::default()
        .warmup(500)
        .measure(400)
        .drain_max(2500)
        .vc_classes(8)
        .convergence_delay(100)
        .seed(11)
}

/// A burst of link blips inside the warmup window: every fault is
/// repaired and the tables re-converged before measurement starts, so
/// the measurement-window delivery ratio must return to exactly 1.0.
#[test]
fn warmup_link_blips_recover_full_delivery() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let schedule = FaultSchedule::sample_connected_links(pf.graph(), 0.08, 150, 150, 23);
    assert!(!schedule.is_empty());
    assert!(schedule.horizon() < 400, "blips must end inside warmup");
    let transient = pf.with_faults(schedule).unwrap();
    for routing in [Routing::Min, Routing::MinAdaptive, Routing::UgalPf] {
        let curve = load_curve(
            &transient,
            routing,
            TrafficPattern::Uniform,
            &[0.2],
            &transient_cfg(),
        );
        let p = &curve.points[0];
        assert!(!p.saturated, "{} saturated at load 0.2", curve.routing);
        assert_eq!(
            p.delivered, p.generated,
            "{}: measurement-window delivery ratio below 1.0 after repair",
            curve.routing
        );
        assert_eq!(
            p.down_link_flits, 0,
            "{}: flits crossed a down link",
            curve.routing
        );
        assert_eq!(
            p.vc_class_clamps, 0,
            "{}: VC class budget violated in the stale-table window",
            curve.routing
        );
        assert!(
            p.table_swaps >= 1,
            "{}: no table re-convergence happened",
            curve.routing
        );
        assert!(
            p.retransmitted_packets > 0,
            "{}: the blips never hit committed traffic (vacuous test)",
            curve.routing
        );
        assert!(
            p.dropped_flits > 0,
            "{}: nothing was dropped",
            curve.routing
        );
    }
}

/// Faults landing inside the measurement window: measured packets are
/// dropped and retransmitted, yet every one of them still drains before
/// the budget expires — delivery returns to 1.0 after the repair.
#[test]
fn mid_measurement_blip_still_delivers_everything() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    // Three simultaneously-removable links, dying inside the window.
    let safe = FailureSet::sample_connected(pf.graph(), 0.02, 7);
    let mut schedule = FaultSchedule::new();
    for (k, &(u, v)) in safe.edges().iter().take(3).enumerate() {
        let fail = 550 + 40 * k as u32;
        schedule = schedule.link_fault(u, v, fail, fail + 120);
    }
    let transient = pf.with_faults(schedule).unwrap();
    for routing in [Routing::Min, Routing::UgalPf] {
        let curve = load_curve(
            &transient,
            routing,
            TrafficPattern::Uniform,
            &[0.15],
            &transient_cfg(),
        );
        let p = &curve.points[0];
        assert!(!p.saturated, "{}", curve.routing);
        assert_eq!(p.delivered, p.generated, "{}", curve.routing);
        assert_eq!(p.down_link_flits, 0, "{}", curve.routing);
        assert_eq!(p.vc_class_clamps, 0, "{}", curve.routing);
        assert!(p.table_swaps >= 1, "{}", curve.routing);
    }
}

/// The drain policy lets committed wormholes finish crossing a dying
/// link: nothing is ever dropped or retransmitted, and the down-link
/// counter still reads 0 because draining traversals are sanctioned.
#[test]
fn drain_policy_drops_nothing() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let schedule = FaultSchedule::sample_connected_links(pf.graph(), 0.08, 150, 150, 23);
    let transient = pf.with_faults(schedule).unwrap();
    let cfg = transient_cfg().fault_policy(InFlightPolicy::Drain);
    for routing in [Routing::Min, Routing::UgalPf] {
        let curve = load_curve(&transient, routing, TrafficPattern::Uniform, &[0.2], &cfg);
        let p = &curve.points[0];
        assert!(!p.saturated, "{}", curve.routing);
        assert_eq!(p.delivered, p.generated, "{}", curve.routing);
        assert_eq!(p.dropped_flits, 0, "{}: drain must not drop", curve.routing);
        assert_eq!(
            p.retransmitted_packets, 0,
            "{}: drain must not retransmit",
            curve.routing
        );
        assert_eq!(p.down_link_flits, 0, "{}", curve.routing);
        assert_eq!(p.vc_class_clamps, 0, "{}", curve.routing);
    }
}

/// Manual stepping around one link's down window: under the
/// drop-and-retransmit policy, the per-link flit counters must not move
/// at all between death and repair, the flow invariants must hold
/// across the purges, and traffic must flow again after the repair.
#[test]
fn no_flit_crosses_the_down_window() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let &(u, v) = FailureSet::sample_connected(pf.graph(), 0.01, 3)
        .edges()
        .first()
        .expect("draw one safe link");
    let schedule = FaultSchedule::new().link_fault(u, v, 200, 600);
    let transient = pf.with_faults(schedule).unwrap();
    let tables = RouteTables::build_for(&transient, 11);
    let dests = resolve(
        TrafficPattern::Uniform,
        transient.graph(),
        &transient.host_routers(),
        11,
    );
    let geom = PortMap::build(transient.graph());
    let iu = transient.graph().neighbors(u).binary_search(&v).unwrap();
    let iv = transient.graph().neighbors(v).binary_search(&u).unwrap();
    let ports = [geom.downstream(u, iu), geom.downstream(v, iv)];

    let cfg = transient_cfg();
    let mut e = Engine::new(&transient, &tables, &dests, Routing::UgalPf, 0.3, cfg);
    for _ in 0..201 {
        e.step(); // cycles 0..=200: the death event has been applied
    }
    e.validate_flow_invariants();
    let at_death: Vec<u64> = ports.iter().map(|&p| e.link_flits[p as usize]).collect();
    while e.cycle() < 600 {
        e.step();
    }
    e.validate_flow_invariants();
    for (k, &p) in ports.iter().enumerate() {
        assert_eq!(
            e.link_flits[p as usize], at_death[k],
            "flits crossed link {u}-{v} while it was down"
        );
    }
    assert_eq!(e.down_link_flits(), 0);
    // After repair + re-convergence the link carries traffic again.
    while e.cycle() < 1400 {
        e.step();
    }
    e.validate_flow_invariants();
    assert!(
        ports
            .iter()
            .any(|&p| e.link_flits[p as usize] > at_death[0].max(at_death[1])),
        "repaired link {u}-{v} never carried traffic again"
    );
    assert!(e.table_swaps() >= 2, "fail + repair each re-converge");
    assert_eq!(e.diag_class_clamps, 0);
}

/// Cycle-0 windows of a transient schedule are already baked into the
/// initial tables: their down events "change" nothing, so no
/// re-convergence swap may fire. (The repair lands after the run, so the
/// fault machinery is live.)
#[test]
fn cycle_zero_windows_trigger_no_swap() {
    use pf_topo::SlimFly;
    let sf = SlimFly::new(5, 4).unwrap();
    let (u, v) = sf.graph().edges().next().unwrap();
    let baked = sf
        .with_faults(FaultSchedule::new().link_fault(u, v, 0, 1 << 20))
        .unwrap();
    assert!(baked.name().contains("~transient×1"));
    let curve = load_curve(
        &baked,
        Routing::Min,
        TrafficPattern::Uniform,
        &[0.2],
        &transient_cfg(),
    );
    assert_eq!(
        curve.points[0].table_swaps, 0,
        "spurious swap for cycle-0 state"
    );
    assert_eq!(curve.points[0].delivered, curve.points[0].generated);
}

/// Same seed, same schedule ⇒ bit-identical results, fault counters
/// included: the event queue, victim extraction, and staged swaps are
/// all deterministic.
#[test]
fn transient_runs_are_deterministic() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let schedule = FaultSchedule::sample_connected_links(pf.graph(), 0.06, 200, 180, 41);
    let transient = pf.with_faults(schedule).unwrap();
    let run = || {
        load_curve(
            &transient,
            Routing::UgalPf,
            TrafficPattern::Uniform,
            &[0.25],
            &transient_cfg(),
        )
    };
    let (a, b) = (run(), run());
    let (pa, pb) = (&a.points[0], &b.points[0]);
    assert_eq!(pa.generated, pb.generated);
    assert_eq!(pa.delivered, pb.delivered);
    assert_eq!(pa.dropped_flits, pb.dropped_flits);
    assert_eq!(pa.retransmitted_packets, pb.retransmitted_packets);
    assert_eq!(pa.table_swaps, pb.table_swaps);
    assert_eq!(pa.avg_latency.to_bits(), pb.avg_latency.to_bits());
}

/// An empty schedule must behave exactly like the healthy network (the
/// transient hooks add branches, not behavior).
#[test]
fn empty_schedule_matches_healthy_run() {
    let pf = PolarFlyTopo::new(5, 2).unwrap();
    let transient = pf.with_faults(FaultSchedule::new()).unwrap();
    let cfg = SimConfig::quick().vc_classes(8).seed(4);
    let healthy = load_curve(&pf, Routing::UgalPf, TrafficPattern::Uniform, &[0.4], &cfg);
    let faulted = load_curve(
        &transient,
        Routing::UgalPf,
        TrafficPattern::Uniform,
        &[0.4],
        &cfg,
    );
    let (h, f) = (&healthy.points[0], &faulted.points[0]);
    assert_eq!(h.generated, f.generated);
    assert_eq!(h.delivered, f.delivered);
    assert_eq!(h.avg_latency.to_bits(), f.avg_latency.to_bits());
    assert_eq!(f.table_swaps, 0);
    assert_eq!(f.dropped_flits, 0);
}

/// A link at a quadric of PF(7): its two endpoints share no 2-hop path
/// (the one vector orthogonal to both is the quadric itself), so losing
/// the link stretches the residual diameter to 4 — and Valiant to 8
/// hops, past a 4-class VC budget.
fn quadric_link(pf: &pf_topo::Topology) -> (u32, u32) {
    let u = pf.polarfly().unwrap().quadrics()[0];
    (u, pf.graph().neighbors(u)[0])
}

/// The VC-class budget is checked against the residual diameter at
/// construction when the link is down from cycle 0.
#[test]
#[should_panic(expected = "vc_classes >= 8")]
fn vc_budget_is_checked_for_a_link_down_at_cycle_0() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let (u, v) = quadric_link(&pf);
    let schedule = FaultSchedule::new().link_fault(u, v, 0, FaultSchedule::NEVER);
    let faulted = pf.with_faults(schedule).unwrap();
    let cfg = transient_cfg().vc_classes(4);
    load_curve(
        &faulted,
        Routing::Valiant,
        TrafficPattern::Uniform,
        &[0.1],
        &cfg,
    );
}

/// The same budget is re-checked when the tables re-converge after the
/// link dies mid-run (the construction-time check saw diameter 2).
#[test]
#[should_panic(expected = "vc_classes >= 8")]
fn vc_budget_is_checked_at_reconvergence() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let (u, v) = quadric_link(&pf);
    let schedule = FaultSchedule::new().link_fault(u, v, 50, FaultSchedule::NEVER);
    let faulted = pf.with_faults(schedule).unwrap();
    let cfg = transient_cfg().vc_classes(4);
    load_curve(
        &faulted,
        Routing::Valiant,
        TrafficPattern::Uniform,
        &[0.1],
        &cfg,
    );
}
