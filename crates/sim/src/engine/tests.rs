//! The VC class budget: an engine allocates per-queue state only for the
//! hop classes its routing can reach (`min(vc_classes,
//! max_hops(diameter))`, the configured budget when a fault event can
//! still fire after cycle 0), and that changes nothing it simulates —
//! MIN on ER_q runs bit-identically on half the queues.
//!
//! Every [`Routing`] declares a bound its paths keep
//! (`tests/hop_certificate.rs`), so the one way to build an engine whose
//! declaration differs from its routes is this suite's override of the
//! declared bound ([`declaring`]), read where `Engine::new` computes it.
#![expect(
    clippy::disallowed_types,
    reason = "the override is a per-test-thread `Cell`; no engine state is written through it"
)]

use crate::common::assert_bit_identical;
use crate::tables::RouteTables;
use crate::traffic::{resolve, DestMap, TrafficPattern};
use crate::{Engine, FlitRings, Routing, SimConfig, SimResult};
use pf_graph::{FailureSet, FaultSchedule};
use pf_topo::{PolarFlyTopo, Topology};
use std::cell::Cell;

thread_local! {
    /// The hop bound engines built on this thread declare instead of
    /// their routing's `max_hops` (`None`: their routing's own).
    static DECLARED_HOPS: Cell<Option<u32>> = const { Cell::new(None) };
}

/// The overriding hop bound of an engine built on this thread, if any.
pub(super) fn declared_hops() -> Option<u32> {
    DECLARED_HOPS.with(Cell::get)
}

/// Runs `build` with every engine it constructs declaring `hops`
/// (`None`: the routing's own bound).
fn declaring<T>(hops: Option<u32>, build: impl FnOnce() -> T) -> T {
    DECLARED_HOPS.with(|d| d.set(hops));
    let built = build();
    DECLARED_HOPS.with(|d| d.set(None));
    built
}

fn uniform(topo: &Topology, seed: u64) -> (RouteTables, DestMap) {
    let tables = RouteTables::build_for(topo, seed);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        seed,
    );
    (tables, dests)
}

/// What an idle engine's flit store costs with `classes` hop classes
/// allocated on every port of `topo`.
fn idle_bytes(topo: &Topology, cfg: &SimConfig, classes: usize) -> usize {
    let ports = 2 * topo.graph().edge_count();
    let vcs = classes * usize::from(cfg.vcs_per_class);
    FlitRings::new(ports, vcs, cfg.cap_per_vc()).resident_bytes()
}

/// MIN on two classes against MIN declaring a full Valiant detour (all
/// four), on PF(7) and PF(13), at a moderate and a heavy load: every
/// simulated field, the skip accounting, the epoch series and the
/// sampled traces (whose VC-buffer ids stay in the configured numbering)
/// are identical.
#[test]
fn min_on_reachable_classes_matches_min_on_all() {
    let cfg = SimConfig::default()
        .warmup(200)
        .measure(400)
        .drain_max(800)
        .seed(5)
        .telemetry_interval(64)
        .trace_sample(8);
    for (q, p) in [(7, 4), (13, 7)] {
        let topo = PolarFlyTopo::new(q, p).unwrap();
        let (tables, dests) = uniform(&topo, cfg.seed);
        for load in [0.3, 0.9] {
            let run = |hops| -> (usize, SimResult) {
                let e = declaring(hops, || {
                    Engine::new(&topo, &tables, &dests, Routing::Min, load, cfg.clone())
                });
                (e.flit_rings().resident_bytes(), e.run())
            };
            let (two, a) = run(None);
            let (four, b) = run(Some(4));
            let label = format!("PF({q}) load {load}");
            assert_eq!(two, idle_bytes(&topo, &cfg, 2), "{label}: MIN allocation");
            assert_eq!(
                four,
                idle_bytes(&topo, &cfg, 4),
                "{label}: 4-class allocation"
            );
            assert!(a.delivered > 0, "{label}: vacuous run");
            assert_bit_identical(&a, &b, &label);
            assert_eq!(
                a.skipped_router_cycles, b.skipped_router_cycles,
                "{label}: skipped_router_cycles"
            );
            let (ta, tb) = (a.telemetry.unwrap(), b.telemetry.unwrap());
            assert!(!ta.epochs.is_empty() && !ta.traces.is_empty());
            assert_eq!(ta.epochs, tb.epochs, "{label}: epochs");
            assert_eq!(ta.traces, tb.traces, "{label}: traces");
        }
    }
}

/// An idle MIN engine's flit store is exactly half of UGAL-PF's: two of
/// the four hop classes.
#[test]
fn min_allocates_half_of_ugal_pf() {
    let topo = PolarFlyTopo::new(13, 7).unwrap();
    let (tables, dests) = uniform(&topo, 1);
    let bytes = |routing| {
        Engine::new(&topo, &tables, &dests, routing, 0.3, SimConfig::quick())
            .flit_rings()
            .resident_bytes()
    };
    let (min, ugal_pf) = (bytes(Routing::Min), bytes(Routing::UgalPf));
    assert!(min > 0);
    assert_eq!(2 * min, ugal_pf);
}

/// One rule sizes the VC state from the fault schedule: when no event
/// can fire after cycle 0, an engine allocates the classes its routes
/// reach at the residual diameter; otherwise it keeps the configured
/// budget, because re-convergence can lengthen paths mid-run. Three inputs to MIN at `vc_classes(8)`: a
/// static 10 % failure set (the residual need), the same set plus one
/// later blip (all 8), and the healthy network (2).
#[test]
fn degraded_min_allocates_the_residual_need() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let g = pf.graph();
    let cfg = SimConfig::quick().vc_classes(8).seed(11);
    let failures = FailureSet::sample_connected(g, 0.1, 99);
    let need = RouteTables::build(&failures.residual(g), cfg.seed).max_finite_dist() as usize;
    assert!(need > 2 && need < 8, "residual diameter {need}");
    let static_set = FaultSchedule::from_failures(&failures);
    let (u, v) = g.edges().find(|&(u, v)| !failures.contains(u, v)).unwrap();
    let blip = static_set.clone().link_fault(u, v, 400, 500);
    let static_topo = pf.with_faults(static_set).unwrap();
    let blip_topo = pf.with_faults(blip).unwrap();
    let inputs: [(&Topology, usize); 3] = [(&static_topo, need), (&blip_topo, 8), (&pf, 2)];
    for (topo, classes) in inputs {
        let label = topo.name();
        let (tables, dests) = uniform(topo, cfg.seed);
        let e = Engine::new(topo, &tables, &dests, Routing::Min, 0.2, cfg.clone());
        assert_eq!(
            e.flit_rings().resident_bytes(),
            idle_bytes(topo, &cfg, classes),
            "{label}: allocated classes"
        );
        let r = e.run();
        assert!(
            !r.saturated && r.delivered == r.generated && r.delivered > 0,
            "{label}"
        );
        assert_eq!(r.vc_class_clamps, 0, "{label}");
    }
}

/// Compact Valiant declaring MIN's bound (2) while its non-adjacent
/// pairs take 3 hops: the third hop clamps into the top allocated class
/// — counted, and never a claim on another port's queues. The credit,
/// buffer and ownership invariants hold throughout, and the network
/// drains.
#[test]
fn underdeclared_hops_clamp_inside_their_port() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(300)
        .drain_max(3000)
        .gen_cutoff(400)
        .seed(3);
    let (tables, dests) = uniform(&topo, cfg.seed);
    let mut e = declaring(Some(2), || {
        Engine::new(
            &topo,
            &tables,
            &dests,
            Routing::CompactValiant,
            0.3,
            cfg.clone(),
        )
    });
    assert_eq!(e.flit_rings().resident_bytes(), idle_bytes(&topo, &cfg, 2));
    for cycle in 0..3400 {
        e.step();
        if cycle % 17 == 0 {
            e.validate_flow_invariants();
        }
    }
    e.validate_flow_invariants();
    assert!(e.diag_class_clamps > 0, "no path outran the declaration");
    assert_eq!(e.flits_in_network(), 0, "network did not drain");
    assert_eq!(e.source_backlog(), 0);
    assert_eq!(e.total_delivered(), e.total_generated());
}
