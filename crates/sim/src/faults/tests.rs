//! The engine's fault state against the schedule it realises: after
//! every executed cycle, the per-port `link_up` mask equals the
//! schedule's own state at that cycle, and the tables the engine routes
//! by reach every router pair.

use crate::traffic::TrafficPattern;
use crate::{Engine, Routing, SimConfig};
use pf_graph::FaultSchedule;
use pf_topo::{PolarFlyTopo, SlimFly};

/// A cycle-0 link window and two touching windows on one link, stepped
/// under traffic: both directed ports of every link follow `active_at`.
#[test]
fn masks_follow_the_schedule_every_cycle() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let g = pf.graph();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let (a, b) = (edges[0], edges[40]);
    let schedule = FaultSchedule::new()
        .link_fault(a.0, a.1, 0, 120)
        .link_fault(b.0, b.1, 100, 200)
        .link_fault(b.0, b.1, 200, 300);
    let topo = pf.with_faults(schedule).unwrap();
    let cfg = SimConfig::default()
        .vc_classes(8)
        .convergence_delay(50)
        .seed(5);
    let (tables, dests) = crate::sweep::resolve_run(&topo, TrafficPattern::Uniform, cfg.seed);
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.2, cfg);
    assert!(e.transient);
    let mut executed = Vec::new();
    while e.cycle() < 400 {
        e.step();
        let c = e.cycle() - 1;
        executed.push(c);
        let down = topo.faults().active_at(g, c);
        for u in 0..g.vertex_count() as u32 {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let port = e.geom.tx(u, i) as usize;
                assert_eq!(
                    e.link_up[port],
                    !down.contains(u, v),
                    "cycle {c}: link {u}->{v}"
                );
            }
        }
    }
    for c in [0, 100, 120, 200, 300] {
        assert!(executed.contains(&c), "event cycle {c} was leapt over");
    }
    assert!(e.retransmitted_packets() > 0, "no fault hit traffic");
}

/// `FaultSchedule::validate` keeps every fault state connected, so the
/// serving tables — and the pending fast-reroute tables while a
/// re-convergence is staged — route every pair at every cycle. This is
/// why the engine filters neither detour intermediates nor injections
/// on reachability.
#[test]
fn every_table_routes_every_pair_every_cycle() {
    let topos = [
        PolarFlyTopo::new(7, 4).unwrap(),
        SlimFly::new(5, 4).unwrap(),
    ];
    let cfg = SimConfig::default()
        .vc_classes(8)
        .convergence_delay(40)
        .seed(3);
    for healthy in &topos {
        let g = healthy.graph();
        let n = g.vertex_count() as u32;
        let schedule = FaultSchedule::sample_connected_links(g, 0.1, 300, 150, 13);
        let topo = healthy.with_faults(schedule).unwrap();
        let (tables, dests) = crate::sweep::resolve_run(&topo, TrafficPattern::Uniform, cfg.seed);
        for routing in [Routing::CompactValiant, Routing::UgalPf] {
            let mut e = Engine::new(&topo, &tables, &dests, routing, 0.3, cfg.clone());
            assert!(e.transient);
            let mut pending_seen = 0;
            while e.cycle() < 600 {
                e.step();
                let c = e.cycle() - 1;
                let pending = e.faults.pending_tables.as_ref();
                pending_seen += usize::from(pending.is_some());
                for t in std::iter::once(&*e.tables).chain(pending) {
                    for s in 0..n {
                        for d in (0..n).filter(|&d| d != s) {
                            assert!(
                                t.port(s, d).is_some(),
                                "{} {}: cycle {c}: no port {s} -> {d}",
                                topo.name(),
                                routing.label()
                            );
                        }
                    }
                }
            }
            let what = format!("{} {}", topo.name(), routing.label());
            assert!(e.table_swaps() > 0, "{what}: no re-convergence");
            assert!(pending_seen > 0, "{what}: no staged tables");
        }
    }
}
