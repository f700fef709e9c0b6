//! The engine's fault masks against the schedule they realise: after
//! every executed cycle, the per-port `link_up` mask and the per-router
//! `router_up` mask equal the schedule's own state at that cycle.

use crate::traffic::TrafficPattern;
use crate::{Engine, Routing, SimConfig};
use pf_graph::FaultSchedule;
use pf_topo::PolarFlyTopo;

/// A cycle-0 link window, two touching windows on one link and a router
/// window, stepped under traffic: both directed ports of every link
/// follow `active_at`, and `router_up` follows `routers_down_at`.
#[test]
fn masks_follow_the_schedule_every_cycle() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let g = pf.graph();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let (a, b) = (edges[0], edges[40]);
    let router = (0..g.vertex_count() as u32)
        .find(|&r| ![a.0, a.1, b.0, b.1].contains(&r))
        .unwrap();
    let schedule = FaultSchedule::new()
        .link_fault(a.0, a.1, 0, 120)
        .link_fault(b.0, b.1, 100, 200)
        .link_fault(b.0, b.1, 200, 300)
        .router_fault(router, 150, 260);
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
        let routers_down: Vec<u32> = (0..g.vertex_count() as u32)
            .filter(|&r| !e.faults.router_up[r as usize])
            .collect();
        assert_eq!(routers_down, topo.faults().routers_down_at(c), "cycle {c}");
    }
    for c in [0, 100, 120, 150, 200, 260, 300] {
        assert!(executed.contains(&c), "event cycle {c} was leapt over");
    }
    assert!(e.retransmitted_packets() > 0, "no fault hit traffic");
}
