//! Static link failures, end to end: a failure set is the fault schedule
//! whose link windows open at cycle 0 and never repair
//! ([`FaultSchedule::from_failures`]). A PolarFly degraded that way must
//! deliver every packet below saturation on a connected residual
//! network, the table's minimal port must stay *residual*-minimal,
//! and no flit may ever traverse a failed link — under any routing
//! algorithm. The engine runs such a schedule without fault control: no
//! table swap, nothing dropped.

mod common;

use common::assert_bit_identical;
use pf_graph::{bfs, Csr, FailureSet, FaultSchedule};
use pf_sim::engine::Engine;
use pf_sim::router::PortMap;
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{load_curve, simulate, HopContext, NetState, Routing, SimConfig};
use pf_topo::{named, GraphTopo, PolarFlyTopo, Topology};
use polarfly::routing::next_hop_minimal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Residual minimal paths can exceed the healthy diameter of 2 and the
/// adaptive detours add more: 8 hop-indexed VC classes keep every path of
/// the degraded runs deadlock-free (the `vc_classes = 4` default covers
/// only the healthy ≤ 4-hop routes).
fn degraded_cfg() -> SimConfig {
    SimConfig::quick().vc_classes(8).seed(11)
}

/// `inner` with `failures` down from cycle 0, never repaired.
fn degrade(inner: &Topology, failures: &FailureSet) -> Topology {
    let schedule = FaultSchedule::from_failures(failures);
    assert!(schedule.is_static(inner.graph()));
    inner.with_faults(schedule).unwrap()
}

/// Per-port liveness mask for a failure set, built the same way the
/// engine derives it (both directions of an undirected link go down).
fn mask_for(g: &pf_graph::Csr, geom: &PortMap, failures: &FailureSet) -> Vec<bool> {
    let mut link_up = vec![true; geom.num_ports()];
    for &(u, v) in failures.edges() {
        let iu = g.neighbors(u).binary_search(&v).unwrap();
        link_up[geom.downstream(u, iu) as usize] = false;
        let iv = g.neighbors(v).binary_search(&u).unwrap();
        link_up[geom.downstream(v, iv) as usize] = false;
    }
    link_up
}

#[test]
fn degraded_pf_delivers_everything_below_saturation() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    for ratio in [0.05, 0.10] {
        let failures = FailureSet::sample_connected(pf.graph(), ratio, 23);
        assert!(!failures.is_empty());
        let degraded = degrade(&pf, &failures);
        let tables = RouteTables::build_for(&degraded, 11);
        let dests = resolve(
            TrafficPattern::Uniform,
            &failures.residual(pf.graph()),
            &degraded.host_routers(),
            11,
        );
        for routing in [Routing::Min, Routing::MinAdaptive, Routing::UgalPf] {
            let r = simulate(&degraded, &tables, &dests, routing, 0.2, degraded_cfg());
            assert!(
                !r.saturated,
                "{} at ratio {ratio} saturated at load 0.2",
                routing.label()
            );
            assert_eq!(
                r.delivered,
                r.generated,
                "{} at ratio {ratio}: delivery ratio < 1.0 pre-saturation",
                routing.label()
            );
            assert!(r.avg_latency > 0.0);
            assert_eq!(r.down_link_flits, 0, "{}", routing.label());
            assert_eq!(r.vc_class_clamps, 0, "{}", routing.label());
            assert_eq!(
                r.table_swaps,
                0,
                "{}: a static set re-converged",
                routing.label()
            );
            assert_eq!(r.dropped_flits + r.retransmitted_packets, 0);
        }
    }
}

#[test]
fn degraded_table_port_is_residual_minimal() {
    let pf = PolarFlyTopo::new(9, 5).unwrap();
    let failures = FailureSet::sample_connected(pf.graph(), 0.08, 5);
    let degraded = degrade(&pf, &failures);
    let tables = RouteTables::build_for(&degraded, 3);
    let geom = PortMap::build(degraded.graph());
    let link_up = mask_for(degraded.graph(), &geom, &failures);
    let cfg = SimConfig::default();
    let credits = vec![cfg.cap_per_vc() as u16; geom.num_ports() * cfg.vcs()];
    let inj_wait = vec![0u32; geom.num_ports()];

    let net = NetState {
        tables: &tables,
        graph: degraded.graph(),
        geom: &geom,
        link_up: &link_up,
        degraded: true,
        credits: &credits,
        inj_wait: &inj_wait,
        vcs: cfg.vcs(),
        per_class: usize::from(cfg.vcs_per_class),
        cap_per_vc: cfg.cap_per_vc(),
        packet_flits: cfg.packet_flits,
        ugal_pf_threshold: cfg.ugal_pf_threshold,
    };

    let residual = failures.residual(pf.graph());
    let pf_alg = pf.polarfly().unwrap();
    let n = degraded.router_count() as u32;
    let mut rng = StdRng::seed_from_u64(1);
    let mut healthy_hop_down = 0u32;
    for d in 0..n {
        // The scalar queue BFS, not the kernel the tables are built on;
        // distances are symmetric, so one BFS from `d` gives every
        // distance to it.
        let to_d = bfs::bfs_distances(&residual, d);
        for s in 0..n {
            if s == d {
                continue;
            }
            let hop = HopContext {
                router: s,
                target: d,
            };
            let port = Routing::Min.next_output(&net, hop, &mut rng);
            assert!(
                net.link_ok(s, port as usize),
                "{s}->{d}: port {port} rides a failed link"
            );
            let next = degraded.graph().neighbors(s)[port as usize];
            assert_eq!(next, tables.next_hop(s, d), "{s}->{d}");
            assert_eq!(
                u32::from(to_d[next as usize]),
                u32::from(to_d[s as usize]) - 1,
                "{s}->{d}: table next hop {next} is not residual-minimal"
            );
            let healthy = next_hop_minimal(pf_alg, s, d);
            if !residual.has_edge(s, healthy) || (healthy != d && !residual.has_edge(healthy, d)) {
                healthy_hop_down += 1;
            }
        }
    }
    // The draw actually took down links on healthy minimal paths.
    assert!(
        healthy_hop_down > 0,
        "failure draw left every healthy minimal path up"
    );
}

/// Tables built on the residual graph index its shorter rows, not the
/// engine's ports: the engine refuses them instead of misrouting.
#[test]
#[should_panic(expected = "physical graph's rows")]
fn residual_indexed_tables_are_refused() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let failures = FailureSet::sample_connected(pf.graph(), 0.05, 23);
    let degraded = degrade(&pf, &failures);
    let tables = RouteTables::build(&failures.residual(pf.graph()), 11);
    let dests = resolve(TrafficPattern::Uniform, pf.graph(), &pf.host_routers(), 11);
    Engine::new(
        &degraded,
        &tables,
        &dests,
        Routing::Min,
        0.1,
        degraded_cfg(),
    );
}

/// Tables of another graph with the same router and link counts — the
/// Petersen graph's on the 5-prism, both 10 routers and 15 links — would
/// read every hop as a wrong port: the engine refuses them too.
#[test]
#[should_panic(expected = "physical graph's rows")]
fn tables_of_another_graph_of_the_same_size_are_refused() {
    let edges = (0..5u32)
        .flat_map(|i| [(i, (i + 1) % 5), (i + 5, (i + 1) % 5 + 5), (i, i + 5)])
        .collect();
    let prism = GraphTopo::new("prism5", Csr::from_edges(10, edges), 1);
    let petersen = named::petersen();
    assert_eq!(
        (petersen.vertex_count(), petersen.edge_count()),
        (10, prism.graph().edge_count())
    );
    let tables = RouteTables::build(&petersen, 11);
    let dests = resolve(
        TrafficPattern::Uniform,
        prism.graph(),
        &prism.host_routers(),
        11,
    );
    Engine::new(&prism, &tables, &dests, Routing::Min, 0.1, degraded_cfg());
}

#[test]
fn no_flit_ever_crosses_a_failed_link() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let failures = FailureSet::sample_connected(pf.graph(), 0.1, 99);
    let degraded = degrade(&pf, &failures);
    let tables = RouteTables::build_for(&degraded, 11);
    let dests = resolve(
        TrafficPattern::Uniform,
        &failures.residual(pf.graph()),
        &degraded.host_routers(),
        11,
    );
    let geom = PortMap::build(degraded.graph());
    for routing in Routing::all() {
        let mut e = Engine::new(&degraded, &tables, &dests, routing, 0.3, degraded_cfg());
        for _ in 0..800 {
            e.step();
        }
        e.validate_flow_invariants();
        assert!(
            e.total_delivered() > 0,
            "{} delivered nothing",
            routing.label()
        );
        for &(u, v) in failures.edges() {
            let iu = degraded.graph().neighbors(u).binary_search(&v).unwrap();
            let iv = degraded.graph().neighbors(v).binary_search(&u).unwrap();
            for port in [geom.downstream(u, iu), geom.downstream(v, iv)] {
                assert_eq!(
                    e.link_flits[port as usize],
                    0,
                    "{}: flits crossed failed link {u}-{v}",
                    routing.label()
                );
            }
        }
        assert_eq!(e.down_link_flits(), 0, "{}", routing.label());
        assert_eq!(
            e.table_swaps(),
            0,
            "{}: a static set re-converged",
            routing.label()
        );
    }
}

#[test]
fn load_curve_runs_on_degraded_topologies() {
    let pf = PolarFlyTopo::new(5, 2).unwrap();
    let failures = FailureSet::sample_connected(pf.graph(), 0.1, 1);
    let degraded = degrade(&pf, &failures);
    let curve = load_curve(
        &degraded,
        Routing::Min,
        TrafficPattern::Uniform,
        &[0.1, 0.3],
        &degraded_cfg(),
    );
    assert!(curve.topology.contains("!f"), "name: {}", curve.topology);
    for p in &curve.points {
        assert!(!p.saturated);
        assert_eq!(p.delivered, p.generated);
    }
    assert!(curve.zero_load_latency() > 0.0);
}

/// An empty failure set is the empty schedule, and runs bit for bit like
/// the healthy network under the `!f0.0%` name a 0 % resilience point
/// prints.
#[test]
fn empty_failure_set_behaves_exactly_like_the_healthy_network() {
    let pf = PolarFlyTopo::new(5, 2).unwrap();
    let degraded = degrade(&pf, &FailureSet::empty());
    assert_eq!(degraded.faults(), &FaultSchedule::new());
    assert_eq!(degraded.name(), "PF(q=5,p=2)!f0.0%");
    let cfg = SimConfig::quick().seed(4);
    let healthy_tables = RouteTables::build_for(&pf, 4);
    let degraded_tables = RouteTables::build_for(&degraded, 4);
    let hosts = pf.host_routers();
    let dests = resolve(TrafficPattern::Uniform, pf.graph(), &hosts, 4);
    let a = simulate(
        &pf,
        &healthy_tables,
        &dests,
        Routing::UgalPf,
        0.4,
        cfg.clone(),
    );
    let b = simulate(
        &degraded,
        &degraded_tables,
        &dests,
        Routing::UgalPf,
        0.4,
        cfg,
    );
    assert!(b.delivered > 0);
    assert_bit_identical(&a, &b, "empty failure set");
    assert_eq!(a.skipped_router_cycles, b.skipped_router_cycles);
}
