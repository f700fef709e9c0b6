//! End-to-end routing and simulation tests across crates: algebraic
//! routing agrees with BFS tables, and the flit-level simulator reproduces
//! the paper's qualitative behaviours on small instances.

use pf_sim::engine::{simulate, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::Routing;
use pf_topo::{FatTree, PolarFlyTopo};
use polarfly::routing::next_hop_minimal;
use polarfly::PolarFly;

fn quick_cfg() -> SimConfig {
    SimConfig::default().warmup(200).measure(500).drain_max(900)
}

#[test]
fn algebraic_routing_agrees_with_bfs_tables() {
    let pf = PolarFly::new(9).unwrap();
    let bfs_tables = RouteTables::build(pf.graph(), 3);
    for s in 0..pf.router_count() as u32 {
        for d in 0..pf.router_count() as u32 {
            if s == d {
                continue;
            }
            // Unique minimal paths in ER_q: the algebra and the seeded
            // BFS table must agree exactly.
            assert_eq!(
                next_hop_minimal(&pf, s, d),
                bfs_tables.next_hop(s, d),
                "{s}->{d}"
            );
        }
    }
}

#[test]
fn uniform_min_delivers_at_moderate_load() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        2,
    );
    let r = simulate(&topo, &tables, &dests, Routing::Min, 0.4, quick_cfg());
    assert!(!r.saturated);
    assert_eq!(r.delivered, r.generated);
    assert!(
        (r.accepted_load - 0.4).abs() < 0.03,
        "accepted {}",
        r.accepted_load
    );
    assert!(r.avg_hops <= 2.0);
}

#[test]
fn permutation_collapses_min_to_one_over_p() {
    // §VIII-B: under permutations, min-path direct networks cap at 1/p.
    let p = 4usize;
    let topo = PolarFlyTopo::new(7, p).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let dests = resolve(
        TrafficPattern::RandomPermutation,
        topo.graph(),
        &topo.host_routers(),
        2,
    );
    let r = simulate(&topo, &tables, &dests, Routing::Min, 0.9, quick_cfg());
    let bound = 1.0 / p as f64;
    assert!(
        r.accepted_load < bound * 1.4,
        "accepted {} should be near 1/p = {bound}",
        r.accepted_load
    );
}

#[test]
fn adaptive_routing_recovers_permutation_throughput() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let dests = resolve(
        TrafficPattern::RandomPermutation,
        topo.graph(),
        &topo.host_routers(),
        2,
    );
    let min = simulate(&topo, &tables, &dests, Routing::Min, 0.5, quick_cfg());
    let ugal = simulate(&topo, &tables, &dests, Routing::Ugal, 0.5, quick_cfg());
    let ugal_pf = simulate(&topo, &tables, &dests, Routing::UgalPf, 0.5, quick_cfg());
    assert!(
        ugal.accepted_load > 1.5 * min.accepted_load,
        "UGAL {} vs MIN {}",
        ugal.accepted_load,
        min.accepted_load
    );
    assert!(
        ugal_pf.accepted_load > 1.5 * min.accepted_load,
        "UGAL-PF {} vs MIN {}",
        ugal_pf.accepted_load,
        min.accepted_load
    );
}

#[test]
fn ugal_pf_matches_min_at_low_uniform_load() {
    // §VIII-B: UGAL-PF stays on minimal paths until the threshold bites, so
    // its low-load latency matches MIN.
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        2,
    );
    let min = simulate(&topo, &tables, &dests, Routing::Min, 0.15, quick_cfg());
    let upf = simulate(&topo, &tables, &dests, Routing::UgalPf, 0.15, quick_cfg());
    assert!((min.avg_latency - upf.avg_latency).abs() < 1.0);
    assert!((min.avg_hops - upf.avg_hops).abs() < 0.05);
}

#[test]
fn fat_tree_nca_is_permutation_insensitive() {
    // §X: "fat trees are almost insensitive to the type of permutation".
    let ft = FatTree::new(4);
    let tables = RouteTables::build(ft.graph(), 1);
    let uni = resolve(TrafficPattern::Uniform, ft.graph(), &ft.host_routers(), 2);
    let perm = resolve(
        TrafficPattern::RandomPermutation,
        ft.graph(),
        &ft.host_routers(),
        2,
    );
    let r_uni = simulate(&ft, &tables, &uni, Routing::MinAdaptive, 0.5, quick_cfg());
    let r_perm = simulate(&ft, &tables, &perm, Routing::MinAdaptive, 0.5, quick_cfg());
    assert!(!r_uni.saturated && !r_perm.saturated);
    assert!(
        (r_uni.accepted_load - r_perm.accepted_load).abs() < 0.08,
        "uniform {} vs permutation {}",
        r_uni.accepted_load,
        r_perm.accepted_load
    );
}

#[test]
fn perm1hop_and_perm2hop_have_exact_min_path_lengths() {
    let topo = PolarFlyTopo::new(7, 2).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    for (pattern, hops) in [
        (TrafficPattern::Perm1Hop, 1.0),
        (TrafficPattern::Perm2Hop, 2.0),
    ] {
        let dests = resolve(pattern, topo.graph(), &topo.host_routers(), 5);
        let r = simulate(&topo, &tables, &dests, Routing::Min, 0.1, quick_cfg());
        assert!(!r.saturated);
        assert!(
            (r.avg_hops - hops).abs() < 1e-9,
            "{pattern:?}: hops {}",
            r.avg_hops
        );
    }
}

#[test]
fn simulation_is_deterministic_in_seed() {
    let topo = PolarFlyTopo::new(5, 2).unwrap();
    let tables = RouteTables::build(topo.graph(), 9);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        9,
    );
    let a = simulate(&topo, &tables, &dests, Routing::Ugal, 0.3, quick_cfg());
    let b = simulate(&topo, &tables, &dests, Routing::Ugal, 0.3, quick_cfg());
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.avg_latency, b.avg_latency);
}
