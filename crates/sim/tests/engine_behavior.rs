//! End-to-end behavior of the cycle engine (previously the `engine.rs`
//! unit tests): latency models, conservation, saturation, deadlock
//! freedom, and routing-dependent hop distributions.

mod common;

use pf_sim::engine::{simulate, Engine, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{Routing, WorkloadDriver};
use pf_topo::{PolarFlyTopo, Topology};
use pf_workload::{JobAssignment, WorkloadBuilder};

fn setup(q: u64, p: usize) -> (Topology, RouteTables) {
    let topo = PolarFlyTopo::new(q, p).unwrap();
    let tables = RouteTables::build(topo.graph(), 7);
    (topo, tables)
}

/// The single-packet latency law (DESIGN.md, "Single-packet latency
/// law"): an uncontended packet over `hops` hops is delivered
/// `hops·(link_latency + pipeline_delay) + packet_flits` cycles after
/// its birth, both ends counted — `3h + 4` at the defaults.
fn latency_law(cfg: &SimConfig, hops: f64) -> f64 {
    hops * f64::from(cfg.link_latency + cfg.pipeline_delay) + f64::from(cfg.packet_flits)
}

/// The law holds exactly for every ordered pair of PF q = 7, one packet
/// in flight per run (a one-message DAG), at the defaults and at a
/// non-default link/pipeline/packet configuration. Under MIN the hop
/// count comes from adjacency: 1 for orthogonal points, 2 otherwise.
/// Under Valiant (a seed per pair, so the intermediates vary) it is
/// whatever path the packet took, 1 to 4 hops: a first leg that crosses
/// the destination ejects there (DESIGN.md, "Deviations from BookSim"),
/// so some runs take one hop.
#[test]
fn single_packet_latency_law_is_exact_for_every_pair() {
    let (topo, tables) = setup(7, 4);
    let g = topo.graph();
    let dests = resolve(TrafficPattern::Uniform, g, &topo.host_routers(), 3);
    let n = topo.router_count() as u32;
    let other = SimConfig::default()
        .link_latency(2)
        .pipeline_delay(3)
        .packet_flits(2);
    for routing in [Routing::Min, Routing::Valiant] {
        for cfg in [SimConfig::default(), other.clone()] {
            let (mut pairs, mut one_hop_detours) = (0, 0);
            for s in 0..n {
                for d in (0..n).filter(|&d| d != s) {
                    let cfg = match routing {
                        Routing::Min => cfg.clone(),
                        _ => cfg.clone().seed(u64::from(s * n + d)),
                    };
                    let mut b = WorkloadBuilder::new("one packet", 2);
                    let send = b.task(0, 0, 0);
                    let msg = b.send(send, 1, u32::from(cfg.packet_flits));
                    let recv = b.task(1, 0, 1);
                    b.recv(recv, msg);
                    let job = JobAssignment {
                        workload: b.build(),
                        hosts: vec![s, d],
                    };
                    let driver = WorkloadDriver::new(&topo, vec![job], cfg.packet_flits).unwrap();
                    let mut e = Engine::new(&topo, &tables, &dests, routing, 0.0, cfg.clone());
                    e.attach_workload(driver);
                    let r = e.run_workload();
                    let label = format!("{} {s}->{d}", routing.label());
                    assert_eq!(r.delivered, 1, "{label}");
                    if routing == Routing::Min {
                        let hops = if g.has_edge(s, d) { 1.0 } else { 2.0 };
                        assert_eq!(r.avg_hops, hops, "{label}");
                    } else {
                        assert!(
                            (1.0..=4.0).contains(&r.avg_hops),
                            "{label}: {} hops",
                            r.avg_hops
                        );
                        one_hop_detours += u32::from(r.avg_hops == 1.0);
                    }
                    assert_eq!(r.avg_latency, latency_law(&cfg, r.avg_hops), "{label}");
                    pairs += 1;
                }
            }
            assert_eq!(pairs, 3192);
            if routing == Routing::Valiant {
                assert!(one_hop_detours > 0, "no first leg crossed its destination");
            }
        }
    }
}

#[test]
fn zero_load_latency_matches_pipeline_model() {
    let (topo, tables) = setup(7, 4);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let cfg = SimConfig::default()
        .warmup(200)
        .measure(800)
        .drain_max(1000);
    let r = simulate(&topo, &tables, &dests, Routing::Min, 0.02, cfg.clone());
    assert!(!r.saturated);
    assert_eq!(r.delivered, r.generated);
    // The law is linear in the hop count, so over the delivered packets
    // it predicts exactly `law(avg_hops)` without contention; contention
    // only adds cycles, and at load 0.02 less than one on average.
    let law = latency_law(&cfg, r.avg_hops);
    assert!(
        r.avg_latency >= law - 1e-9 && r.avg_latency <= law + 1.0,
        "latency {} vs law {law}",
        r.avg_latency
    );
    // ER_q has diameter 2: a uniform packet takes 1 hop to a neighbor of
    // its source and 2 to any other router, so the mean over router
    // pairs is 2 − 2|E|/(n(n − 1)) = 2 − (q + 1)/n (1.8596 at q = 7).
    // A packet's hop count is 1 or 2, so its standard deviation is at
    // most 0.5; allow 4 standard errors of the measured mean.
    let n = topo.router_count() as f64;
    let expect = 2.0 - 8.0 / n;
    let tol = 4.0 * 0.5 / (r.delivered as f64).sqrt();
    assert!(
        (r.avg_hops - expect).abs() <= tol,
        "hops {} vs {expect:.4} ± {tol:.4}",
        r.avg_hops
    );
    // Accepted ≈ offered below saturation.
    assert!((r.accepted_load - r.offered_load).abs() < 0.01);
}

#[test]
fn conservation_full_drain() {
    let (topo, tables) = setup(5, 2);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(200)
        .drain_max(2000)
        .gen_cutoff(300);
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.3, cfg);
    for _ in 0..2300 {
        e.step();
    }
    // After generation stops and a long drain, nothing is left in
    // flight and all packets were delivered.
    assert_eq!(e.flits_in_network(), 0);
    assert_eq!(e.total_delivered(), e.total_generated());
    assert_eq!(e.source_backlog(), 0);
    assert_eq!(e.active_streams(), 0);
}

#[test]
fn valiant_paths_are_longer_but_delivered() {
    let (topo, tables) = setup(7, 4);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let cfg = SimConfig::default()
        .warmup(200)
        .measure(600)
        .drain_max(1500);
    let min = simulate(&topo, &tables, &dests, Routing::Min, 0.05, cfg.clone());
    let val = simulate(&topo, &tables, &dests, Routing::Valiant, 0.05, cfg.clone());
    let cval = simulate(&topo, &tables, &dests, Routing::CompactValiant, 0.05, cfg);
    assert!(!val.saturated && !cval.saturated);
    assert!(
        val.avg_hops > min.avg_hops + 0.5,
        "valiant {} vs min {}",
        val.avg_hops,
        min.avg_hops
    );
    // Compact Valiant is capped at 3 hops, shorter than full Valiant.
    assert!(
        cval.avg_hops < val.avg_hops,
        "cval {} vs val {}",
        cval.avg_hops,
        val.avg_hops
    );
    assert!(cval.avg_hops <= 3.0);
}

#[test]
fn saturation_detected_at_overload_tornado_min() {
    // Tornado + deterministic min routing: every router's p endpoints
    // share one 2-hop path → saturation near 1/p of injection bw.
    let (topo, tables) = setup(7, 4);
    let dests = resolve(
        TrafficPattern::Tornado,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let cfg = SimConfig::default().warmup(300).measure(700).drain_max(800);
    let r = simulate(&topo, &tables, &dests, Routing::Min, 0.9, cfg);
    assert!(r.saturated, "tornado at 0.9 load with MIN must saturate");
    // Accepted throughput collapses to roughly 1/p = 0.25.
    assert!(r.accepted_load < 0.5, "accepted {}", r.accepted_load);
}

#[test]
fn ugal_beats_min_under_tornado() {
    let (topo, tables) = setup(7, 4);
    let dests = resolve(
        TrafficPattern::Tornado,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let cfg = SimConfig::default()
        .warmup(300)
        .measure(700)
        .drain_max(1000);
    let min = simulate(&topo, &tables, &dests, Routing::Min, 0.35, cfg.clone());
    let ugal = simulate(&topo, &tables, &dests, Routing::Ugal, 0.35, cfg);
    assert!(
        ugal.accepted_load > min.accepted_load + 0.05,
        "UGAL {} should beat MIN {} under tornado",
        ugal.accepted_load,
        min.accepted_load
    );
}

#[test]
fn fat_tree_nca_uniform_reaches_high_throughput() {
    let ft = pf_topo::FatTree::new(4);
    let tables = RouteTables::build(ft.graph(), 5);
    let dests = resolve(TrafficPattern::Uniform, ft.graph(), &ft.host_routers(), 3);
    let cfg = SimConfig::default()
        .warmup(300)
        .measure(700)
        .drain_max(1200);
    let r = simulate(&ft, &tables, &dests, Routing::MinAdaptive, 0.7, cfg);
    assert!(
        !r.saturated,
        "folded Clos with NCA must sustain 0.7 uniform load"
    );
    assert!((r.accepted_load - 0.7).abs() < 0.03);
}

#[test]
fn link_capacity_never_exceeded() {
    // No physical link may carry more than 1 flit/cycle.
    let (topo, tables) = setup(5, 3);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        4,
    );
    let cfg = SimConfig::default().warmup(0).measure(400).drain_max(0);
    let cycles = 400u64;
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.9, cfg);
    for _ in 0..cycles {
        e.step();
    }
    for &sent in &e.link_flits {
        assert!(sent <= cycles, "link sent {sent} flits in {cycles} cycles");
    }
}

#[test]
fn ejection_bandwidth_caps_accepted_load() {
    // Accepted throughput can never exceed 1.0 of endpoint bandwidth.
    let (topo, tables) = setup(5, 2);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        4,
    );
    let r = simulate(
        &topo,
        &tables,
        &dests,
        Routing::Min,
        1.0,
        SimConfig::quick(),
    );
    assert!(r.accepted_load <= 1.0 + 1e-9);
    assert!(r.accepted_load > 0.3);
}

#[test]
fn valiant_overload_does_not_deadlock() {
    // Saturated Valiant traffic keeps making progress (hop-class VCs
    // are acyclic): after generation stops, everything drains.
    let (topo, tables) = setup(5, 3);
    let dests = resolve(
        TrafficPattern::Tornado,
        topo.graph(),
        &topo.host_routers(),
        4,
    );
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(300)
        .drain_max(8000)
        .gen_cutoff(400);
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Valiant, 1.0, cfg);
    for _ in 0..9000 {
        e.step();
    }
    assert_eq!(
        e.flits_in_network(),
        0,
        "flits stuck after drain: deadlock?"
    );
}

#[test]
fn latency_rises_monotonically_with_load() {
    let (topo, tables) = setup(7, 4);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        4,
    );
    let cfg = SimConfig::default().warmup(300).measure(600).drain_max(800);
    let mut last = 0.0;
    for load in [0.1, 0.4, 0.7] {
        let r = simulate(&topo, &tables, &dests, Routing::Min, load, cfg.clone());
        assert!(r.avg_latency >= last - 0.5, "latency dipped at load {load}");
        last = r.avg_latency;
    }
}

#[test]
fn min_routing_never_exceeds_two_hops_on_polarfly() {
    let (topo, tables) = setup(7, 2);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        4,
    );
    let r = simulate(
        &topo,
        &tables,
        &dests,
        Routing::Min,
        0.2,
        SimConfig::quick(),
    );
    assert!(r.avg_hops <= 2.0 + 1e-9);
    assert!(r.avg_hops >= 1.0);
}

#[test]
fn compact_valiant_hops_bounded_by_three() {
    let (topo, tables) = setup(7, 2);
    let dests = resolve(
        TrafficPattern::RandomPermutation,
        topo.graph(),
        &topo.host_routers(),
        4,
    );
    let r = simulate(
        &topo,
        &tables,
        &dests,
        Routing::CompactValiant,
        0.15,
        SimConfig::quick(),
    );
    assert!(r.avg_hops <= 3.0 + 1e-9, "hops {}", r.avg_hops);
}

#[test]
fn hop_counts_respect_vc_bound() {
    let (topo, tables) = setup(5, 2);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        1,
    );
    let r = simulate(
        &topo,
        &tables,
        &dests,
        Routing::Valiant,
        0.1,
        SimConfig::quick(),
    );
    assert!(r.avg_hops <= 4.0);
    assert!(r.delivered > 0);
}

/// The per-port VC occupancy mask is one `u32`: an engine that would
/// allocate more than 32 VCs per port (9 per class × Valiant's 4 hop
/// classes = 36) refuses to build.
#[test]
#[should_panic(expected = "36 allocated VCs per port exceed the 32-VC ceiling")]
fn more_than_32_vcs_per_port_are_refused() {
    let (topo, tables) = setup(5, 2);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        1,
    );
    let cfg = SimConfig::quick().vcs_per_class(9);
    Engine::new(&topo, &tables, &dests, Routing::Valiant, 0.1, cfg);
}

/// `load_curve` fans its load points out over Rayon workers — the one
/// multi-core path. Each point must be the run `simulate` produces on
/// its own, whatever order or thread the points execute on.
#[test]
fn load_curve_points_equal_one_at_a_time_runs() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::quick().seed(5);
    let loads = [0.1, 0.3, 0.5, 0.7];
    for routing in [Routing::Min, Routing::UgalPf] {
        let curve = pf_sim::load_curve(&topo, routing, TrafficPattern::Uniform, &loads, &cfg);
        assert_eq!(curve.points.len(), loads.len());
        let tables = RouteTables::build(topo.graph(), cfg.seed);
        let dests = resolve(
            TrafficPattern::Uniform,
            topo.graph(),
            &topo.host_routers(),
            cfg.seed,
        );
        for (point, &load) in curve.points.iter().zip(&loads) {
            let alone = simulate(&topo, &tables, &dests, routing, load, cfg.clone());
            assert!(alone.delivered > 0, "vacuous load point {load}");
            let label = format!("{} load {load}", routing.label());
            common::assert_bit_identical(point, &alone, &label);
        }
    }
}
