//! Integration tests for the analysis extensions: spectral expansion of
//! ER_q, the bipartite/quotient construction, the orthogonal-group
//! machinery, and the fluid capacity model against the cycle engine.

use pf_graph::spectral::spectrum;
use pf_sim::analytic::analyze;
use pf_sim::engine::{simulate, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::Routing;
use pf_topo::{PolarFlyTopo, SlimFly, Topology};
use polarfly::automorphism::{standard_generators, vertex_permutation};
use polarfly::bipartite::{quotient_equals_er, IncidenceGraph};
use polarfly::PolarFly;

#[test]
fn er_q_second_eigenvalue_is_sqrt_q() {
    // ER_q adjacency spectrum: q+1 (once), ±√q — a near-optimal expander,
    // the root cause of Fig. 12's bisection and Fig. 14's resilience.
    for q in [9u64, 13, 17] {
        let pf = PolarFly::new(q).unwrap();
        let s = spectrum(pf.graph(), 500, 7);
        // ER_q is not exactly regular (quadrics have degree q), so the
        // Perron value sits just below q+1.
        assert!(
            s.lambda1 > q as f64 && s.lambda1 <= q as f64 + 1.0 + 1e-6,
            "q={q} λ1={}",
            s.lambda1
        );
        // With the quadric self-loops dropped, the ±√q eigenvalues of the
        // looped polarity graph are perturbed by at most 1 (interlacing).
        assert!(
            (s.lambda2_abs - (q as f64).sqrt()).abs() <= 1.0,
            "q={q} λ2={} want √q±1={}",
            s.lambda2_abs,
            (q as f64).sqrt()
        );
        assert!(s.is_ramanujan(), "ER_{q} must beat the Ramanujan bound");
    }
}

#[test]
fn polarfly_spectral_gap_beats_slimfly() {
    // Same-scale comparison: PF q=13 (183 routers, k=14) vs SF q=9
    // (162 routers, k=13): PF's normalized gap λ₂/k is smaller.
    let pf = PolarFly::new(13).unwrap();
    let sf = SlimFly::new(9, 1).unwrap();
    let s_pf = spectrum(pf.graph(), 500, 3);
    let s_sf = spectrum(sf.graph(), 500, 3);
    assert!(
        s_pf.lambda2_abs / s_pf.lambda1 < s_sf.lambda2_abs / s_sf.lambda1,
        "PF {} vs SF {}",
        s_pf.lambda2_abs / s_pf.lambda1,
        s_sf.lambda2_abs / s_sf.lambda1
    );
}

#[test]
fn section_iv_e_quotient_theorem() {
    // B(q) + polarity gluing ≡ direct orthogonality construction.
    for q in [4u64, 5, 7, 9, 11] {
        assert!(quotient_equals_er(q).unwrap(), "q={q}");
    }
}

#[test]
fn oft_is_the_unquotiented_polarfly() {
    // The two-level OFT's leaf–spine graph is B(q); PolarFly is its
    // polarity quotient: same per-switch degree, half the switches,
    // diameter 2 instead of 3.
    let q = 5u64;
    let bq = IncidenceGraph::new(q).unwrap();
    let pf = PolarFly::new(q).unwrap();
    assert_eq!(bq.graph().max_degree(), (q + 1) as usize);
    assert_eq!(pf.graph().max_degree(), (q + 1) as usize);
    assert_eq!(bq.graph().vertex_count(), 2 * pf.router_count());
}

#[test]
fn automorphism_group_respects_layout_census() {
    // Automorphism images of a layout starter give identical censuses —
    // the practical content of Theorem V.8 used by Corollary V.9.
    let pf = PolarFly::new(9).unwrap();
    let perms: Vec<Vec<u32>> = standard_generators(pf.field())
        .iter()
        .filter_map(|m| vertex_permutation(&pf, m))
        .collect();
    assert!(perms.len() >= 2);
    for perm in &perms {
        // Adjacency preserved ⇒ triangle count through any vertex preserved.
        for v in [0u32, 5, 17] {
            let deg = pf.graph().degree(v);
            assert_eq!(deg, pf.graph().degree(perm[v as usize]));
        }
    }
}

#[test]
fn fluid_model_ranks_patterns_correctly() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let hosts = topo.host_routers();
    let uni = analyze(
        &topo,
        &tables,
        &resolve(TrafficPattern::Uniform, topo.graph(), &hosts, 1),
    );
    let tor = analyze(
        &topo,
        &tables,
        &resolve(TrafficPattern::Tornado, topo.graph(), &hosts, 1),
    );
    let p1 = analyze(
        &topo,
        &tables,
        &resolve(TrafficPattern::Perm1Hop, topo.graph(), &hosts, 1),
    );
    assert!(uni.saturation > 0.9);
    assert!(tor.saturation <= 0.25 + 1e-9); // 1/p
    assert!((p1.saturation - 0.25).abs() < 1e-9);
    assert!(uni.imbalance < tor.imbalance);
}

#[test]
fn engine_efficiency_factor_is_uniform_across_topologies() {
    // The claim backing "orderings preserved" (see `pf_sim::analytic`): the
    // engine's saturation / fluid-bound ratio is in a narrow band for PF
    // and SF.
    let cfg = SimConfig::default().warmup(300).measure(700).drain_max(600);
    let mut ratios = Vec::new();
    let pf = PolarFlyTopo::new(9, 5).unwrap();
    let sf = SlimFly::new(9, 6).unwrap();
    let topos: [&Topology; 2] = [&pf, &sf];
    for topo in topos {
        let tables = RouteTables::build(topo.graph(), 1);
        let dests = resolve(
            TrafficPattern::Uniform,
            topo.graph(),
            &topo.host_routers(),
            1,
        );
        let fluid = analyze(topo, &tables, &dests);
        let sim = simulate(topo, &tables, &dests, Routing::Min, 1.0, cfg.clone());
        ratios.push(sim.accepted_load / fluid.saturation);
    }
    for r in &ratios {
        assert!(*r > 0.6 && *r < 1.0, "efficiency {r} out of band");
    }
    assert!(
        (ratios[0] - ratios[1]).abs() < 0.12,
        "efficiency factors diverge: {ratios:?}"
    );
}
