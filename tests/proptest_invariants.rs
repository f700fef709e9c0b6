//! Property-based tests (proptest) over the core data structures and the
//! simulator: construction invariants for random prime powers, algebraic
//! laws for random field elements, conservation laws for random
//! simulation configurations, and fault-event replay for random
//! schedules.

use pf_galois::{Gf, ProjectivePoints, V3};
use pf_graph::{Csr, FailureSet, FaultEventKind, FaultSchedule};
use pf_sim::engine::{Engine, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::Routing;
use pf_topo::PolarFlyTopo;
use polarfly::PolarFly;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Prime powers small enough for exhaustive per-case work.
const SMALL_Q: &[u64] = &[3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25];
const ODD_Q: &[u64] = &[3, 5, 7, 9, 11, 13];

fn arb_q() -> impl Strategy<Value = u64> {
    proptest::sample::select(SMALL_Q)
}

fn arb_odd_q() -> impl Strategy<Value = u64> {
    proptest::sample::select(ODD_Q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn field_laws_hold_for_random_elements(q in arb_q(), a in 0u32..1024, b in 0u32..1024, c in 0u32..1024) {
        let f = Gf::new(q).unwrap();
        let (a, b, c) = (a % f.order(), b % f.order(), c % f.order());
        prop_assert_eq!(f.add(a, b), f.add(b, a));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        prop_assert_eq!(f.sub(f.add(a, b), b), a);
        if b != 0 {
            prop_assert_eq!(f.mul(f.div(a, b), b), a);
        }
    }

    #[test]
    fn normalization_is_idempotent_and_projective(q in arb_q(), x in 0u32..64, y in 0u32..64, z in 0u32..64) {
        let f = Gf::new(q).unwrap();
        let v = V3([x % f.order(), y % f.order(), z % f.order()]);
        if let Some(n) = v.normalize(&f) {
            prop_assert!(n.is_normalized());
            prop_assert_eq!(n.normalize(&f), Some(n));
            // All nonzero multiples normalize to the same representative.
            for c in 1..f.order() {
                prop_assert_eq!(v.scale(c, &f).normalize(&f), Some(n));
            }
            // Round-trip through the point index.
            let pp = ProjectivePoints::new(f.order());
            let idx = pp.index(&n);
            prop_assert_eq!(pp.point(idx), n);
        } else {
            prop_assert_eq!(v, V3::ZERO);
        }
    }

    #[test]
    fn er_graph_invariants(q in arb_q()) {
        let pf = PolarFly::new(q).unwrap();
        prop_assert_eq!(pf.router_count() as u64, q * q + q + 1);
        prop_assert_eq!(pf.measured_diameter(), Some(2));
        prop_assert_eq!(pf.quadrics().len() as u64, q + 1);
        // Edge count: (q+1)(q²+q+1)/2 minus the q+1 "self-loop halves":
        // quadrics have degree q, others q+1.
        let expect = ((q * q + q + 1) * (q + 1) - (q + 1)) / 2;
        prop_assert_eq!(pf.graph().edge_count() as u64, expect);
    }

    #[test]
    fn unique_minimal_routes(q in arb_odd_q(), s in 0u32..200, d in 0u32..200) {
        let pf = PolarFly::new(q).unwrap();
        let n = pf.router_count() as u32;
        let (s, d) = (s % n, d % n);
        if s != d {
            let route = pf.minimal_route(s, d);
            prop_assert!(route.len() <= 3);
            for hop in route.windows(2) {
                prop_assert!(pf.graph().has_edge(hop[0], hop[1]));
            }
            // The cross-product intermediate is the only 2-hop connector.
            if route.len() == 3 {
                let g = pf.graph();
                let common: Vec<u32> = g
                    .neighbors(s)
                    .iter()
                    .copied()
                    .filter(|&w| g.neighbors(d).binary_search(&w).is_ok())
                    .collect();
                prop_assert_eq!(common, vec![route[1]]);
            }
        }
    }

    #[test]
    fn simulator_conserves_packets(
        q in prop_oneof![Just(5u64), Just(7)],
        p in 1usize..4,
        load in 0.05f64..0.5,
        routing in prop_oneof![Just(Routing::Min), Just(Routing::Valiant), Just(Routing::Ugal), Just(Routing::UgalPf)],
        seed in 0u64..1000,
    ) {
        let topo = PolarFlyTopo::new(q, p).unwrap();
        let tables = RouteTables::build(topo.graph(), seed);
        let dests = resolve(TrafficPattern::Uniform, topo.graph(), &topo.host_routers(), seed);
        let cfg = SimConfig::default()
            .warmup(50)
            .measure(150)
            .drain_max(3000)
            .gen_cutoff(200)
            .seed(seed);
        let mut e = Engine::new(&topo, &tables, &dests, routing, load, cfg);
        for _ in 0..3000 {
            e.step();
        }
        // After generation stops, everything drains: no lost flits, no
        // stuck packets, no deadlock.
        prop_assert_eq!(e.flits_in_network(), 0);
    }

    /// The engine takes its cycle-0 state from `active_at(g, 0)` and its
    /// later transitions from `resolved_events`: folding the events up to
    /// any cycle `c` must reproduce `active_at(g, c)`, with no link going
    /// down twice or up while up. Schedules mix windows that never
    /// repair and windows that overlap or touch on the same link.
    #[test]
    fn fault_event_replay_matches_the_schedule_state(
        half_n in 4usize..9,
        link_windows in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let g = pf_graph::random_regular::random_regular(2 * half_n, 3, seed);
        let (s, horizon) = random_schedule(&g, link_windows, seed);
        let events = s.resolved_events(&g);
        let mut links = BTreeSet::new();
        let (mut next, mut ever_changed) = (0, false);
        let at_zero = s.active_at(&g, 0);
        for c in 0..=horizon {
            while next < events.len() && events[next].cycle <= c {
                let fresh = match events[next].kind {
                    FaultEventKind::LinkDown(u, v) => links.insert((u, v)),
                    FaultEventKind::LinkUp(u, v) => links.remove(&(u, v)),
                };
                prop_assert!(fresh, "cycle {}: redundant {:?}", c, events[next]);
                next += 1;
            }
            let folded = FailureSet::from_edges(&links.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(&folded, &s.active_at(&g, c), "links at cycle {}", c);
            ever_changed |= folded != at_zero;
        }
        // Every event lies inside the replayed horizon.
        prop_assert_eq!(next, events.len());
        // The engine's static rule: nothing changes after cycle 0.
        prop_assert_eq!(s.is_static(&g), !ever_changed);
    }
}

/// A seeded schedule on `g` with `links` link windows, plus a cycle past
/// its last finite transition. Each window opens at cycle 0 one time in
/// four, never repairs one time in four, and one time in three restarts
/// on the previous window's link where that window closed (touching) or
/// before (overlapping).
fn random_schedule(g: &Csr, links: usize, seed: u64) -> (FaultSchedule, u32) {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = FaultSchedule::new();
    let mut horizon = 0u32;
    let mut window = |rng: &mut StdRng, prev: Option<(u32, u32)>| {
        let fail = match prev {
            Some((fail, repair)) if rng.gen_range(0..3) == 0 => {
                if repair != FaultSchedule::NEVER && rng.gen_range(0..2) == 0 {
                    repair
                } else {
                    rng.gen_range(fail..fail + 10)
                }
            }
            _ if rng.gen_range(0..4) == 0 => 0,
            _ => rng.gen_range(0..60),
        };
        let repair = if rng.gen_range(0..4) == 0 {
            FaultSchedule::NEVER
        } else {
            fail + rng.gen_range(1..40u32)
        };
        horizon = horizon.max(fail + 1);
        if repair != FaultSchedule::NEVER {
            horizon = horizon.max(repair + 1);
        }
        (fail, repair)
    };
    let mut prev: Option<(u32, u32, u32, u32)> = None;
    for _ in 0..links {
        let (u, v) = match prev {
            Some((u, v, ..)) if rng.gen_range(0..2) == 0 => (u, v),
            _ => edges[rng.gen_range(0..edges.len())],
        };
        let (fail, repair) = window(&mut rng, prev.map(|p| (p.2, p.3)));
        s = s.link_fault(u, v, fail, repair);
        prev = Some((u, v, fail, repair));
    }
    (s, horizon)
}

#[test]
fn routing_table_distance_consistency_random_topologies() {
    // Next-hop tables strictly decrease distance on arbitrary graphs, and
    // the walked table distance is the BFS distance. (The table's own
    // `dist` walks next hops, so `dist(nh, d) == dist(s, d) − 1` holds by
    // construction; the scalar BFS is the independent measure.)
    for seed in 0..5u64 {
        let g = pf_graph::random_regular::random_regular(60, 5, seed);
        let t = RouteTables::build(&g, seed);
        let dist: Vec<Vec<u8>> = (0..60u32)
            .map(|s| pf_graph::bfs::bfs_distances(&g, s))
            .collect();
        for s in 0..60u32 {
            for d in 0..60u32 {
                let want = dist[s as usize][d as usize];
                assert_eq!(t.dist(s, d), u32::from(want));
                if s != d {
                    let nh = t.next_hop(s, d);
                    assert!(g.has_edge(s, nh));
                    assert_eq!(dist[nh as usize][d as usize], want - 1);
                }
            }
        }
    }
}
