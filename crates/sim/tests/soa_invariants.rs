//! Property tests for the structure-of-arrays hot-path containers and
//! the engine's credit accounting: FIFO order is preserved, credits
//! never exceed buffer depth, and no flit is lost across
//! warmup → measure → drain.

use pf_sim::engine::{Engine, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{FlitRings, Routing};
use pf_topo::PolarFlyTopo;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FlitRings against a VecDeque reference model: random interleaved
    /// push/pop/purge across more queues than the pool ever holds nodes
    /// preserves exact FIFO contents, leaks no node, reuses freed nodes
    /// instead of growing, and keeps each port's indexes — VC mask,
    /// occupancy bit, terminating-flit count, eject bit — equal to what
    /// the model's queues of that port hold: the touched port after
    /// every operation, every port periodically. Up to 32 VCs per port,
    /// so the mask's top bit is exercised.
    #[test]
    fn flit_rings_match_fifo_model(
        cap in 1u32..24,
        ports in 1usize..12,
        vcs in prop_oneof![1usize..5, Just(32)],
        seed in 0u64..10_000,
    ) {
        let queues = ports * vcs;
        let mut rings = FlitRings::new(ports, vcs, cap);
        let idle_bytes = rings.resident_bytes();
        let mut model: Vec<VecDeque<(u32, u16, u32)>> = vec![VecDeque::new(); queues];
        // Flits of even packets terminate at the buffering router.
        let term = |f: &(u32, u16, u32)| f.0.is_multiple_of(2);
        // The port's indexes as the model's queues imply them.
        let check_port = |rings: &FlitRings, model: &[VecDeque<(u32, u16, u32)>], port: usize| {
            let held = &model[port * vcs..(port + 1) * vcs];
            let mask = (0..vcs)
                .filter(|&v| !held[v].is_empty())
                .fold(0u32, |m, v| m | 1 << v);
            let terms = held.iter().flatten().filter(|f| term(f)).count() as u32;
            let p = port as u32;
            prop_assert_eq!(rings.vc_mask(port), mask, "port {}: VC mask", port);
            prop_assert_eq!(rings.next_port(false, p, p + 1).is_some(), mask != 0, "port {}: occupancy bit", port);
            prop_assert_eq!(rings.term_flits(port), terms, "port {}: terminating flits", port);
            prop_assert_eq!(rings.next_port(true, p, p + 1).is_some(), terms > 0, "port {}: eject bit", port);
            Ok(())
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stamp = 0u32;
        // Most nodes ever needed at once: one per flit behind a head.
        let mut peak_behind = 0usize;
        for step in 0..10_000 {
            let q = rng.gen_range(0..queues);
            let (port, vc) = (q / vcs, q % vcs);
            let op = rng.gen::<f64>();
            if op < 0.5 {
                if model[q].len() < cap as usize {
                    let flit = (stamp, (stamp % 7) as u16, stamp / 3);
                    rings.push_back(port, vc, flit.0, flit.1, flit.2, term(&flit));
                    model[q].push_back(flit);
                    stamp += 1;
                }
            } else if op < 0.52 {
                // A fault event: drop every flit of a random packet class.
                let class = rng.gen_range(0..3u32);
                let before = model[q].len();
                model[q].retain(|f| f.0 % 3 != class);
                let removed = rings.purge_queue(port, vc, |pkt| pkt % 3 == class);
                prop_assert_eq!(removed as usize, before - model[q].len());
                prop_assert!(rings.iter(q).eq(model[q].iter().copied()));
            } else if let Some(expect) = model[q].pop_front() {
                prop_assert_eq!(rings.front(q), Some(expect));
                // The cached termination flag rides the head slot.
                prop_assert_eq!(rings.head_term(q), term(&expect));
                rings.pop_front(port, vc);
            } else {
                prop_assert_eq!(rings.front(q), None);
            }
            prop_assert_eq!(rings.len(q) as usize, model[q].len());
            prop_assert_eq!(rings.front(q), model[q].front().copied());
            check_port(&rings, &model, port)?;
            let behind: usize = model.iter().map(|m| m.len().saturating_sub(1)).sum();
            peak_behind = peak_behind.max(behind);
            if step % 257 == 0 {
                rings.validate();
                for other in 0..ports {
                    check_port(&rings, &model, other)?;
                }
            }
        }
        rings.validate();
        // Full drain check: remaining contents match in order.
        for (q, queue_model) in model.iter().enumerate() {
            prop_assert!(rings.iter(q).eq(queue_model.iter().copied()));
            for (i, &expect) in queue_model.iter().enumerate() {
                prop_assert_eq!(rings.get(q, i as u32), expect);
            }
        }
        let total: usize = model.iter().map(|m| m.len()).sum();
        prop_assert_eq!(rings.total_flits(), total);
        // Freed nodes are reused: the pool (16 B per node, at most doubled
        // by `Vec` growth) never outgrew the busiest moment.
        prop_assert!(rings.resident_bytes() - idle_bytes <= 32 * peak_behind.max(2));
    }

    /// Engine credit accounting under random configurations: at every
    /// sampled cycle, credits never exceed buffer depth and every spent
    /// credit corresponds to exactly one buffered or in-flight flit;
    /// after the drain, no flit is lost.
    #[test]
    fn credits_bounded_and_no_flit_lost(
        q in prop_oneof![Just(5u64), Just(7)],
        p in 1usize..4,
        load in 0.1f64..0.9,
        routing in prop_oneof![Just(Routing::Min), Just(Routing::MinAdaptive), Just(Routing::Valiant), Just(Routing::CompactValiant), Just(Routing::Ugal), Just(Routing::UgalPf)],
        seed in 0u64..1000,
        buffer in prop_oneof![Just(32u32), Just(64), Just(128)],
    ) {
        let topo = PolarFlyTopo::new(q, p).unwrap();
        let tables = RouteTables::build(topo.graph(), seed);
        let dests = resolve(TrafficPattern::Uniform, topo.graph(), &topo.host_routers(), seed);
        let cfg = SimConfig::default()
            .warmup(40)
            .measure(120)
            .drain_max(4000)
            .gen_cutoff(160)
            .buffer_flits_per_port(buffer)
            .seed(seed);
        let mut e = Engine::new(&topo, &tables, &dests, routing, load, cfg);
        for cycle in 0..4200 {
            e.step();
            if cycle % 13 == 0 {
                e.validate_flow_invariants();
            }
        }
        e.validate_flow_invariants();
        prop_assert_eq!(e.flits_in_network(), 0);
        prop_assert_eq!(e.source_backlog(), 0);
        prop_assert_eq!(e.active_streams(), 0);
        prop_assert_eq!(e.total_delivered(), e.total_generated());
    }
}

/// The flit store's footprint follows the flits actually buffered, not
/// ports × VCs × depth: an idle engine costs the same at any buffer
/// depth, and a loaded run adds at most one (growth-doubled) 16-byte
/// node per flit that was ever in the network at once.
#[test]
fn flit_store_is_sized_by_occupancy() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        1,
    );
    let cfg = |buffer| {
        SimConfig::default()
            .warmup(50)
            .measure(250)
            .drain_max(4000)
            .gen_cutoff(300)
            .buffer_flits_per_port(buffer)
            .seed(1)
    };
    let engine = |buffer| Engine::new(&topo, &tables, &dests, Routing::Min, 0.6, cfg(buffer));
    let idle = engine(128).flit_rings().resident_bytes();
    assert_eq!(idle, engine(4096).flit_rings().resident_bytes());

    let mut e = engine(128);
    let mut peak = 0;
    for _ in 0..4400 {
        e.step();
        peak = peak.max(e.flits_in_network());
    }
    assert!(peak > 500, "the run never loaded the network (peak {peak})");
    assert_eq!(e.flits_in_network(), 0);
    e.validate_flow_invariants();
    let loaded = e.flit_rings().resident_bytes();
    assert!(
        loaded > idle && loaded <= idle + 32 * peak,
        "flit store {loaded} B after a run peaking at {peak} flits (idle {idle} B)"
    );
}
