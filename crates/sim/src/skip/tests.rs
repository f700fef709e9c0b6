//! The iteration domains against the walk they replace.
//!
//! Unit tests of [`SkipCtl`] and [`BitSet`], then the parity suite: the
//! live engine against the dense reference schedule
//! ([`Reference::DenseSchedule`] — every router, the flit store's
//! per-port masks and counts instead of its port bitsets, a rescan in
//! every allocator pass, every cycle), across topology sizes
//! and degrees, routing algorithms, injection modes, fault bursts and
//! telemetry settings. The contract is *exact*: every simulated field of
//! `SimResult` equals the reference run's, down to the bit; only the
//! execution-observability field `skipped_router_cycles` differs — and
//! not even that against [`Reference::FullRescan`], which keeps the live
//! iteration domains and swaps only the allocator's stalled-list replay
//! for the rescan. See `DESIGN.md`, "Event-driven cycle skipping".

use super::*;
use crate::common::assert_bit_identical;
use crate::engine::Reference;
use crate::sweep::resolve_run;
use crate::traffic::{DestMap, TrafficPattern};
use crate::{Engine, RouteTables, Routing, SimConfig, SimResult, WorkloadDriver};
use pf_graph::FaultSchedule;
use pf_topo::{HyperX, PolarFlyTopo, Topology};
use pf_workload::{param_server, ring_allreduce, JobAssignment};

#[test]
fn wake_doze_sleep_lifecycle() {
    let mut s = SkipCtl::new(100, 2);
    assert!(s.none_awake());
    assert!(!s.is_awake(5));

    // First arrival at an idle router dozes it until ready_at.
    s.on_arrival(5, 12, 10);
    assert!(!s.is_awake(5));
    assert_eq!(s.wake_at(5), 12);
    assert_eq!(s.next_doze_wake(10), Some(12));
    // A later arrival (monotone ready_at) changes nothing.
    s.on_arrival(5, 13, 11);
    assert_eq!(s.wake_at(5), 12);

    // The wheel wakes it at exactly cycle 12.
    s.wheel_wake(11);
    assert!(!s.is_awake(5));
    s.wheel_wake(12);
    assert!(s.is_awake(5));
    assert_eq!(s.wake_at(5), NONE32);

    // Once both flits drained, the engine puts it back to sleep.
    s.sleep(5);
    assert!(!s.is_awake(5));
    assert!(s.none_awake());
}

/// `Engine::maybe_sleep` asks the three stores that own a router's
/// work, and sleeps the router only when all three are empty for it.
#[test]
fn maybe_sleep_requires_all_three_empty() {
    let topo = PolarFlyTopo::new(3, 2).unwrap();
    let (tables, dests) = resolve_run(&topo, TrafficPattern::Uniform, 1);
    let mut e = Engine::new(
        &topo,
        &tables,
        &dests,
        Routing::Min,
        0.0,
        SimConfig::quick(),
    );
    let r = 3;
    let port = e.geom.ports(r).0 as usize;
    e.skip.wake_now(r);
    e.bufs.push_back(port, 0, 0, 0, 0, false); // a buffered flit
    e.maybe_sleep(r);
    assert!(e.skip.is_awake(r));
    e.bufs.pop_front(port, 0);
    e.src_q[r].push_back(0); // a queued packet
    e.maybe_sleep(r);
    assert!(e.skip.is_awake(r));
    e.src_q[r].clear();
    e.inj.push(r, 0, 0, false); // an injection stream
    e.maybe_sleep(r);
    assert!(e.skip.is_awake(r));
    e.inj.remove(r, 0);
    e.maybe_sleep(r);
    assert!(!e.skip.is_awake(r));
}

#[test]
fn canceled_doze_leaves_no_valid_wheel_entry() {
    let mut s = SkipCtl::new(8, 3);
    s.on_arrival(2, 7, 4);
    assert_eq!(s.next_doze_wake(4), Some(7));
    // A fault purge removed the flit and the engine slept the router:
    // the doze is canceled.
    s.sleep(2);
    assert_eq!(s.next_doze_wake(4), None);
    // Draining the stale entry does not wake the router.
    s.wheel_wake(7);
    assert!(!s.is_awake(2));
}

#[test]
fn awake_list_is_ascending_and_counts_skips() {
    let mut s = SkipCtl::new(130, 2);
    for r in [129, 0, 64, 63] {
        s.wake_now(r);
    }
    s.build_awake_list(130);
    assert_eq!(s.awake_list, vec![0, 63, 64, 129]);
    assert_eq!(s.skipped_router_cycles, 126);
    s.charge_leap(130, 3);
    assert_eq!(s.skipped_router_cycles, 126 + 390);
}

/// Every hit of restarting [`BitSet::next_in`] over `[from, to)`.
fn bit_walk(set: &BitSet, mut from: u32, to: u32) -> Vec<u32> {
    let mut hits = Vec::new();
    while let Some(i) = set.next_in(from, to) {
        hits.push(i);
        from = i + 1;
    }
    hits
}

/// The bit-range walk against a naive `filter`, for a router-sized
/// window of `d` ports at every alignment that matters (inside a word,
/// ending on a word boundary, straddling one, starting on one): every
/// mask, every sub-range — empty and full included — and every
/// rotation start. Everything outside the window is set, so a walk that
/// leaks past either end of its range is caught.
#[test]
fn next_in_matches_naive_filter_over_every_mask_range_and_rotation() {
    const LEN: u32 = 192;
    for d in 1..=7u32 {
        for lo in [3, 64 - d, 61, 64, 128 - d / 2] {
            let hi = lo + d;
            for mask in 0..1u32 << d {
                let member = |i: u32| !(lo..hi).contains(&i) || mask & (1 << (i - lo)) != 0;
                let mut set = BitSet::new(LEN as usize);
                for i in (0..LEN).filter(|&i| member(i)) {
                    set.insert(i as usize);
                }
                for a in lo..=hi {
                    for b in lo..=hi {
                        let naive: Vec<u32> = (a..b).filter(|&i| member(i)).collect();
                        assert_eq!(
                            bit_walk(&set, a, b),
                            naive,
                            "d={d} lo={lo} {mask:#b} [{a},{b})"
                        );
                    }
                }
                // The rotated ejection scan: `[mid, hi)` then `[lo, mid)`.
                for start in 0..d {
                    let naive: Vec<u32> = (0..d)
                        .map(|off| lo + (start + off) % d)
                        .filter(|&i| member(i))
                        .collect();
                    let mut rotated = bit_walk(&set, lo + start, hi);
                    rotated.extend(bit_walk(&set, lo, lo + start));
                    assert_eq!(rotated, naive, "d={d} lo={lo} {mask:#b} start={start}");
                }
            }
        }
    }
    // A range over whole empty words, and removal.
    let mut set = BitSet::new(LEN as usize);
    assert_eq!(set.next_in(0, LEN), None);
    set.insert(150);
    set.insert(191);
    assert_eq!(bit_walk(&set, 10, LEN), vec![150, 191]);
    assert_eq!(bit_walk(&set, 10, 191), vec![150]);
    assert_eq!(set.next_in(151, 191), None);
    set.remove(150);
    assert!(!set.contains(150) && set.contains(191));
    assert_eq!(set.next_in(0, 191), None);
}

/// One open-loop run set up as [`crate::load_curve`] sets its points up,
/// live or as a reference.
fn open_loop_run(
    topo: &Topology,
    (tables, dests): &(RouteTables, DestMap),
    routing: Routing,
    load: f64,
    cfg: &SimConfig,
    reference: Reference,
) -> SimResult {
    let mut e = Engine::new(topo, tables, dests, routing, load, cfg.clone());
    e.reference = reference;
    e.run()
}

/// Runs one Bernoulli load point as the dense reference, then live,
/// asserting both agree bit-for-bit and that the live run actually
/// skipped something.
fn check_bernoulli(topo: &Topology, routing: Routing, load: f64, cfg: &SimConfig) {
    let resolved = resolve_run(topo, TrafficPattern::Uniform, cfg.seed);
    let run = |reference| open_loop_run(topo, &resolved, routing, load, cfg, reference);
    let dense = run(Reference::DenseSchedule);
    let label = format!("{} {} load {load}", topo.name(), routing.label());
    assert!(dense.delivered > 0, "{label}: vacuous parity baseline");
    assert_eq!(
        dense.skipped_router_cycles, 0,
        "{label}: dense reference reported skips"
    );
    let live = run(Reference::Off);
    assert_bit_identical(&dense, &live, &label);
    assert!(
        live.skipped_router_cycles > 0,
        "{label}: nothing skipped below saturation"
    );
}

/// The stalled-list replay against both oracles: the full rescan on the
/// live iteration domains (everything equal, `skipped_router_cycles`
/// included — a router the tail-sent list failed to sleep would show
/// there) and the dense schedule. Returns the live run's result and
/// `[vc stalls, credit stalls, match losses]`.
fn check_replay(
    topo: &Topology,
    pattern: TrafficPattern,
    routing: Routing,
    load: f64,
    cfg: &SimConfig,
) -> (SimResult, [u64; 3]) {
    let (tables, dests) = resolve_run(topo, pattern, cfg.seed);
    let run = |reference| {
        let mut e = Engine::new(topo, &tables, &dests, routing, load, cfg.clone());
        e.reference = reference;
        let result = e.run_in_place();
        let diags = [e.diag_vc_stalls, e.diag_credit_stalls, e.diag_match_losses];
        (result, diags)
    };
    let label = format!(
        "{} {} {pattern} load {load} iters {}",
        topo.name(),
        routing.label(),
        cfg.alloc_iters
    );
    let (live, live_diags) = run(Reference::Off);
    assert!(live.delivered > 0, "{label}: vacuous");
    for reference in [Reference::FullRescan, Reference::DenseSchedule] {
        let (oracle, oracle_diags) = run(reference);
        let label = format!("{label} vs {reference:?}");
        assert_bit_identical(&oracle, &live, &label);
        assert_eq!(oracle_diags, live_diags, "{label}: stall/loss counters");
        if reference == Reference::FullRescan {
            assert_eq!(
                oracle.skipped_router_cycles, live.skipped_router_cycles,
                "{label}: skipped router-cycles"
            );
        }
    }
    (live, live_diags)
}

/// Three allocator passes — the stalled lists are rebuilt by a replay
/// and replayed again — over one-packet VC buffers, so credits bind.
#[test]
fn replay_parity_three_passes() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::quick()
        .seed(5)
        .alloc_iters(3)
        .buffer_flits_per_port(32);
    for routing in [Routing::Min, Routing::UgalPf] {
        let (_, [vc, credit, _]) = check_replay(&topo, TrafficPattern::Uniform, routing, 0.6, &cfg);
        assert!(vc > 0 && credit > 0, "nothing ever stalled");
    }
}

/// UGAL-PF on the 2-hop permutation past saturation: VC and credit
/// stalls in every pass, and Valiant draws by heads first routed in a
/// later pass.
#[test]
fn replay_parity_saturated_adversarial() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::quick().seed(7);
    let (live, [vc, credit, losses]) =
        check_replay(&topo, TrafficPattern::Perm2Hop, Routing::UgalPf, 0.8, &cfg);
    assert!(live.saturated, "load 0.8 on a permutation must saturate");
    assert!(vc > 0 && credit > 0 && losses > 0);
}

/// One endpoint per router: two lanes share one flit per cycle, so
/// `inj_budget` decides grants (a lane that loses to it is a match
/// loss) and gates the later passes' lane scans.
#[test]
fn replay_parity_injection_budget_binds() {
    let topo = PolarFlyTopo::new(7, 1).unwrap();
    let cfg = SimConfig::quick().seed(11).alloc_iters(3);
    let (_, [_, _, losses]) = check_replay(&topo, TrafficPattern::Uniform, Routing::Min, 0.9, &cfg);
    assert!(losses > 0, "the injection budget never bound");
}

/// Steps a live engine for `cycles`, holding the iteration domains to
/// ground truth ([`Engine::validate_skip_invariants`]: port bitsets ⇔
/// queue contents, wake bounds) and the flow accounting after every step.
/// Returns the router-cycles skipped and the packets retransmitted.
fn step_validating(
    topo: &Topology,
    routing: Routing,
    load: f64,
    cfg: &SimConfig,
    cycles: u32,
) -> (u64, u64) {
    let (tables, dests) = resolve_run(topo, TrafficPattern::Uniform, cfg.seed);
    let mut e = Engine::new(topo, &tables, &dests, routing, load, cfg.clone());
    while e.cycle() < cycles {
        e.step();
        e.validate_skip_invariants();
        e.validate_flow_invariants();
    }
    (e.skipped_router_cycles(), e.retransmitted_packets())
}

/// PF(7): MIN and UGAL-PF, below and near saturation.
#[test]
fn bernoulli_parity_q7() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::quick().seed(3);
    for routing in [Routing::Min, Routing::UgalPf] {
        check_bernoulli(&topo, routing, 0.2, &cfg);
        check_bernoulli(&topo, routing, 0.55, &cfg);
    }
}

/// PF(31) — the paper's 993-router instance, shortened windows. The
/// full-scale port/VC index space is where a stale occupancy bit or a
/// premature sleep would hide.
#[test]
fn bernoulli_parity_q31() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let cfg = SimConfig::default()
        .warmup(60)
        .measure(100)
        .drain_max(500)
        .seed(9);
    check_bernoulli(&topo, Routing::Min, 0.25, &cfg);
    check_bernoulli(&topo, Routing::UgalPf, 0.25, &cfg);
}

/// PF(37): radix 38 — no router's ports fit one 32-bit mask, and most
/// routers' port ranges cross a 64-bit word. The same scan runs here,
/// at q = 31, and at Slim Fly q = 23 (radix 35).
#[test]
fn bernoulli_parity_q37() {
    let topo = PolarFlyTopo::new(37, 19).unwrap();
    assert!(topo.graph().max_degree() > 32);
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(200)
        .drain_max(600)
        .seed(13);
    check_bernoulli(&topo, Routing::Min, 0.25, &cfg);
    check_bernoulli(&topo, Routing::UgalPf, 0.25, &cfg);
}

/// HyperX 66×2: radix 66, so every router's port range spans two or
/// three 64-bit words at a different alignment. Parity, then the
/// invariants after every cycle of a generate–drain–sleep run.
#[test]
fn bernoulli_parity_hyperx_degree66() {
    let topo = HyperX::new(66, 2, 2);
    assert_eq!(topo.graph().max_degree(), 66);
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(200)
        .drain_max(600)
        .seed(19);
    check_bernoulli(&topo, Routing::Min, 0.3, &cfg);
    let (skipped, _) = step_validating(&topo, Routing::Min, 0.3, &cfg.gen_cutoff(300), 700);
    assert!(skipped > 0, "drained network never slept");
}

/// PF(3) at load 0.001 — one packet per ~150 cycles network-wide, so the
/// engine spends the run leaping from one open-loop arrival to the next
/// *while generating*. The leap bound must land on every arrival's cycle
/// (checked each step by [`Engine::validate_skip_invariants`]) and the
/// result must equal the reference's walk of all 22 000 cycles.
#[test]
fn bernoulli_parity_leaps_between_arrivals() {
    let topo = PolarFlyTopo::new(3, 2).unwrap();
    let cfg = SimConfig::default()
        .warmup(2000)
        .measure(20000)
        .drain_max(500)
        .seed(29);
    check_bernoulli(&topo, Routing::Min, 0.001, &cfg);

    let tables = RouteTables::build(topo.graph(), 7);
    let dests = crate::traffic::resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.001, cfg);
    let (mut steps, mut leaps) = (0u32, 0u32);
    while e.cycle() < 22000 {
        let from = e.cycle();
        e.step();
        e.validate_skip_invariants();
        steps += 1;
        leaps += u32::from(e.cycle() > from + 1);
    }
    assert!(e.total_generated() > 50, "vacuous: almost no arrivals");
    assert!(
        leaps > 50 && steps < 22000 / 4,
        "generating cycles did not leap: {leaps} leaps, {steps} steps for 22000 cycles"
    );
}

/// One closed-loop run set up as [`crate::simulate_workload`] sets it
/// up, live or as a reference.
fn closed_loop_run(
    topo: &Topology,
    routing: Routing,
    jobs: Vec<JobAssignment>,
    cfg: &SimConfig,
    reference: Reference,
) -> SimResult {
    let driver = WorkloadDriver::new(topo, jobs, cfg.packet_flits).unwrap();
    let tables = RouteTables::build(topo.graph(), cfg.seed);
    let dests = DestMap::Uniform {
        hosts: topo.host_routers(),
    };
    let mut e = Engine::new(topo, &tables, &dests, routing, 0.0, cfg.clone());
    e.reference = reference;
    e.attach_workload(driver);
    e.run_workload()
}

/// Closed-loop workload DAGs: compute timers arm wake-ups while a
/// router is otherwise silent, so makespans and phase spans are the
/// sharpest probe of a missed wake.
#[test]
fn workload_parity() {
    for (q, p) in [(7u64, 4usize), (31, 16)] {
        let topo = PolarFlyTopo::new(q, p).unwrap();
        let jobs = || {
            vec![
                JobAssignment {
                    workload: ring_allreduce(8, 16, 4),
                    hosts: (0..8).collect(),
                },
                JobAssignment {
                    workload: param_server(6, 8, 4, 8, 20),
                    hosts: (8..15).collect(),
                },
            ]
        };
        let routings: &[Routing] = if q == 7 {
            &[Routing::Min, Routing::UgalPf]
        } else {
            &[Routing::Min] // full-scale: one algorithm keeps runtime sane
        };
        for &routing in routings {
            let cfg = SimConfig::default().seed(17);
            let dense = closed_loop_run(&topo, routing, jobs(), &cfg, Reference::DenseSchedule);
            assert!(!dense.saturated, "{}: workload wedged", routing.label());
            let run = closed_loop_run(&topo, routing, jobs(), &cfg, Reference::Off);
            let label = format!("workload q={q} {}", routing.label());
            assert_bit_identical(&dense, &run, &label);
            if q == 7 {
                // Mostly-asleep routers: where a lane retired without its
                // router being put to sleep would cost skipped cycles.
                let full = closed_loop_run(&topo, routing, jobs(), &cfg, Reference::FullRescan);
                assert_bit_identical(&full, &run, &label);
                assert_eq!(
                    full.skipped_router_cycles, run.skipped_router_cycles,
                    "{label}: skipped router-cycles vs the full rescan"
                );
            }
            assert!(
                run.skipped_router_cycles > 0,
                "{label}: no skips on a sparse workload"
            );
        }
    }
}

/// Transient fault bursts: mid-run link deaths, retransmits, staged
/// table swaps. Fault events must wake the routers they touch — the
/// retransmit/drop counters diverge immediately if one sleeps through
/// a purge — and a purge must leave the port bitsets coherent with what
/// it removed, word boundaries included (the radix-66 HyperX).
#[test]
fn transient_burst_parity() {
    let pf7 = PolarFlyTopo::new(7, 4).unwrap();
    let pf13 = PolarFlyTopo::new(13, 7).unwrap();
    let hx66 = HyperX::new(66, 2, 2);
    let both = [Routing::Min, Routing::UgalPf];
    let cases: [(&Topology, u32, &[Routing]); 3] = [
        (&pf7, 1500, &both),
        (&pf13, 900, &both[..1]),
        (&hx66, 1500, &both[..1]),
    ];
    for (topo, drain_max, routings) in cases {
        let schedule = FaultSchedule::sample_connected_links(topo.graph(), 0.05, 150, 150, 23);
        assert!(!schedule.is_empty());
        let transient = topo.with_faults(schedule).unwrap();
        let cfg = SimConfig::default()
            .warmup(300)
            .measure(250)
            .drain_max(drain_max)
            .vc_classes(8)
            .convergence_delay(100)
            .seed(11);
        for &routing in routings {
            let resolved = resolve_run(&transient, TrafficPattern::Uniform, cfg.seed);
            let run =
                |reference| open_loop_run(&transient, &resolved, routing, 0.2, &cfg, reference);
            let label = format!("transient {} {}", topo.name(), routing.label());
            let dense = run(Reference::DenseSchedule);
            assert!(
                dense.retransmitted_packets > 0,
                "{label}: schedule never hit committed traffic"
            );
            assert_bit_identical(&dense, &run(Reference::Off), &label);
        }
    }
    // The purge path under the per-cycle bitset ⇔ queue-content check.
    let schedule = FaultSchedule::sample_connected_links(hx66.graph(), 0.05, 150, 150, 23);
    let transient = hx66.with_faults(schedule).unwrap();
    let cfg = SimConfig::default()
        .vc_classes(8)
        .convergence_delay(100)
        .seed(11);
    let (_, retransmitted) = step_validating(&transient, Routing::Min, 0.2, &cfg, 500);
    assert!(retransmitted > 0, "no purge inside the validated span");
}

/// Property: a router's tracked next-interesting cycle never overshoots
/// its actual next state change. [`Engine::validate_skip_invariants`]
/// asserts exactly that (plus bitset/occupancy coherence) against ground
/// truth, every cycle of a run that exercises generation, drain, and
/// full sleep.
#[test]
fn next_interesting_cycle_never_overshoots() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    for routing in [Routing::Min, Routing::UgalPf] {
        let cfg = SimConfig::default()
            .warmup(100)
            .measure(200)
            .drain_max(1000)
            .gen_cutoff(300)
            .seed(41);
        let (skipped, _) = step_validating(&topo, routing, 0.3, &cfg, 1300);
        assert!(
            skipped > 0,
            "{}: drained network never slept",
            routing.label()
        );
    }
}

/// The dense-reference cells of the telemetry matrix
/// (`tests/telemetry_parity.rs` holds the live ones): telemetry on/off ×
/// reference/live, every cell bit-identical to the reference
/// telemetry-off baseline, and the collected traces and epochs —
/// router census included — identical across schedules.
fn check_telemetry(topo: &Topology, load: f64, cfg: &SimConfig) {
    let resolved = resolve_run(topo, TrafficPattern::Uniform, cfg.seed);
    let on = cfg.clone().telemetry_interval(64).trace_sample(8);
    let run =
        |cfg, reference| open_loop_run(topo, &resolved, Routing::UgalPf, load, cfg, reference);
    let label = topo.name();
    let base = run(cfg, Reference::DenseSchedule);
    assert!(base.delivered > 0, "{label}: vacuous baseline");
    assert!(base.telemetry.is_none(), "telemetry off must report None");
    let dense_on = run(&on, Reference::DenseSchedule);
    let live_on = run(&on, Reference::Off);
    assert_bit_identical(&base, &dense_on, &format!("{label} dense telemetry=on"));
    assert_bit_identical(
        &base,
        &run(cfg, Reference::Off),
        &format!("{label} live telemetry=off"),
    );
    assert_bit_identical(&base, &live_on, &format!("{label} live telemetry=on"));
    let dense = dense_on.telemetry.expect("telemetry on must report Some");
    let live = live_on.telemetry.expect("telemetry on must report Some");
    assert!(!dense.epochs.is_empty() && !dense.traces.is_empty());
    assert!(
        dense.traces.iter().all(|e| e.serial % 8 == 0),
        "{label}: sampler leaked an off-modulus serial"
    );
    assert_eq!(dense.traces, live.traces, "{label}: traces dense vs live");
    assert_eq!(dense.epochs, live.epochs, "{label}: epochs dense vs live");
}

/// The telemetry matrix at PF(7).
#[test]
fn telemetry_parity_q7() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    check_telemetry(&topo, 0.3, &SimConfig::quick().seed(3));
}

/// The telemetry matrix at the paper's PF(31) scale — the full-size
/// index space is where a telemetry hook reading a stale counter would
/// hide.
#[test]
fn telemetry_parity_q31() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let cfg = SimConfig::default()
        .warmup(60)
        .measure(100)
        .drain_max(500)
        .seed(9);
    check_telemetry(&topo, 0.25, &cfg);
}
