//! The telemetry layer's zero-perturbation contract, pinned.
//!
//! Turning on epoch time-series and packet tracing must change *no*
//! simulated field of [`SimResult`] — down to the bit. The same matrix
//! against the dense reference schedule (identical traces and epochs
//! across schedules) lives in-crate, in `src/skip/tests.rs`. See
//! `DESIGN.md`, "Telemetry and tracing".

mod common;

use common::assert_bit_identical;
use pf_graph::FaultSchedule;
use pf_sim::telemetry::TRACE_RETRANSMIT;
use pf_sim::traffic::TrafficPattern;
use pf_sim::{load_curve, simulate_workload, InFlightPolicy, Routing, SimConfig, SimResult};
use pf_topo::{PolarFlyTopo, Topology};
use pf_workload::{ring_allreduce, JobAssignment};

fn with_telemetry(cfg: &SimConfig, telemetry: bool) -> SimConfig {
    if telemetry {
        cfg.clone().telemetry_interval(64).trace_sample(8)
    } else {
        cfg.clone()
    }
}

fn run(topo: &Topology, load: f64, cfg: &SimConfig, telemetry: bool) -> SimResult {
    let c = with_telemetry(cfg, telemetry);
    let curve = load_curve(topo, Routing::UgalPf, TrafficPattern::Uniform, &[load], &c);
    curve.points.into_iter().next().unwrap()
}

/// PF(7): telemetry on is bit-identical to the telemetry-off baseline
/// (which itself replays), and reports epochs and on-modulus traces.
#[test]
fn telemetry_parity_q7() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::quick().seed(3);
    let base = run(&topo, 0.3, &cfg, false);
    assert!(base.delivered > 0, "vacuous baseline");
    assert!(base.telemetry.is_none(), "telemetry off must report None");

    let off = run(&topo, 0.3, &cfg, false);
    let on = run(&topo, 0.3, &cfg, true);
    assert_bit_identical(&base, &off, "q7 telemetry=off");
    assert_bit_identical(&base, &on, "q7 telemetry=on");
    let t = on.telemetry.expect("telemetry on must report Some");
    assert!(!t.epochs.is_empty(), "q7: no epochs");
    assert!(!t.traces.is_empty(), "q7: no traces");
    assert!(
        t.traces.iter().all(|e| e.serial % 8 == 0),
        "q7: sampler leaked an off-modulus serial"
    );
}

/// The paper's PF(31) scale — the full-size index space is where a
/// telemetry hook reading a stale counter would hide.
#[test]
fn telemetry_parity_q31() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let cfg = SimConfig::default()
        .warmup(60)
        .measure(100)
        .drain_max(500)
        .seed(9);
    let base = run(&topo, 0.25, &cfg, false);
    assert!(base.delivered > 0, "vacuous baseline");
    let on = run(&topo, 0.25, &cfg, true);
    assert_bit_identical(&base, &on, "q31 telemetry=on");
    let t = on.telemetry.unwrap();
    assert!(!t.epochs.is_empty() && !t.traces.is_empty());
}

/// A link-blip burst under drop-and-retransmit: the fault path's own
/// trace event (`TRACE_RETRANSMIT`) fires — the trace shows it — and still
/// nothing simulated moves.
#[test]
fn telemetry_parity_transient_retransmit() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let schedule = FaultSchedule::sample_connected_links(pf.graph(), 0.08, 150, 150, 23);
    let topo = pf.with_faults(schedule).unwrap();
    let cfg = SimConfig::default()
        .warmup(500)
        .measure(400)
        .drain_max(2500)
        .vc_classes(8)
        .convergence_delay(100)
        .fault_policy(InFlightPolicy::DropRetransmit)
        .seed(11);
    let base = run(&topo, 0.2, &cfg, false);
    assert!(
        base.retransmitted_packets > 0,
        "vacuous: nothing retransmitted"
    );
    let on = run(&topo, 0.2, &cfg, true);
    assert_bit_identical(&base, &on, "transient telemetry=on");
    let t = on.telemetry.unwrap();
    assert!(
        t.traces.iter().any(|e| e.kind == TRACE_RETRANSMIT),
        "no sampled packet was retransmitted: the hook never ran"
    );
    assert!(t.epochs.iter().any(|e| e.retransmitted > 0));
    // The epoch series accounts for every fault counter of the run.
    assert_eq!(t.epochs_dropped, 0);
    let retransmitted: u64 = t.epochs.iter().map(|e| e.retransmitted).sum();
    let dropped: u64 = t.epochs.iter().map(|e| e.dropped_flits).sum();
    assert_eq!(retransmitted, on.retransmitted_packets);
    assert_eq!(dropped, on.dropped_flits);
    assert!(dropped > 0, "vacuous: no flit dropped");
}

/// The closed-loop driver: a ring allreduce's makespan, per-job
/// accounting and latencies are the same run with the collectors on.
#[test]
fn telemetry_parity_closed_loop_allreduce() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::default().seed(5);
    let go = |telemetry: bool| {
        let jobs = vec![JobAssignment::solo(ring_allreduce(12, 32, 4))];
        simulate_workload(
            &topo,
            Routing::UgalPf,
            jobs,
            &with_telemetry(&cfg, telemetry),
        )
        .unwrap()
    };
    let base = go(false);
    assert!(base.jobs[0].makespan.is_some(), "vacuous: job unfinished");
    assert!(base.telemetry.is_none());
    let on = go(true);
    assert_bit_identical(&base, &on, "allreduce telemetry=on");
    let t = on.telemetry.unwrap();
    assert!(!t.epochs.is_empty() && !t.traces.is_empty());
}

/// Golden epoch pins on a seeded, fully drained run: the time-series
/// must account for every packet and flit of the run (conservation),
/// cover the timeline exactly once, and replay byte-identically.
#[test]
fn epoch_records_conserve_and_replay() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(200)
        .drain_max(2000)
        .gen_cutoff(300)
        .seed(41)
        .telemetry_interval(64)
        .trace_sample(4);
    let curve = |c: &SimConfig| {
        load_curve(&topo, Routing::Min, TrafficPattern::Uniform, &[0.3], c)
            .points
            .into_iter()
            .next()
            .unwrap()
    };
    let r = curve(&cfg);
    let t = r.telemetry.as_ref().unwrap();
    assert_eq!(t.epochs_dropped, 0);
    assert_eq!(t.traces_dropped, 0);

    // Timeline coverage: contiguous epochs, every span the configured
    // interval except a final partial one.
    let mut expected_start = 0u32;
    for (i, e) in t.epochs.iter().enumerate() {
        assert_eq!(e.end_cycle - e.span, expected_start, "epoch {i} gap");
        expected_start = e.end_cycle;
        if i + 1 < t.epochs.len() {
            assert_eq!(e.span, 64, "epoch {i} span");
        }
    }

    // Conservation over a drained run (generation stops at the cutoff,
    // the run ends when the network empties): every admitted packet
    // delivered, every delivered packet's flits ejected.
    let gen: u64 = t.epochs.iter().map(|e| e.generated).sum();
    let del: u64 = t.epochs.iter().map(|e| e.delivered).sum();
    let ej: u64 = t.epochs.iter().map(|e| e.flits_ejected).sum();
    assert!(gen > 0, "vacuous run");
    assert_eq!(gen, del, "drained run must deliver every packet");
    assert_eq!(ej, del * 4, "4 flits per packet must all eject");
    let last = t.epochs.last().unwrap();
    assert_eq!(last.in_flight_flits, 0, "drained run ended with flits");
    assert_eq!(last.source_backlog, 0, "drained run ended with backlog");

    // Sampled lifecycles are well-formed: every traced packet's event
    // stream starts with its inject and ends with its eject.
    use pf_sim::telemetry::{TRACE_EJECT, TRACE_INJECT};
    use std::collections::BTreeMap;
    let mut by_serial: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for ev in &t.traces {
        assert_eq!(ev.serial % 4, 0, "off-modulus serial traced");
        by_serial.entry(ev.serial).or_default().push(ev.kind);
    }
    assert!(!by_serial.is_empty());
    for (serial, kinds) in &by_serial {
        assert_eq!(kinds[0], TRACE_INJECT, "serial {serial}: first event");
        assert_eq!(
            *kinds.last().unwrap(),
            TRACE_EJECT,
            "serial {serial}: last event (drained run)"
        );
    }

    // Byte-identical replay: the full report, not just the results.
    let r2 = curve(&cfg);
    let t2 = r2.telemetry.as_ref().unwrap();
    assert_eq!(t.epochs, t2.epochs, "epoch replay");
    assert_eq!(t.traces, t2.traces, "trace replay");
}

/// The route-decision trace law, on the operands: every `TRACE_ROUTE`
/// is followed directly by the `TRACE_VC_ALLOC` of the same decision
/// (same packet, router and cycle), whose buffer — numbered with the
/// *configured* VCs per port — lies on the routed port and in the VC
/// class of the decision's index along the packet's path; the packet's
/// next head-flit grant at that router names the same downstream port.
#[test]
fn route_decisions_pair_with_their_vc_claim_and_grant() {
    use pf_sim::telemetry::{TraceEvent, TRACE_EJECT, TRACE_GRANT, TRACE_ROUTE, TRACE_VC_ALLOC};
    use std::collections::BTreeMap;

    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(300)
        .drain_max(1000)
        .seed(5)
        .trace_sample(4);
    let vcs = cfg.vcs() as u32;
    let per_class = u32::from(cfg.vcs_per_class);
    for (routing, pattern, top_class) in [
        (Routing::Min, TrafficPattern::Uniform, 1),
        (Routing::UgalPf, TrafficPattern::Perm2Hop, 2),
        (Routing::Valiant, TrafficPattern::Uniform, 3),
    ] {
        let label = format!("{} on {}", routing.label(), pattern.label());
        let r = load_curve(&topo, routing, pattern, &[0.2], &cfg)
            .points
            .into_iter()
            .next()
            .unwrap();
        let t = r.telemetry.expect("tracing on must report Some");
        assert_eq!(t.traces_dropped, 0, "{label}: trace buffer overflowed");
        let mut by_serial: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
        for (i, ev) in t.traces.iter().enumerate() {
            if ev.kind != TRACE_ROUTE {
                continue;
            }
            let alloc = t
                .traces
                .get(i + 1)
                .unwrap_or_else(|| panic!("{label}: route decision {ev:?} is the last event"));
            assert_eq!(
                (alloc.kind, alloc.serial, alloc.router, alloc.cycle),
                (TRACE_VC_ALLOC, ev.serial, ev.router, ev.cycle),
                "{label}: route decision {ev:?} not followed by its VC claim"
            );
            assert_eq!(
                alloc.a / vcs,
                ev.a,
                "{label}: VC claim {alloc:?} off the routed port of {ev:?}"
            );
        }
        for ev in &t.traces {
            by_serial.entry(ev.serial).or_default().push(*ev);
        }
        let (mut decisions, mut max_class) = (0usize, 0u32);
        for (serial, evs) in &by_serial {
            let ejected = evs.iter().any(|e| e.kind == TRACE_EJECT);
            let mut hop = 0u32;
            for (i, ev) in evs.iter().enumerate() {
                if ev.kind != TRACE_ROUTE {
                    continue;
                }
                let class = evs[i + 1].a % vcs / per_class;
                assert_eq!(
                    class, hop,
                    "serial {serial} ({label}): decision {hop} claimed class {class}"
                );
                let grant = evs[i + 2..]
                    .iter()
                    .find(|g| g.kind == TRACE_GRANT && g.router == ev.router && g.b == 0);
                match grant {
                    Some(g) => assert_eq!(
                        g.a, ev.a,
                        "serial {serial} ({label}): head granted to another port than routed"
                    ),
                    // Only a packet the run ended with may be ungranted.
                    None => assert!(
                        !ejected,
                        "serial {serial} ({label}): ejected, but never granted at router {}",
                        ev.router
                    ),
                }
                hop += 1;
                decisions += 1;
                max_class = max_class.max(class);
            }
        }
        assert!(
            decisions > 1000,
            "{label}: only {decisions} decisions traced"
        );
        assert_eq!(max_class, top_class, "{label}: classes reached");
    }
}
