//! Closed-loop workload integration: conservation (messages issued ==
//! messages delivered), seed-deterministic makespans on ER_31, fault
//! composition (a transient link failure mid-allreduce stretches the
//! makespan instead of wedging the DAG), and the untouched open-loop
//! path.

use pf_graph::FaultSchedule;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{simulate, simulate_workload, RouteTables, Routing, SimConfig, SimResult};
use pf_topo::{PolarFlyTopo, Topology, TransientTopo};
use pf_workload::{multi_job_mix, param_server, ring_allreduce, JobAssignment};

/// Asserts the conservation contract of a completed closed-loop run.
fn assert_conserved(r: &SimResult, label: &str) {
    assert!(!r.saturated, "{label}: workload missed the deadline");
    assert!(r.generated > 0, "{label}: nothing injected");
    assert_eq!(
        r.generated, r.delivered,
        "{label}: packets generated != delivered"
    );
    for j in &r.jobs {
        assert_eq!(
            j.messages, j.messages_delivered,
            "{label}: job {} lost messages",
            j.name
        );
        assert!(j.makespan.is_some(), "{label}: job {} unfinished", j.name);
        assert!(
            j.alg_bandwidth > 0.0,
            "{label}: job {} zero bandwidth",
            j.name
        );
        assert!(
            !j.phases.is_empty(),
            "{label}: job {} has no phase data",
            j.name
        );
    }
}

/// The ISSUE's conservation pin on ER_31 (the paper's Table V PolarFly):
/// every message issued is delivered, and the makespan is a pure
/// function of the seed.
#[test]
fn er31_conservation_and_deterministic_makespan() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let cfg = SimConfig::default().seed(7);
    let jobs = || vec![JobAssignment::solo(ring_allreduce(16, 32, 8))];
    let a = simulate_workload(&topo, Routing::Min, jobs(), &cfg).unwrap();
    assert_conserved(&a, "ER_31 ring");
    // 16 ranks × 2·15 steps of one 32-flit message each, plus nothing
    // else: the DAG fully accounts for the packet counts.
    let msgs = 2 * 15 * 16u64;
    assert_eq!(a.jobs[0].messages, msgs);
    assert_eq!(a.generated, msgs * (32 / 4) as u64); // 8 packets per message

    let b = simulate_workload(&topo, Routing::Min, jobs(), &cfg).unwrap();
    assert_eq!(
        a.jobs[0].makespan, b.jobs[0].makespan,
        "same seed must reproduce the makespan"
    );
    assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());

    // A different seed is allowed to differ (table tie-breaks), but must
    // still conserve.
    let c = simulate_workload(&topo, Routing::Min, jobs(), &cfg.clone().seed(8)).unwrap();
    assert_conserved(&c, "ER_31 ring seed 8");
}

/// Multiple concurrent jobs with disjoint host sets all complete, each
/// with its own makespan.
#[test]
fn multi_job_mix_completes_every_job() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let mix = multi_job_mix(20, 3, 8, 0xBEEF);
    let r = simulate_workload(&topo, Routing::UgalPf, mix, &SimConfig::default().seed(3)).unwrap();
    assert_conserved(&r, "3-job mix");
    assert_eq!(r.jobs.len(), 3);
    // Jobs are independent: each reports its own phase breakdown.
    for j in &r.jobs {
        assert!(j.phases.iter().all(|p| p.start <= p.end));
    }
}

/// Incast pressure (parameter server) must complete despite every
/// worker hammering one ejection port.
#[test]
fn param_server_incast_drains() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let jobs = vec![JobAssignment::solo(param_server(16, 2, 64, 16, 4))];
    let r = simulate_workload(&topo, Routing::Min, jobs, &SimConfig::default()).unwrap();
    assert_conserved(&r, "param server");
}

/// The ISSUE's fault-composition requirement: a transient link-failure
/// burst in the middle of an allreduce stretches the makespan rather
/// than wedging the DAG — delivery still conserves, and the run still
/// terminates.
#[test]
fn transient_faults_stretch_makespan_without_wedging() {
    let pf = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::default()
        .seed(11)
        .vc_classes(8)
        .convergence_delay(80);
    let jobs = || vec![JobAssignment::solo(ring_allreduce(12, 64, 4))];

    let healthy = simulate_workload(&pf, Routing::Min, jobs(), &cfg).unwrap();
    assert_conserved(&healthy, "healthy ring");
    let m0 = healthy.jobs[0].makespan.unwrap();

    // A heavy connected burst early in the run, repaired well before the
    // deadline. The allreduce's dependency chain is ~m0 cycles long, so
    // the window overlaps it.
    let schedule = FaultSchedule::sample_connected_links(pf.graph(), 0.15, m0 / 2, 200, 23);
    assert!(!schedule.is_empty(), "vacuous schedule");
    let transient = TransientTopo::new(&pf, schedule);
    let faulty = simulate_workload(&transient, Routing::Min, jobs(), &cfg).unwrap();
    assert_conserved(&faulty, "faulted ring");
    let m1 = faulty.jobs[0].makespan.unwrap();
    assert!(
        faulty.retransmitted_packets > 0 || faulty.table_swaps > 0,
        "the burst never engaged the fault machinery (vacuous test)"
    );
    assert!(
        m1 >= m0,
        "fault recovery cannot beat the healthy makespan ({m1} < {m0})"
    );
    assert_eq!(faulty.down_link_flits, 0);
    assert_eq!(faulty.vc_class_clamps, 0);
}

/// The open-loop path is untouched by the workload machinery: results
/// are pinned bit-for-bit against golden values (PF q=7 p=4,
/// `SimConfig::quick().seed(5)`, uniform, load 0.3 — the vendored RNG is
/// deterministic across machines, so exact pinning is sound here where
/// it would not be with upstream `rand`). A run-to-run self-comparison
/// alone could not catch a deterministic perturbation of the shared
/// admission path.
///
/// Re-bless record: the goldens were first extracted from the engine
/// *before* the workload subsystem existed (commit `ff9101e`: 12184
/// packets) and held through every PR until PR 18, which replaced the
/// per-endpoint Bernoulli draws with one geometric skip-ahead stream —
/// the same law, a different realisation of the seed (DESIGN.md,
/// "Open-loop generation"; `inject/tests.rs` holds the new stream to the
/// old generator's statistics). These are PR 18's values.
#[test]
fn open_loop_runs_match_pre_workload_engine_bit_for_bit() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 5);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        5,
    );
    let cfg = SimConfig::quick().seed(5);
    // MIN and UGAL-PF coincide at this sub-threshold load: UGAL-PF only
    // detours past 2/3 buffer occupancy, so both pin the same goldens.
    for routing in [Routing::Min, Routing::UgalPf] {
        let r = simulate(&topo, &tables, &dests, routing, 0.3, cfg.clone());
        assert!(r.jobs.is_empty(), "open-loop run carries job results");
        assert_eq!(r.generated, 11811, "{routing:?}");
        assert_eq!(r.delivered, 11811, "{routing:?}");
        assert!(!r.saturated, "{routing:?}");
        assert_eq!(r.avg_latency.to_bits(), 0x4026c04c4b83c2b4, "{routing:?}");
        // 25.0, by nearest rank (`ceil(p·n)`).
        assert_eq!(r.p99_latency.to_bits(), 0x4039000000000000, "{routing:?}");
        assert_eq!(r.accepted_load.to_bits(), 0x3fd2ef3dc60ce227, "{routing:?}");
        assert_eq!(r.avg_hops.to_bits(), 0x3ffdc47b32f50de5, "{routing:?}");
    }
}
