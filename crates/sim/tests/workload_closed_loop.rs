//! Closed-loop workload integration: conservation (messages issued ==
//! messages delivered), seed-deterministic makespans on ER_31, fault
//! composition (a transient link failure mid-allreduce stretches the
//! makespan instead of wedging the DAG), and the untouched open-loop
//! path.

use pf_graph::FaultSchedule;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{simulate, simulate_workload, RouteTables, Routing, SimConfig, SimResult};
use pf_topo::PolarFlyTopo;
use pf_workload::{
    all_to_all, halo_exchange, multi_job_mix, param_server, recursive_doubling_allreduce,
    ring_allreduce, JobAssignment,
};

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
    let transient = pf.with_faults(schedule).unwrap();
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

/// The generators [`every_generator_is_pinned_closed_loop`] runs.
const GENERATORS: [&str; 6] = [
    "ring",
    "recdoub",
    "all_to_all",
    "halo",
    "param_server",
    "mix",
];

/// One generator's jobs, by [`GENERATORS`] name.
fn generator_jobs(name: &str) -> Vec<JobAssignment> {
    let solo = |w| vec![JobAssignment::solo(w)];
    match name {
        "ring" => solo(ring_allreduce(12, 16, 4)),
        // 12 ranks: a core of 8 plus the 4-rank fold in and out.
        "recdoub" => solo(recursive_doubling_allreduce(12, 16, 2)),
        "all_to_all" => solo(all_to_all(10, 8, 2)),
        "halo" => solo(halo_exchange(&[3, 4], 8, 2, 3)),
        "param_server" => solo(param_server(12, 2, 32, 16, 4)),
        // Five jobs: one of each generator family.
        "mix" => multi_job_mix(40, 5, 4, 0xC0FFEE),
        _ => unreachable!("{name}"),
    }
}

/// One line per run: per job `(makespan, messages delivered)`, an
/// FNV-1a digest of every job's per-phase `(phase, start, end,
/// messages)`, the bits of `avg_latency`, and `skipped_router_cycles`.
fn closed_loop_pin(name: &str, routing: Routing, r: &SimResult) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in r.jobs.iter().flat_map(|j| &j.phases) {
        let fields = [
            u64::from(p.phase),
            u64::from(p.start),
            u64::from(p.end),
            p.messages,
        ];
        for b in fields.iter().flat_map(|x| x.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let jobs: Vec<_> = r
        .jobs
        .iter()
        .map(|j| (j.makespan.unwrap_or(u32::MAX), j.messages_delivered))
        .collect();
    format!(
        "{name} {routing:?} jobs {jobs:?} phases {h:#018x} avg_latency {:#018x} skipped {}\n",
        r.avg_latency.to_bits(),
        r.skipped_router_cycles
    )
}

/// Every generator's closed-loop result on PF q=7 p=4 (default config),
/// under MIN and UGAL-PF, pinned bit for bit. The golden values were
/// extracted from the commit before the workload DAG moved to flat
/// offset lists (per-task `Vec`s in `Task` and in the driver), so the
/// flat layout is held to release sends and satisfy receivers in the
/// same order. A mismatch prints every line as observed.
#[test]
fn every_generator_is_pinned_closed_loop() {
    const PINS: &str = "\
ring Min jobs [(537, 264)] phases 0xf003cdcdb8236a1b avg_latency 0x402e800000000000 skipped 23489
ring UgalPf jobs [(537, 264)] phases 0xf003cdcdb8236a1b avg_latency 0x402e800000000000 skipped 23489
recdoub Min jobs [(108, 32)] phases 0x0bf3e2b07d4d1da2 avg_latency 0x4030980000000000 skipped 5138
recdoub UgalPf jobs [(108, 32)] phases 0x0bf3e2b07d4d1da2 avg_latency 0x4030980000000000 skipped 5138
all_to_all Min jobs [(71, 90)] phases 0xca0e9b4047df2ead avg_latency 0x40324ccccccccccd skipped 3223
all_to_all UgalPf jobs [(65, 90)] phases 0x53e55f2908c31f99 avg_latency 0x4031622222222222 skipped 2838
halo Min jobs [(78, 96)] phases 0xcaef1f98a9053800 avg_latency 0x402e055555555555 skipped 3527
halo UgalPf jobs [(91, 96)] phases 0x226deb0f4328c1dd avg_latency 0x402d5aaaaaaaaaab skipped 4190
param_server Min jobs [(591, 48)] phases 0x4326e1cbab1f743c avg_latency 0x40506f1c71c71c72 skipped 30579
param_server UgalPf jobs [(433, 48)] phases 0xb5227748c37f555d avg_latency 0x4048b6aaaaaaaaab skipped 21865
mix Min jobs [(208, 112), (78, 24), (83, 56), (50, 32), (67, 28)] phases 0xf689c3930e5d74eb avg_latency 0x402e0f6603d980f6 skipped 8227
mix UgalPf jobs [(208, 112), (77, 24), (71, 56), (52, 32), (67, 28)] phases 0xb98a1411ee194b18 avg_latency 0x402d1ecc07b301ed skipped 8246
";
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let cfg = SimConfig::default();
    let mut observed = String::new();
    for name in GENERATORS {
        for routing in [Routing::Min, Routing::UgalPf] {
            let r = simulate_workload(&topo, routing, generator_jobs(name), &cfg).unwrap();
            assert_conserved(&r, &format!("{name} {routing:?}"));
            observed += &closed_loop_pin(name, routing, &r);
        }
    }
    assert!(
        observed == PINS,
        "closed-loop pins moved; observed:\n{observed}"
    );
}
