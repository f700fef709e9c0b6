//! Closed-loop collective sweep: how fast do application communication
//! phases *finish* on PolarFly vs Slim Fly?
//!
//! The open-loop sweeps answer "latency at offered load X"; this one
//! answers the question deployments ask of a diameter-2 topology (the
//! Slim Fly deployment study's methodology): completion time. Each cell
//! builds a workload DAG (`pf_workload`), attaches it to the cycle
//! engine as a closed-loop injection source, and runs until the DAG
//! drains — reporting per-job makespan, algorithmic bandwidth, and the
//! per-phase latency breakdown as JSON-lines rows (shared writer with
//! the other sweeps; filter with `grep '^{'`).
//!
//! Sweep axes: workload family × message size × topology (PF q=31,
//! p=16 vs SF q=23, p=18 — the paper's Table V pair) × routing (MIN vs
//! UGAL-PF). `--telemetry-interval N` turns on the engine's epoch
//! time-series (one `epoch` row per N cycles per run) and
//! `--trace-sample N` its sampled packet traces (`trace` rows for every
//! N-th packet by birth serial), both streamed through
//! `pf_bench::telemetry` after each cell's data row; neither perturbs
//! results (pinned by `crates/sim/tests/telemetry_parity.rs`).
//! `--smoke` (CI) restricts to ring + recursive-doubling
//! allreduce at one message size and runs every cell **twice**,
//! verifying the makespan is seed-deterministic; it also replays an
//! open-loop Bernoulli run twice through the workload-capable engine
//! and requires the two `SimResult`s to agree with no job results
//! attached (reproducibility and no leaked closed-loop state — the
//! bit-for-bit pin against the *pre-workload* engine is the golden
//! test in `crates/sim/tests/workload_closed_loop.rs`).
//!
//! Fails (exit 1) if any cell:
//!
//! * fails to drain its DAG before `workload_deadline` (wedged or
//!   unfinished workload),
//! * loses conservation (packets generated != delivered, or a job's
//!   messages not all delivered),
//! * produces a nondeterministic makespan across identical runs, or
//! * is vacuous (no messages anywhere).

use crate::Args;
use pf_bench::jsonl::Row;
use pf_sim::{
    load_curve, simulate_workload, Routing, SimConfig, SimResult, TrafficPattern,
};
use pf_topo::{PolarFlyTopo, SlimFly, Topology};
use pf_workload::{
    all_to_all, halo_exchange, multi_job_mix, param_server, recursive_doubling_allreduce,
    ring_allreduce, JobAssignment,
};
use rayon::prelude::*;

/// Seed for the multi-job host partitioning (the engine seed comes from
/// `SimConfig`).
const MIX_SEED: u64 = 0xC011;

/// One workload family instantiated at a message size.
struct Cell {
    workload: &'static str,
    msg_flits: u32,
    jobs: Vec<JobAssignment>,
}

/// Builds the swept workload instances. `ranks` is the job size for the
/// single-job collectives (well under both topologies' host counts).
fn cells(smoke: bool, ranks: u32, total_hosts: u32, sizes: &[u32]) -> Vec<Cell> {
    let mut out = Vec::new();
    for &m in sizes {
        out.push(Cell {
            workload: "ring_allreduce",
            msg_flits: m,
            jobs: vec![JobAssignment::solo(ring_allreduce(ranks, m, 8))],
        });
        out.push(Cell {
            workload: "recdoub_allreduce",
            msg_flits: m,
            jobs: vec![JobAssignment::solo(recursive_doubling_allreduce(
                ranks, m, 8,
            ))],
        });
        if smoke {
            continue;
        }
        out.push(Cell {
            workload: "all_to_all",
            msg_flits: m,
            jobs: vec![JobAssignment::solo(all_to_all(ranks, m, 8))],
        });
        out.push(Cell {
            workload: "halo_2d",
            msg_flits: m,
            jobs: vec![JobAssignment::solo(halo_exchange(&[8, 8], m, 4, 8))],
        });
        out.push(Cell {
            workload: "param_server",
            msg_flits: m,
            jobs: vec![JobAssignment::solo(param_server(ranks - 1, 3, m, m, 8))],
        });
        out.push(Cell {
            workload: "multijob_mix",
            msg_flits: m,
            jobs: multi_job_mix(total_hosts, 4, m, MIX_SEED),
        });
    }
    out
}

/// Checks one completed cell result; returns violation descriptions.
fn check(result: &SimResult, label: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if result.deadline_expired {
        // `deadline_expired` covers both the wedged case (`saturated`:
        // traffic still live at the deadline) and the merely-unfinished
        // one; either way the cell failed to complete.
        bad.push(format!("{label}: workload did not finish before deadline"));
    }
    if result.generated != result.delivered {
        bad.push(format!(
            "{label}: conservation broken — {} packets generated, {} delivered",
            result.generated, result.delivered
        ));
    }
    for j in &result.jobs {
        if j.messages_delivered != j.messages {
            bad.push(format!(
                "{label}: job {}: {}/{} messages delivered",
                j.name, j.messages_delivered, j.messages
            ));
        }
        if !result.deadline_expired && j.makespan.is_none() {
            bad.push(format!("{label}: job {} has no makespan", j.name));
        }
    }
    bad
}

/// Open-loop regression: with no workload attached, Bernoulli runs must
/// be reproducible and carry no closed-loop state (no job results). A
/// replay cannot catch a *deterministic* perturbation of the shared
/// admission path — the bit-for-bit pin against golden values from the
/// pre-workload engine lives in
/// `crates/sim/tests/workload_closed_loop.rs`; this gate covers the
/// Table V scale the tests do not.
fn open_loop_unperturbed(topo: &Topology, cfg: &SimConfig) -> Vec<String> {
    let loads = [0.2];
    let a = load_curve(topo, Routing::Min, TrafficPattern::Uniform, &loads, cfg);
    let b = load_curve(topo, Routing::Min, TrafficPattern::Uniform, &loads, cfg);
    let (pa, pb) = (&a.points[0], &b.points[0]);
    let mut bad = Vec::new();
    let bitwise_equal = pa.offered_load.to_bits() == pb.offered_load.to_bits()
        && pa.accepted_load.to_bits() == pb.accepted_load.to_bits()
        && pa.avg_latency.to_bits() == pb.avg_latency.to_bits()
        && pa.p50_latency.to_bits() == pb.p50_latency.to_bits()
        && pa.p99_latency.to_bits() == pb.p99_latency.to_bits()
        && pa.p999_latency.to_bits() == pb.p999_latency.to_bits()
        && pa.avg_hops.to_bits() == pb.avg_hops.to_bits()
        && pa.generated == pb.generated
        && pa.delivered == pb.delivered
        && pa.saturated == pb.saturated
        && pa.deadline_expired == pb.deadline_expired;
    if !bitwise_equal {
        bad.push(format!(
            "{}: open-loop Bernoulli run is not bit-for-bit reproducible",
            a.topology
        ));
    }
    if !pa.jobs.is_empty() {
        bad.push(format!(
            "{}: open-loop run carries job results — closed-loop state leaked",
            a.topology
        ));
    }
    if pa.generated == 0 {
        bad.push(format!("{}: open-loop run generated nothing", a.topology));
    }
    bad
}

pub fn run(args: &Args) -> Result<(), String> {
    let smoke = args.smoke;
    let topos: Vec<Topology> = vec![
        PolarFlyTopo::new(31, 16).unwrap(),
        SlimFly::new(23, 18).unwrap(),
    ];
    let routings = [Routing::Min, Routing::UgalPf];
    let (ranks, total_hosts, sizes): (u32, u32, Vec<u32>) = if smoke {
        (32, 96, vec![64])
    } else {
        (64, 192, vec![16, 128, 1024])
    };

    println!("Collective sweep — closed-loop workload completion, PF vs SF");
    // Closed-loop runs ignore warmup/measure; the deadline bounds a
    // wedged DAG. 4 VC classes suffice (healthy topology, ≤ 4 hops).
    // Engine telemetry is off unless requested.
    let cfg = args.telemetry(SimConfig::default().workload_deadline(2_000_000));
    println!("(every DAG must drain with conservation; smoke additionally checks");
    println!(" seed-determinism and the untouched open-loop path;");
    println!(" data rows are JSON lines — filter with `grep '^{{'`)\n");

    let cell_list = cells(smoke, ranks, total_hosts, &sizes);
    // One task per (topology, routing, cell); each runs its engine
    // serially (Rayon parallelism across cells, like load_curve across
    // loads). Smoke repeats each run to pin determinism.
    let mut tasks = Vec::new();
    for ti in 0..topos.len() {
        for routing in routings {
            for (ci, _) in cell_list.iter().enumerate() {
                tasks.push((ti, routing, ci));
            }
        }
    }
    let results: Vec<(usize, Routing, usize, SimResult, Option<SimResult>)> = tasks
        .par_iter()
        .map(|&(ti, routing, ci)| {
            let topo = &topos[ti];
            let cell = &cell_list[ci];
            let r = simulate_workload(topo, routing, cell.jobs.clone(), &cfg)
                .expect("job assignment must be valid");
            let repeat = smoke.then(|| {
                simulate_workload(topo, routing, cell.jobs.clone(), &cfg)
                    .expect("job assignment must be valid")
            });
            (ti, routing, ci, r, repeat)
        })
        .collect();

    let mut violations: Vec<String> = Vec::new();
    let mut messages_total = 0u64;
    for (ti, routing, ci, result, repeat) in &results {
        let topo = &topos[*ti];
        let cell = &cell_list[*ci];
        let label = format!("{} / {} / {}", topo.name(), routing.label(), cell.workload);
        violations.extend(check(result, &label));
        if let Some(rep) = repeat {
            let (ma, mb) = (
                result.jobs.iter().map(|j| j.makespan).collect::<Vec<_>>(),
                rep.jobs.iter().map(|j| j.makespan).collect::<Vec<_>>(),
            );
            if ma != mb {
                violations.push(format!(
                    "{label}: nondeterministic makespan ({ma:?} vs {mb:?})"
                ));
            }
        }
        for j in &result.jobs {
            messages_total += j.messages_delivered;
            let mut row = Row::new("collective")
                .str("topology", topo.name())
                .str("routing", routing.label())
                .str("workload", cell.workload)
                .u64("msg_flits", u64::from(cell.msg_flits))
                .str("job", &j.name)
                .u64("ranks", u64::from(j.ranks))
                .opt_u64("makespan", j.makespan.map(u64::from))
                .f64("alg_bandwidth", j.alg_bandwidth)
                .u64("messages", j.messages)
                .u64("payload_flits", j.payload_flits)
                .f64("avg_pkt_latency", result.avg_latency)
                .u64("retransmitted", result.retransmitted_packets)
                .u64("phases", j.phases.len() as u64);
            // The breakdown's headline: the longest phase (JSONL keeps
            // the full per-phase list out of the row; the makespan and
            // span columns summarize it).
            if let Some(p) = j.phases.iter().max_by_key(|p| p.end - p.start) {
                row = row
                    .u64("longest_phase", u64::from(p.phase))
                    .u64("longest_phase_cycles", u64::from(p.end - p.start));
            }
            row.emit();
        }
        // Telemetry rows ride behind the cell's data rows, keyed back
        // to them by the same run label.
        if let Some(report) = &result.telemetry {
            pf_bench::telemetry::emit_report(&label, report);
        }
    }

    if smoke {
        for topo in &topos {
            violations.extend(open_loop_unperturbed(topo, &SimConfig::quick()));
        }
    }
    if messages_total == 0 {
        violations.push("no cell delivered any message (vacuous sweep)".into());
    }

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("BROKEN: {v}");
        }
        return Err(format!("FAIL: {} violation(s)", violations.len()));
    }
    println!(
        "\nOK: every workload DAG drained with conservation on both topologies \
         ({messages_total} messages delivered){}",
        if smoke {
            "; makespans deterministic; open-loop runs reproducible with no leaked state"
        } else {
            ""
        }
    );
    Ok(())
}
