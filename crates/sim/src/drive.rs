//! Closed-loop workload driving: the second injection source next to
//! the Bernoulli process.
//!
//! A [`WorkloadDriver`] advances one or more [`pf_workload`] task DAGs
//! against the cycle engine. Each cycle the engine polls the driver for
//! tasks whose compute timers expired; their sends become source-queue
//! packets through the same admission path Bernoulli packets take (VOQ
//! charge, fault retransmission). When a packet's
//! tail flit ejects, the engine calls back into the driver; when every
//! packet of a message has ejected the message is *delivered*, which
//! decrements the receive dependencies of the tasks waiting on it. A
//! job completes when all of its tasks have fired and all of its
//! messages have been delivered — the completion cycle is the job's
//! makespan.
//!
//! The driver is pure bookkeeping: it owns no RNG and touches no
//! network state, so a closed-loop run is deterministic for a fixed
//! seed whenever the routing algorithm is (and the transient-fault
//! machinery composes unchanged — a dropped workload packet returns to
//! its source queue with its identity intact, so the message simply
//! delivers later and the makespan stretches instead of the DAG
//! wedging).

use crate::config::SimConfig;
use crate::stats::{JobResult, PhaseResult, SimResult};
use crate::tables::RouteTables;
use crate::traffic::DestMap;
use crate::Routing;
use pf_topo::Topology;
use pf_workload::{FlatLists, InverseEdges, JobAssignment, Task, TaskId, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Convenience: builds tables (on the residual graph when links are down
/// at cycle 0), attaches the jobs to a fresh engine, and runs
/// the workload to completion. Errors on malformed jobs (validation
/// failure, overlapping or out-of-range host sets).
///
/// # Examples
///
/// ```
/// use pf_sim::{simulate_workload, Routing, SimConfig};
/// use pf_topo::PolarFlyTopo;
/// use pf_workload::{ring_allreduce, JobAssignment};
///
/// let topo = PolarFlyTopo::new(5, 2).unwrap();
/// let jobs = vec![JobAssignment::solo(ring_allreduce(6, 8, 4))];
/// let r = simulate_workload(&topo, Routing::Min, jobs, &SimConfig::quick()).unwrap();
/// assert_eq!(r.jobs[0].makespan.is_some(), !r.deadline_expired);
/// assert_eq!(r.generated, r.delivered);
/// ```
pub fn simulate_workload(
    topo: &Topology,
    routing: Routing,
    jobs: Vec<JobAssignment>,
    cfg: &SimConfig,
) -> Result<SimResult, String> {
    let driver = WorkloadDriver::new(topo, jobs, cfg.packet_flits)?;
    let tables = RouteTables::build_for(topo, cfg.seed);
    let dests = DestMap::Uniform {
        hosts: topo.host_routers(),
    };
    let mut engine = crate::Engine::new(topo, &tables, &dests, routing, 0.0, cfg.clone());
    engine.attach_workload(driver);
    Ok(engine.run_workload())
}

/// One message release: the engine turns this into `packets` source-queue
/// packets from router `src` to router `dst` and registers each with the
/// driver.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Release {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) job: u32,
    pub(crate) msg: u32,
    pub(crate) packets: u32,
}

/// Per-phase accumulation (cycle of first and last event carrying the
/// phase tag).
#[derive(Debug, Clone, Copy)]
struct PhaseAcc {
    start: u32,
    end: u32,
    messages: u64,
}

/// One job's live DAG state. The task DAG is the [`Workload`] the job
/// was handed, read in place; only the inverse edges and the per-task /
/// per-message counters are derived.
#[derive(Debug)]
struct JobState {
    /// Rank → router id.
    routers: Vec<u32>,
    workload: Workload,
    /// Tasks gated behind each task's firing (forward `after` edges).
    dependents: FlatLists<TaskId>,
    /// Tasks gated behind each message's delivery.
    receivers: FlatLists<TaskId>,
    /// Remaining unsatisfied dependencies per task.
    deps_left: Vec<u32>,
    /// Remaining undelivered packets per message (`u32::MAX` = not yet
    /// released).
    msg_pkts_left: Vec<u32>,
    /// Phase tag of each message's sending task.
    msg_phase: Vec<u32>,
    /// Compute-timer queue: `(fire_cycle, task)`.
    timers: BinaryHeap<Reverse<(u32, u32)>>,
    pending_tasks: u32,
    pending_msgs: u32,
    /// Cycle the job finished (all tasks fired, all messages delivered).
    completion: Option<u32>,
    phases: Vec<PhaseAcc>,
}

/// Marks one dependency of `task` satisfied; arms its compute timer
/// when the last one lands. A free function over the two fields it
/// writes, so callers can walk `JobState`'s edge lists meanwhile.
fn satisfy(
    deps_left: &mut [u32],
    timers: &mut BinaryHeap<Reverse<(u32, u32)>>,
    tasks: &[Task],
    task: TaskId,
    cycle: u32,
) {
    let d = &mut deps_left[task as usize];
    debug_assert!(*d > 0, "over-satisfied task {task}");
    *d -= 1;
    if *d == 0 {
        let fire = cycle.saturating_add(tasks[task as usize].compute);
        timers.push(Reverse((fire, task)));
    }
}

impl JobState {
    fn note_phase(&mut self, phase: u32, cycle: u32, message: bool) {
        let p = &mut self.phases[phase as usize];
        p.start = p.start.min(cycle);
        p.end = p.end.max(cycle);
        if message {
            p.messages += 1;
        }
    }

    fn check_complete(&mut self, cycle: u32) {
        if self.completion.is_none() && self.pending_tasks == 0 && self.pending_msgs == 0 {
            self.completion = Some(cycle);
        }
    }
}

/// `pkt_map` slot marking a packet the driver does not own.
const UNOWNED: (u32, u32) = (u32::MAX, u32::MAX);

/// Closed-loop injection source: advances task DAGs on compute timers
/// and per-packet delivery callbacks. Attach with
/// [`crate::Engine::attach_workload`] and run with
/// [`crate::Engine::run_workload`].
#[derive(Debug)]
pub struct WorkloadDriver {
    jobs: Vec<JobState>,
    /// Live packet → (job, message), indexed by pool packet id (dense
    /// and recycled, so a flat vector beats a hash map on the
    /// per-packet hot path). Entries survive fault-event retransmission
    /// (the packet keeps its id) and are cleared at delivery.
    pkt_map: Vec<(u32, u32)>,
    packet_flits: u32,
}

impl WorkloadDriver {
    /// Builds a driver for `jobs` over `topo`'s hosts. Every workload is
    /// validated; job host sets must be disjoint, in range of
    /// [`Topology::host_routers`], and sized to their workload's rank
    /// count. `packet_flits` must match the `SimConfig` the engine runs
    /// with (messages are rounded up to whole packets).
    pub fn new(
        topo: &Topology,
        jobs: Vec<JobAssignment>,
        packet_flits: u16,
    ) -> Result<WorkloadDriver, String> {
        assert!(packet_flits > 0);
        if jobs.is_empty() {
            return Err("no jobs: a job-less driver would report a vacuously complete run".into());
        }
        let host_routers = topo.host_routers();
        let mut taken = vec![false; host_routers.len()];
        let mut states = Vec::with_capacity(jobs.len());
        for (ji, job) in jobs.into_iter().enumerate() {
            let w = job.workload;
            w.validate().map_err(|e| format!("job {ji}: {e}"))?;
            if job.hosts.len() != w.hosts as usize {
                return Err(format!(
                    "job {ji}: workload has {} ranks but {} hosts assigned",
                    w.hosts,
                    job.hosts.len()
                ));
            }
            let mut routers = Vec::with_capacity(job.hosts.len());
            for &h in &job.hosts {
                let Some(&r) = host_routers.get(h as usize) else {
                    return Err(format!(
                        "job {ji}: host index {h} out of range ({} hosts)",
                        host_routers.len()
                    ));
                };
                if std::mem::replace(&mut taken[h as usize], true) {
                    return Err(format!("job {ji}: host {h} assigned to two jobs"));
                }
                routers.push(r);
            }

            let nmsg = w.messages as usize;
            let InverseEdges {
                dependents,
                receivers,
            } = w.inverse();
            let mut msg_phase: Vec<u32> = vec![0; nmsg];
            let mut deps_left: Vec<u32> = Vec::with_capacity(w.tasks.len());
            let mut timers = BinaryHeap::new();
            for (ti, t) in (0..).zip(&w.tasks) {
                let deps = (w.after(ti).len() + w.recvs(ti).len()) as u32;
                if deps == 0 {
                    timers.push(Reverse((t.compute, ti)));
                }
                deps_left.push(deps);
                for s in w.sends(ti) {
                    msg_phase[s.msg as usize] = t.phase;
                }
            }
            let max_phase = w.tasks.iter().map(|t| t.phase).max().unwrap_or(0);
            states.push(JobState {
                routers,
                pending_tasks: w.tasks.len() as u32,
                pending_msgs: w.messages,
                workload: w,
                dependents,
                receivers,
                deps_left,
                msg_pkts_left: vec![u32::MAX; nmsg],
                msg_phase,
                timers,
                completion: None,
                phases: vec![
                    PhaseAcc {
                        start: u32::MAX,
                        end: 0,
                        messages: 0,
                    };
                    max_phase as usize + 1
                ],
            });
        }
        Ok(WorkloadDriver {
            jobs: states,
            pkt_map: Vec::new(),
            packet_flits: u32::from(packet_flits),
        })
    }

    /// A single job occupying the first `workload.hosts` hosts of `topo`.
    pub fn single(
        topo: &Topology,
        workload: Workload,
        packet_flits: u16,
    ) -> Result<WorkloadDriver, String> {
        WorkloadDriver::new(topo, vec![JobAssignment::solo(workload)], packet_flits)
    }

    /// Fires every task whose compute timer expired at or before
    /// `cycle`, returning the message releases for the engine to admit.
    /// Firing a task can ready a zero-compute successor in the same
    /// cycle; the loop drains until quiescent.
    pub(crate) fn poll(&mut self, cycle: u32) -> Vec<Release> {
        let mut out = Vec::new();
        let pf = self.packet_flits;
        for (ji, job) in self.jobs.iter_mut().enumerate() {
            while let Some(&Reverse((t, tid))) = job.timers.peek() {
                if t > cycle {
                    break;
                }
                job.timers.pop();
                job.pending_tasks -= 1;
                let task = job.workload.tasks[tid as usize];
                job.note_phase(task.phase, cycle, false);
                let src = job.routers[task.host as usize];
                for s in job.workload.sends(tid) {
                    let packets = s.flits.div_ceil(pf);
                    job.msg_pkts_left[s.msg as usize] = packets;
                    out.push(Release {
                        src,
                        dst: job.routers[s.dst as usize],
                        job: ji as u32,
                        msg: s.msg,
                        packets,
                    });
                }
                for &child in job.dependents.get(tid as usize) {
                    satisfy(
                        &mut job.deps_left,
                        &mut job.timers,
                        &job.workload.tasks,
                        child,
                        cycle,
                    );
                }
                job.check_complete(cycle);
            }
        }
        out
    }

    /// Records a packet the engine admitted for message `msg` of `job`.
    pub(crate) fn register_packet(&mut self, pkt: u32, job: u32, msg: u32) {
        let i = pkt as usize;
        if i >= self.pkt_map.len() {
            self.pkt_map.resize(i + 1, UNOWNED);
        }
        debug_assert_eq!(self.pkt_map[i], UNOWNED, "packet id {pkt} registered twice");
        self.pkt_map[i] = (job, msg);
    }

    /// Engine callback at a tail-flit ejection. Ignores packets the
    /// driver does not own (none exist today — closed-loop runs have no
    /// Bernoulli traffic — but the contract is forward-compatible with
    /// mixed open/closed traffic).
    pub(crate) fn on_packet_delivered(&mut self, pkt: u32, cycle: u32) {
        let Some(slot) = self.pkt_map.get_mut(pkt as usize) else {
            return;
        };
        let (ji, msg) = std::mem::replace(slot, UNOWNED);
        if (ji, msg) == UNOWNED {
            return;
        }
        let job = &mut self.jobs[ji as usize];
        let left = &mut job.msg_pkts_left[msg as usize];
        debug_assert!(
            *left > 0 && *left != u32::MAX,
            "unreleased message delivered"
        );
        *left -= 1;
        if *left > 0 {
            return;
        }
        // Message fully delivered.
        job.pending_msgs -= 1;
        job.note_phase(job.msg_phase[msg as usize], cycle, true);
        for &r in job.receivers.get(msg as usize) {
            satisfy(
                &mut job.deps_left,
                &mut job.timers,
                &job.workload.tasks,
                r,
                cycle,
            );
        }
        job.check_complete(cycle);
    }

    /// Whether every job has completed.
    pub fn done(&self) -> bool {
        self.jobs.iter().all(|j| j.completion.is_some())
    }

    /// The earliest armed compute-timer cycle across every job, if any.
    /// Bounds the engine's idle leap: with the network empty, the next
    /// cycle anything can happen is the next timer expiry.
    pub(crate) fn next_timer_cycle(&self) -> Option<u32> {
        self.jobs
            .iter()
            .filter_map(|j| j.timers.peek().map(|&Reverse((t, _))| t))
            .min()
    }

    /// Largest job makespan (`None` until every job completes).
    /// Makespan counts elapsed cycles: a job completing at cycle `c`
    /// took `c + 1` (matching the engine's latency convention).
    pub fn global_makespan(&self) -> Option<u32> {
        self.jobs
            .iter()
            .map(|j| j.completion.map(|c| c + 1))
            .collect::<Option<Vec<u32>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// Payload flits of messages delivered so far (excludes the
    /// padding of the final partial packet of odd-sized messages).
    pub fn delivered_payload_flits(&self) -> u64 {
        self.jobs
            .iter()
            .flat_map(|j| {
                let w = &j.workload;
                (0..w.tasks.len() as TaskId)
                    .flat_map(|t| w.sends(t))
                    .filter(|s| j.msg_pkts_left[s.msg as usize] == 0)
                    .map(|s| u64::from(s.flits))
            })
            .sum()
    }

    /// Per-job results (makespan, algorithmic bandwidth, phase
    /// breakdown) in job order.
    pub fn results(&self) -> Vec<JobResult> {
        self.jobs
            .iter()
            .map(|j| {
                let makespan = j.completion.map(|c| c + 1);
                let payload_flits = j.workload.total_flits();
                JobResult {
                    name: j.workload.name.clone(),
                    ranks: j.routers.len() as u32,
                    makespan,
                    messages: u64::from(j.workload.messages),
                    messages_delivered: u64::from(j.workload.messages - j.pending_msgs),
                    payload_flits,
                    alg_bandwidth: makespan
                        .map_or(0.0, |m| payload_flits as f64 / f64::from(m.max(1))),
                    phases: j
                        .phases
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.start != u32::MAX)
                        .map(|(i, p)| PhaseResult {
                            phase: i as u32,
                            start: p.start,
                            end: p.end,
                            messages: p.messages,
                        })
                        .collect(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_topo::PolarFlyTopo;
    use pf_workload::{ring_allreduce, WorkloadBuilder};

    #[test]
    fn driver_rejects_overlapping_jobs() {
        let topo = PolarFlyTopo::new(5, 2).unwrap();
        let w = ring_allreduce(3, 4, 0);
        let jobs = vec![
            JobAssignment {
                workload: w.clone(),
                hosts: vec![0, 1, 2],
            },
            JobAssignment {
                workload: w,
                hosts: vec![2, 3, 4],
            },
        ];
        let err = WorkloadDriver::new(&topo, jobs, 4).unwrap_err();
        assert!(err.contains("two jobs"), "{err}");
    }

    #[test]
    fn driver_rejects_empty_job_list() {
        let topo = PolarFlyTopo::new(5, 2).unwrap();
        let err = WorkloadDriver::new(&topo, vec![], 4).unwrap_err();
        assert!(err.contains("no jobs"), "{err}");
    }

    #[test]
    fn driver_rejects_rank_count_mismatch() {
        let topo = PolarFlyTopo::new(5, 2).unwrap();
        let jobs = vec![JobAssignment {
            workload: ring_allreduce(3, 4, 0),
            hosts: vec![0, 1],
        }];
        let err = WorkloadDriver::new(&topo, jobs, 4).unwrap_err();
        assert!(err.contains("ranks"), "{err}");
    }

    #[test]
    fn dag_advances_on_delivery_callbacks() {
        // Two tasks: t0 fires at cycle 0 and sends one 4-flit message;
        // t1 (compute 3) waits on it. Simulate the engine by hand.
        let topo = PolarFlyTopo::new(5, 2).unwrap();
        let mut b = WorkloadBuilder::new("pp", 2);
        let t0 = b.task(0, 0, 0);
        let m = b.send(t0, 1, 4);
        let t1 = b.task(1, 3, 1);
        b.recv(t1, m);
        let mut d = WorkloadDriver::single(&topo, b.build(), 4).unwrap();

        let rels = d.poll(0);
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].packets, 1);
        assert!(!d.done());
        d.register_packet(77, rels[0].job, rels[0].msg);

        // Nothing fires until delivery.
        assert!(d.poll(5).is_empty());
        d.on_packet_delivered(77, 9);
        // t1 readied at 9 with compute 3: fires at 12, not 11.
        assert!(d.poll(11).is_empty());
        assert!(!d.done());
        assert!(d.poll(12).is_empty()); // t1 has no sends
        assert!(d.done());
        let res = d.results();
        assert_eq!(res[0].makespan, Some(13));
        assert_eq!(res[0].messages_delivered, 1);
        assert_eq!(res[0].phases.len(), 2);
        assert_eq!(res[0].phases[1].end, 12);
    }

    #[test]
    fn odd_sized_messages_round_up_to_packets() {
        let topo = PolarFlyTopo::new(5, 2).unwrap();
        let mut b = WorkloadBuilder::new("odd", 2);
        let t0 = b.task(0, 0, 0);
        b.send(t0, 1, 9); // 9 flits over 4-flit packets = 3 packets
        let mut d = WorkloadDriver::single(&topo, b.build(), 4).unwrap();
        let rels = d.poll(0);
        assert_eq!(rels[0].packets, 3);
        for pkt in 0..3 {
            assert!(!d.done());
            d.register_packet(pkt, 0, rels[0].msg);
        }
        d.on_packet_delivered(0, 4);
        d.on_packet_delivered(2, 5);
        assert!(!d.done());
        d.on_packet_delivered(1, 6);
        assert!(d.done());
        assert_eq!(d.delivered_payload_flits(), 9);
    }
}
