//! Property net over every workload generator: whatever the
//! parameters, the produced DAG must be *fully schedulable* — acyclic
//! across `after` and send→receive edges, every receive matched by a
//! send addressed to the receiving host (all checked by
//! `Workload::validate`) — and every message must be consumed by some
//! receive, so a drained DAG certifies the collective semantically
//! completed rather than the network merely emptying. A second
//! property holds the builder's flat per-task edge lists to a per-task
//! `Vec` oracle over random call sequences.

use pf_workload::{
    all_to_all, halo_exchange, multi_job_mix, param_server, recursive_doubling_allreduce,
    ring_allreduce, MsgId, SendSpec, TaskId, Workload, WorkloadBuilder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Validates and additionally checks every message has ≥ 1 receiver.
fn assert_schedulable(w: &Workload, label: &str) {
    w.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut consumed = vec![false; w.messages as usize];
    for t in 0..w.tasks.len() as TaskId {
        for &m in w.recvs(t) {
            consumed[m as usize] = true;
        }
    }
    for (m, c) in consumed.iter().enumerate() {
        assert!(*c, "{label}: message {m} delivered into the void");
    }
    // Hosts that communicate must be within range (validate covers it);
    // the generators also promise at least one message.
    assert!(w.messages > 0, "{label}: empty workload");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collectives_are_schedulable(
        ranks in 2u32..24,
        flits in 1u32..96,
        compute in 0u32..24,
    ) {
        assert_schedulable(
            &ring_allreduce(ranks, flits, compute),
            &format!("ring r={ranks}"),
        );
        assert_schedulable(
            &recursive_doubling_allreduce(ranks, flits, compute),
            &format!("recdoub r={ranks}"),
        );
        assert_schedulable(
            &all_to_all(ranks, flits, compute),
            &format!("alltoall r={ranks}"),
        );
    }

    #[test]
    fn stencils_are_schedulable(
        dx in 1u32..6,
        dy in 1u32..6,
        dz in 1u32..4,
        flits in 1u32..32,
        iters in 1u32..4,
    ) {
        // Skip degenerate all-ones grids (the generator rejects them).
        if dx * dy * dz >= 2 {
            assert_schedulable(
                &halo_exchange(&[dx, dy, dz], flits, iters, 3),
                &format!("halo {dx}x{dy}x{dz} it={iters}"),
            );
        }
    }

    #[test]
    fn param_server_is_schedulable(
        workers in 1u32..16,
        rounds in 1u32..5,
        push in 1u32..64,
        bcast in 1u32..64,
    ) {
        assert_schedulable(
            &param_server(workers, rounds, push, bcast, 5),
            &format!("ps w={workers} rounds={rounds}"),
        );
    }

    #[test]
    fn multi_job_mixes_are_schedulable_and_disjoint(
        hosts in 10u32..60,
        jobs in 1u32..5,
        seed in 0u64..1u64 << 40,
    ) {
        if hosts >= 2 * jobs {
            let mix = multi_job_mix(hosts, jobs, 4, seed);
            let mut taken = vec![false; hosts as usize];
            for (ji, j) in mix.iter().enumerate() {
                assert_schedulable(&j.workload, &format!("mix job {ji} seed={seed}"));
                assert_eq!(j.workload.hosts as usize, j.hosts.len());
                for &h in &j.hosts {
                    assert!(!taken[h as usize], "host {h} in two jobs");
                    taken[h as usize] = true;
                }
            }
        }
    }
}

/// The builder's calls recorded the obvious way: one `Vec` per task per
/// edge kind, pushed in call order.
#[derive(Default)]
struct Oracle {
    hosts: Vec<u32>,
    recvs: Vec<Vec<MsgId>>,
    after: Vec<Vec<TaskId>>,
    sends: Vec<Vec<SendSpec>>,
    messages: u32,
}

impl Oracle {
    fn task(&mut self, host: u32) {
        self.hosts.push(host);
        self.recvs.push(Vec::new());
        self.after.push(Vec::new());
        self.sends.push(Vec::new());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random builder call sequences — edges appended to any earlier
    /// task, interleaved with new tasks, as `validate_rejects_dependency_cycle`
    /// does — group into the same per-task lists, in the same order, as
    /// the oracle; `message_table`, `total_flits` and both inverse lists
    /// follow.
    #[test]
    fn builder_groups_edges_per_task_in_call_order(
        seed in 0u64..u64::MAX,
        calls in 0usize..240,
        hosts in 2u32..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = WorkloadBuilder::new("random", hosts);
        let mut o = Oracle::default();
        for _ in 0..calls {
            if o.hosts.is_empty() || rng.gen_range(0..4u32) == 0 {
                let host = rng.gen_range(0..hosts);
                let t = b.task(host, rng.gen_range(0..8u32), rng.gen_range(0..4u32));
                prop_assert_eq!(t as usize, o.hosts.len());
                o.task(host);
                continue;
            }
            let t = rng.gen_range(0..o.hosts.len() as TaskId);
            match rng.gen_range(0..3u32) {
                0 => {
                    let dst = rng.gen_range(0..hosts);
                    let flits = rng.gen_range(1..64u32);
                    let msg = b.send(t, dst, flits);
                    prop_assert_eq!(msg, o.messages);
                    o.messages += 1;
                    o.sends[t as usize].push(SendSpec { dst, flits, msg });
                }
                1 if o.messages > 0 => {
                    let m = rng.gen_range(0..o.messages);
                    b.recv(t, m);
                    o.recvs[t as usize].push(m);
                }
                _ => {
                    let pred = rng.gen_range(0..o.hosts.len() as TaskId);
                    b.after(t, pred);
                    o.after[t as usize].push(pred);
                }
            }
        }
        let w = b.build();
        prop_assert_eq!(w.messages, o.messages);
        prop_assert_eq!(w.tasks.len(), o.hosts.len());
        let mut table = vec![(u32::MAX, u32::MAX, 0); o.messages as usize];
        let mut dependents = vec![Vec::new(); o.hosts.len()];
        let mut receivers = vec![Vec::new(); o.messages as usize];
        for (t, &host) in (0..).zip(&o.hosts) {
            prop_assert_eq!(w.tasks[t as usize].host, host);
            prop_assert_eq!(w.recvs(t), o.recvs[t as usize].as_slice(), "recvs({})", t);
            prop_assert_eq!(w.after(t), o.after[t as usize].as_slice(), "after({})", t);
            prop_assert_eq!(w.sends(t), o.sends[t as usize].as_slice(), "sends({})", t);
            for s in &o.sends[t as usize] {
                table[s.msg as usize] = (host, s.dst, s.flits);
            }
            for &p in &o.after[t as usize] {
                dependents[p as usize].push(t);
            }
            for &m in &o.recvs[t as usize] {
                receivers[m as usize].push(t);
            }
        }
        prop_assert_eq!(w.message_table(), table);
        let flits: u64 = o.sends.iter().flatten().map(|s| u64::from(s.flits)).sum();
        prop_assert_eq!(w.total_flits(), flits);
        let inv = w.inverse();
        for (p, d) in dependents.iter().enumerate() {
            prop_assert_eq!(inv.dependents.get(p), d.as_slice(), "dependents({})", p);
        }
        for (m, r) in receivers.iter().enumerate() {
            prop_assert_eq!(inv.receivers.get(m), r.as_slice(), "receivers({})", m);
        }
    }
}
