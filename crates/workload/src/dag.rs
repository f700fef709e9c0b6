//! The per-host task DAG an application workload compiles to.
//!
//! A [`Workload`] is a set of [`Task`]s over `hosts` logical ranks. A
//! task becomes *ready* when every predecessor in [`Workload::after`]
//! has fired and every message in [`Workload::recvs`] has fully arrived
//! at the task's host; `compute` cycles later it *fires*, issuing its
//! [`Workload::sends`] as network messages. The driver layer (`pf_sim`)
//! maps ranks to routers, turns messages into packets, and advances the
//! DAG on per-packet completion callbacks; a job is complete when every
//! task has fired and every message has been delivered.
//!
//! Message identity is explicit: each [`SendSpec`] carries a [`MsgId`]
//! unique within the workload, and a receive dependency names the
//! message it waits for — there is no tag matching. The
//! [`WorkloadBuilder`] hands out ids; [`Workload::validate`] checks the
//! wiring (every receive matched by exactly one send addressed to the
//! receiving host) and that the whole DAG is schedulable (acyclic
//! across both `after` edges and send→receive edges).
//!
//! Edges live in three [`FlatLists`] beside the task array (one offset
//! per task, one item per edge), so a task is 12 bytes and owns no heap
//! memory; [`Workload::inverse`] derives the reversed lists (dependents
//! per task, receivers per message) in the same form.

/// Index of a task within its [`Workload`].
pub type TaskId = u32;
/// Identity of a message within its [`Workload`].
pub type MsgId = u32;

/// One message issued when a task fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendSpec {
    /// Destination rank (must differ from the sending task's host).
    pub dst: u32,
    /// Payload size in flits (≥ 1; the driver rounds up to whole
    /// packets).
    pub flits: u32,
    /// Workload-unique message id receive dependencies refer to.
    pub msg: MsgId,
}

/// One node of the per-host dependency DAG; its edges are the
/// workload's per-task lists ([`Workload::recvs`], [`Workload::after`],
/// [`Workload::sends`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Rank this task runs on.
    pub host: u32,
    /// Compute delay (cycles) between readiness and firing.
    pub compute: u32,
    /// Phase tag for the latency breakdown (e.g. collective step).
    pub phase: u32,
}

// No heap per task: a field that allocates would not fit.
const _: () = assert!(std::mem::size_of::<Task>() == 12);
const _: () = assert!(std::mem::size_of::<SendSpec>() == 12);

/// Panics naming the `u32` ceiling on task ids, message ids and list
/// offsets, instead of letting a count wrap.
#[cold]
fn over_u32(what: &str) -> ! {
    panic!("a workload holds at most 2^32 - 1 {what} (ids and offsets are u32)")
}

/// Per-key lists stored flat: key `k`'s items are
/// `items[offsets[k]..offsets[k + 1]]`, in one allocation for every
/// key's items and one for the `keys + 1` offsets.
#[derive(Debug, Clone)]
pub struct FlatLists<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> FlatLists<T> {
    /// Groups `(key, item)` pairs into `keys` lists with one stable
    /// counting sort: each list keeps its items in `pairs` order. The
    /// iterator is walked twice (count, then place).
    ///
    /// Panics if a key is `≥ keys`, or if there are 2^32 or more items.
    pub(crate) fn group<I>(keys: usize, pairs: I) -> FlatLists<T>
    where
        I: Iterator<Item = (u32, T)> + Clone,
    {
        let mut offsets = vec![0u32; keys + 1];
        for (k, _) in pairs.clone() {
            let c = &mut offsets[k as usize + 1];
            *c = c.checked_add(1).unwrap_or_else(|| over_u32("list items"));
        }
        for k in 0..keys {
            offsets[k + 1] = offsets[k + 1]
                .checked_add(offsets[k])
                .unwrap_or_else(|| over_u32("list items"));
        }
        // Every slot is overwritten below; the first item is only filler.
        let mut items = match pairs.clone().next() {
            Some((_, fill)) => vec![fill; offsets[keys] as usize],
            None => Vec::new(),
        };
        let mut next = offsets[..keys].to_vec();
        for (k, item) in pairs {
            let slot = &mut next[k as usize];
            items[*slot as usize] = item;
            *slot += 1;
        }
        FlatLists { offsets, items }
    }

    /// Key `k`'s items, in insertion order.
    pub fn get(&self, k: usize) -> &[T] {
        &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Number of keys (lists, empty ones included).
    fn keys(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The two reversed edge lists of a [`Workload`] (see
/// [`Workload::inverse`]).
#[derive(Debug)]
pub struct InverseEdges {
    /// Per task: the tasks whose `after` list names it, ascending.
    pub dependents: FlatLists<TaskId>,
    /// Per message: the tasks whose `recvs` list names it, ascending.
    pub receivers: FlatLists<TaskId>,
}

/// A complete application workload over `hosts` ranks.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (generator + parameters).
    pub name: String,
    /// Number of ranks; tasks and sends address hosts `0..hosts`.
    pub hosts: u32,
    /// The task DAG's nodes; their edges are read through
    /// [`Workload::recvs`], [`Workload::after`] and [`Workload::sends`].
    pub tasks: Vec<Task>,
    /// Total number of messages (`MsgId`s are `0..messages`).
    pub messages: u32,
    recvs: FlatLists<MsgId>,
    after: FlatLists<TaskId>,
    sends: FlatLists<SendSpec>,
}

impl Workload {
    /// Messages that must be fully delivered at task `t`'s host before
    /// it is ready.
    pub fn recvs(&self, t: TaskId) -> &[MsgId] {
        self.recvs.get(t as usize)
    }

    /// Tasks that must have fired before task `t` is ready.
    pub fn after(&self, t: TaskId) -> &[TaskId] {
        self.after.get(t as usize)
    }

    /// Messages task `t` issues when it fires, in release order.
    pub fn sends(&self, t: TaskId) -> &[SendSpec] {
        self.sends.get(t as usize)
    }

    /// Total payload flits across every message.
    pub fn total_flits(&self) -> u64 {
        self.sends.items.iter().map(|s| u64::from(s.flits)).sum()
    }

    /// Per-message `(sender_host, dst_host, flits)`, indexed by [`MsgId`].
    ///
    /// Panics if a message id is out of range or sent twice — call
    /// [`Workload::validate`] first for a diagnosable error.
    pub fn message_table(&self) -> Vec<(u32, u32, u32)> {
        let mut table = vec![(u32::MAX, u32::MAX, 0u32); self.messages as usize];
        for (t, task) in (0..).zip(&self.tasks) {
            for s in self.sends(t) {
                let slot = &mut table[s.msg as usize];
                assert_eq!(slot.0, u32::MAX, "message {} sent twice", s.msg);
                *slot = (task.host, s.dst, s.flits);
            }
        }
        table
    }

    /// The reversed edge lists: per task, the tasks gated behind its
    /// firing (`after` reversed), and per message, the tasks gated
    /// behind its delivery (`recvs` reversed). [`Workload::validate`]'s
    /// schedulability pass and the closed-loop driver both walk these.
    ///
    /// Panics on an out-of-range `after` task or received message —
    /// call [`Workload::validate`] first for a diagnosable error.
    pub fn inverse(&self) -> InverseEdges {
        let tasks = 0..self.tasks.len() as TaskId;
        InverseEdges {
            dependents: FlatLists::group(
                self.tasks.len(),
                tasks
                    .clone()
                    .flat_map(|t| self.after(t).iter().map(move |&a| (a, t))),
            ),
            receivers: FlatLists::group(
                self.messages as usize,
                tasks.flat_map(|t| self.recvs(t).iter().map(move |&m| (m, t))),
            ),
        }
    }

    /// Checks the DAG is well-formed and fully schedulable:
    ///
    /// * at least one task (a task-less job has no completion event and
    ///   would spin a closed-loop run to its deadline);
    /// * hosts and destinations in range, no self-sends, sizes ≥ 1;
    /// * every [`MsgId`] in `0..messages` sent exactly once;
    /// * every receive names an existing message addressed to the
    ///   receiving task's host;
    /// * the dependency graph (`after` edges plus send→receive edges)
    ///   is acyclic, so a topological schedule exists.
    pub fn validate(&self) -> Result<(), String> {
        if self.tasks.is_empty() {
            return Err("workload has no tasks".into());
        }
        let n = self.tasks.len();
        // `build` sizes all three edge lists to the task count; `tasks`
        // is public, so a task pushed afterwards would have none.
        if self.sends.keys() != n {
            return Err(format!(
                "{n} tasks but edge lists for {}: `tasks` edited after build",
                self.sends.keys()
            ));
        }
        // Destination host per message; `u32::MAX` (never a valid host)
        // until the message's send is seen.
        let mut dst_of: Vec<u32> = vec![u32::MAX; self.messages as usize];
        for (ti, t) in (0..).zip(&self.tasks) {
            if t.host >= self.hosts {
                return Err(format!("task {ti}: host {} out of range", t.host));
            }
            for a in self.after(ti) {
                if *a as usize >= n {
                    return Err(format!("task {ti}: after-dependency {a} out of range"));
                }
            }
            for s in self.sends(ti) {
                if s.dst >= self.hosts {
                    return Err(format!("task {ti}: send dst {} out of range", s.dst));
                }
                if s.dst == t.host {
                    return Err(format!("task {ti}: self-send at host {}", t.host));
                }
                if s.flits == 0 {
                    return Err(format!("task {ti}: zero-flit message {}", s.msg));
                }
                let Some(slot) = dst_of.get_mut(s.msg as usize) else {
                    return Err(format!("task {ti}: message id {} out of range", s.msg));
                };
                if *slot != u32::MAX {
                    return Err(format!("message {} sent twice", s.msg));
                }
                *slot = s.dst;
            }
        }
        if let Some(m) = dst_of.iter().position(|&d| d == u32::MAX) {
            return Err(format!("message {m} is never sent"));
        }
        for (ti, t) in (0..).zip(&self.tasks) {
            for &m in self.recvs(ti) {
                let Some(&dst) = dst_of.get(m as usize) else {
                    return Err(format!("task {ti}: receive of unknown message {m}"));
                };
                if dst != t.host {
                    return Err(format!(
                        "task {ti} (host {}): receives message {m} addressed to host {dst}",
                        t.host
                    ));
                }
            }
        }

        // Kahn's algorithm over after-edges and send→receive edges: every
        // task must drain, or a dependency cycle makes the DAG unschedulable.
        let inv = self.inverse();
        let mut indeg: Vec<u32> = (0..n as TaskId)
            .map(|t| (self.after(t).len() + self.recvs(t).len()) as u32)
            .collect();
        let mut ready: Vec<TaskId> = (0..n as TaskId)
            .filter(|&t| indeg[t as usize] == 0)
            .collect();
        let mut scheduled = 0usize;
        while let Some(t) = ready.pop() {
            scheduled += 1;
            let receivers = self
                .sends(t)
                .iter()
                .flat_map(|s| inv.receivers.get(s.msg as usize));
            for &c in inv.dependents.get(t as usize).iter().chain(receivers) {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    ready.push(c);
                }
            }
        }
        if scheduled != n {
            return Err(format!(
                "dependency cycle: only {scheduled} of {n} tasks schedulable"
            ));
        }
        Ok(())
    }
}

/// Incremental [`Workload`] constructor used by every generator.
///
/// Edges may be added to any earlier task, in any order; [`build`]
/// groups them per task, keeping the order each task's edges were added
/// in (a task's sends are released in that order).
///
/// [`build`]: WorkloadBuilder::build
///
/// ```
/// use pf_workload::WorkloadBuilder;
///
/// let mut b = WorkloadBuilder::new("ping-pong", 2);
/// let ping = b.task(0, 0, 0);
/// let m0 = b.send(ping, 1, 8);
/// let pong = b.task(1, 5, 1);
/// b.recv(pong, m0);
/// b.send(pong, 0, 8);
/// let w = b.build();
/// assert_eq!(w.messages, 2);
/// assert_eq!(w.recvs(pong), &[m0]);
/// w.validate().unwrap();
/// ```
pub struct WorkloadBuilder {
    name: String,
    hosts: u32,
    tasks: Vec<Task>,
    next_msg: MsgId,
    /// `(task, item)` in call order; [`WorkloadBuilder::build`] groups
    /// them.
    recvs: Vec<(TaskId, MsgId)>,
    after: Vec<(TaskId, TaskId)>,
    sends: Vec<(TaskId, SendSpec)>,
}

impl WorkloadBuilder {
    /// Starts an empty workload over `hosts` ranks (≥ 2 for any
    /// workload that communicates).
    pub fn new(name: impl Into<String>, hosts: u32) -> WorkloadBuilder {
        WorkloadBuilder {
            name: name.into(),
            hosts,
            tasks: Vec::new(),
            next_msg: 0,
            recvs: Vec::new(),
            after: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Adds a task at `host` with the given compute delay and phase tag.
    ///
    /// Panics past 2^32 - 1 tasks.
    pub fn task(&mut self, host: u32, compute: u32, phase: u32) -> TaskId {
        debug_assert!(host < self.hosts);
        let count = TaskId::try_from(self.tasks.len() + 1).unwrap_or_else(|_| over_u32("tasks"));
        self.tasks.push(Task {
            host,
            compute,
            phase,
        });
        count - 1
    }

    /// Adds a send of `flits` flits to rank `dst` when `task` fires;
    /// returns the new message's id.
    ///
    /// Panics past 2^32 - 1 messages.
    pub fn send(&mut self, task: TaskId, dst: u32, flits: u32) -> MsgId {
        let msg = self.next_msg;
        self.next_msg = msg.checked_add(1).unwrap_or_else(|| over_u32("messages"));
        self.sends.push((task, SendSpec { dst, flits, msg }));
        msg
    }

    /// Makes `task` wait for message `msg` to be delivered at its host.
    pub fn recv(&mut self, task: TaskId, msg: MsgId) {
        self.recvs.push((task, msg));
    }

    /// Makes `task` wait for `pred` to have fired.
    pub fn after(&mut self, task: TaskId, pred: TaskId) {
        self.after.push((task, pred));
    }

    /// Finishes the workload (call [`Workload::validate`] to check it).
    ///
    /// Panics if an edge names a task that was never added.
    pub fn build(self) -> Workload {
        let n = self.tasks.len();
        Workload {
            name: self.name,
            hosts: self.hosts,
            recvs: FlatLists::group(n, self.recvs.iter().copied()),
            after: FlatLists::group(n, self.after.iter().copied()),
            sends: FlatLists::group(n, self.sends.iter().copied()),
            tasks: self.tasks,
            messages: self.next_msg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_pong() -> Workload {
        let mut b = WorkloadBuilder::new("pp", 2);
        let t0 = b.task(0, 0, 0);
        let m = b.send(t0, 1, 4);
        let t1 = b.task(1, 2, 1);
        b.recv(t1, m);
        b.send(t1, 0, 4);
        b.build()
    }

    #[test]
    fn builder_wires_a_valid_dag() {
        let w = ping_pong();
        assert_eq!(w.messages, 2);
        assert_eq!(w.total_flits(), 8);
        w.validate().unwrap();
        let table = w.message_table();
        assert_eq!(table[0], (0, 1, 4));
        assert_eq!(table[1], (1, 0, 4));
        let inv = w.inverse();
        assert_eq!(inv.receivers.get(0), &[1]);
        assert!(inv.receivers.get(1).is_empty());
        assert!(inv.dependents.get(0).is_empty());
    }

    #[test]
    fn validate_rejects_self_send() {
        let mut b = WorkloadBuilder::new("bad", 2);
        let t = b.task(0, 0, 0);
        b.sends.push((
            t,
            SendSpec {
                dst: 0,
                flits: 1,
                msg: 0,
            },
        ));
        b.next_msg = 1;
        assert!(b.build().validate().unwrap_err().contains("self-send"));
    }

    #[test]
    fn validate_rejects_receive_at_wrong_host() {
        let mut b = WorkloadBuilder::new("bad", 3);
        let t0 = b.task(0, 0, 0);
        let m = b.send(t0, 1, 4);
        let t2 = b.task(2, 0, 0);
        b.recv(t2, m); // message addressed to host 1, received at host 2
        assert!(b.build().validate().unwrap_err().contains("addressed to"));
    }

    #[test]
    fn validate_rejects_dependency_cycle() {
        let mut b = WorkloadBuilder::new("cycle", 2);
        let a = b.task(0, 0, 0);
        let c = b.task(1, 0, 0);
        b.after(a, c);
        b.after(c, a);
        assert!(b.build().validate().unwrap_err().contains("cycle"));
    }

    #[test]
    fn validate_rejects_message_cycle() {
        // a sends m0 but waits for m1; b sends m1 but waits for m0.
        let mut b = WorkloadBuilder::new("mcycle", 2);
        let a = b.task(0, 0, 0);
        let c = b.task(1, 0, 0);
        let m0 = b.send(a, 1, 1);
        let m1 = b.send(c, 0, 1);
        b.recv(a, m1);
        b.recv(c, m0);
        assert!(b.build().validate().unwrap_err().contains("cycle"));
    }

    #[test]
    fn validate_rejects_unsent_message() {
        let mut b = WorkloadBuilder::new("orphan", 2);
        b.task(0, 0, 0); // no sends
        let mut w = b.build();
        w.messages = 1;
        assert!(w.validate().unwrap_err().contains("never sent"));
    }

    #[test]
    fn validate_rejects_taskless_workload() {
        // A job with no tasks has no completion event: a closed-loop run
        // would spin to its deadline instead of finishing at cycle 0.
        let w = WorkloadBuilder::new("empty", 2).build();
        assert!(w.validate().unwrap_err().contains("no tasks"));
    }

    #[test]
    fn validate_rejects_tasks_added_after_build() {
        let mut w = ping_pong();
        w.tasks.push(Task {
            host: 0,
            compute: 0,
            phase: 0,
        });
        assert!(w.validate().unwrap_err().contains("edited after"));
    }

    #[test]
    fn the_last_message_id_below_the_limit_is_usable() {
        let mut b = WorkloadBuilder::new("edge", 2);
        let t = b.task(0, 0, 0);
        b.next_msg = MsgId::MAX - 1;
        assert_eq!(b.send(t, 1, 1), MsgId::MAX - 1);
        let w = b.build();
        assert_eq!(w.messages, MsgId::MAX);
        assert_eq!(w.sends(t)[0].msg, MsgId::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "at most 2^32 - 1 messages")]
    fn sending_past_the_message_id_limit_panics() {
        // Message MsgId::MAX would make `messages` 2^32, which wraps.
        let mut b = WorkloadBuilder::new("overflow", 2);
        let t = b.task(0, 0, 0);
        b.next_msg = MsgId::MAX;
        b.send(t, 1, 1);
    }
}
