//! Transient-fault control: the engine-side machinery behind
//! [`pf_topo::Topology::with_faults`].
//!
//! A run whose link-fault schedule can still change the network after
//! cycle 0 threads three mechanisms through the cycle loop (all gated
//! behind `Engine::transient`, so healthy and static-failure runs pay one
//! branch per cycle):
//!
//! * **Event queue.** The topology's [`pf_graph::FaultSchedule`] is
//!   resolved into a sorted stream of [`pf_graph::FaultEvent`]s
//!   (link down/up transitions); the engine applies them at the
//!   start of each scheduled cycle, resolving a link event's `(u, v)` to
//!   its two directed ports (`link_ports`) when it fires and flipping
//!   the per-port `link_up` masks.
//! * **In-flight policy.** When a link dies,
//!   [`crate::config::InFlightPolicy`] decides the fate of committed
//!   traffic: `DropRetransmit` removes every victim packet's flits from
//!   the whole network (buffers, pipeline, streams), releases its
//!   wormhole claims, and returns it to its source queue;
//!   `Drain` lets already-committed wormholes finish crossing (tracked
//!   per port so the down-link invariant still holds).
//! * **Staged re-convergence.** A fault event triggers a table rebuild
//!   on the current residual (the Rayon-parallel all-pairs BFS of
//!   [`RouteTables::build_without`]; the residual is read off the
//!   `link_up` masks, the one record of which links are down), but the *old*
//!   tables keep serving routing and UGAL distance queries until the
//!   rebuild swaps in atomically at `convergence_delay` cycles after the
//!   burst's first event — the distribution latency of a real control
//!   plane. In the stale window,
//!   a packet whose stale next hop is dead is *fast-rerouted*: it pins
//!   onto the pending (re-converged) tables for the rest of its path —
//!   modelling precomputed link-failure backup routes — which keeps
//!   every path loop-free and hop-bounded (a strictly-decreasing stale
//!   prefix, one transition, a strictly-decreasing residual-minimal
//!   suffix), so the hop-indexed VC budget survives the window.
//!
//! [`pf_graph::FaultSchedule::validate`] keeps every fault state
//! connected, so every router stays up and both the serving and the
//! pending tables route every pair at every cycle.

use crate::config::{InFlightPolicy, SimConfig};
use crate::engine::Engine;
use crate::router::{PortMap, NONE32};
use crate::tables::RouteTables;
use crate::telemetry::TRACE_RETRANSMIT;
use crate::Routing;
use pf_graph::{Csr, FaultEvent, FaultEventKind, FaultSchedule};
use std::borrow::Cow;

/// The two directed ports of link `{u, v}`: `u`'s port toward `v` — the
/// *sender's* id of direction `u → v`, which is how the engine indexes
/// `link_up`, `draining` and every route claim — and its
/// [`PortMap::peer`], `v`'s port toward `u`.
#[expect(
    clippy::expect_used,
    reason = "every link reaching here passed the schedule's edge check (`FaultSchedule::active_at` / `resolved_events`) when the engine was built; a non-edge is a schedule bug"
)]
pub(crate) fn link_ports(g: &Csr, geom: &PortMap, u: u32, v: u32) -> (u32, u32) {
    let iu = g
        .neighbors(u)
        .binary_search(&v)
        .expect("scheduled link must be a graph edge");
    let iv = g
        .neighbors(v)
        .binary_search(&u)
        .expect("scheduled link must be a graph edge");
    (geom.tx(u, iu), geom.tx(v, iv))
}

/// Asserts that `cfg` gives `routing` a VC class per hop of its longest
/// path, `need` hops at residual `diameter`. Residual minimal paths
/// exceed the healthy diameter and detours compose two of them; without
/// a class per hop the hop-indexed deadlock-freedom argument silently
/// breaks (the allocator clamps to the last class), so a faulted run
/// fails loudly instead — at construction and at every table
/// re-convergence.
pub(crate) fn assert_vc_budget(cfg: &SimConfig, routing: Routing, need: u32, diameter: u32) {
    assert!(
        u32::from(cfg.vc_classes) >= need,
        "faulted run under {} needs vc_classes >= {need} \
         (worst-case hops at residual diameter {diameter}) but got {}; \
         raise SimConfig::vc_classes",
        routing.label(),
        cfg.vc_classes
    );
}

/// Transient-fault state and counters. One inert instance
/// ([`FaultCtl::default`]: empty vectors, no events) exists on every
/// non-transient engine so the hot paths can gate on `Engine::transient`
/// without `Option` juggling.
#[derive(Default)]
pub(crate) struct FaultCtl {
    /// The schedule's resolved transitions, in cycle order.
    pub(crate) events: Vec<FaultEvent>,
    pub(crate) next_event: usize,
    /// Per sender's port, the wormhole claims still allowed to cross a
    /// dead link under the drain policy (sized `num_ports` on transient
    /// runs).
    pub(crate) draining: Vec<u32>,
    /// Cycle at which the pending table rebuild swaps in. Set by the
    /// *first* event of a burst and not postponed by later ones: a
    /// rolling burst must not starve convergence.
    pub(crate) pending_swap: Option<u32>,
    /// Tables rebuilt on the current residual at the last fault event —
    /// the fast-reroute oracle serving packets whose stale next hop is
    /// dead, until they swap in as the serving tables at `pending_swap`.
    pub(crate) pending_tables: Option<RouteTables>,
    /// Whether `pending_tables` is out of date with the current residual.
    pub(crate) pending_dirty: bool,

    pub(crate) dropped_flits: u64,
    pub(crate) retransmitted_packets: u64,
    pub(crate) table_swaps: u32,
    pub(crate) down_link_flits: u64,
}

impl FaultCtl {
    /// Builds the event queue from a schedule.
    pub(crate) fn from_schedule(schedule: &FaultSchedule, g: &Csr, num_ports: usize) -> FaultCtl {
        FaultCtl {
            events: schedule.resolved_events(g),
            draining: vec![0; num_ports],
            ..Default::default()
        }
    }

    /// The next cycle at which the fault machinery must run: the next
    /// scheduled event or the staged table swap, whichever comes first
    /// (`None` once the schedule is exhausted and no swap is pending).
    /// Bounds the engine's idle leap — skipping past either would shift
    /// its effects to a later cycle.
    pub(crate) fn next_wake(&self) -> Option<u32> {
        let ev = self.events.get(self.next_event).map(|e| e.cycle);
        match (ev, self.pending_swap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl Engine<'_> {
    /// Applies every fault event scheduled at or before `cycle`,
    /// rebuilds the pending (fast-reroute) tables for the new residual,
    /// and schedules the re-convergence swap. The swap deadline is set
    /// by the burst's *first* event and not postponed by later ones — a
    /// rolling burst must not starve convergence.
    pub(crate) fn apply_fault_events(&mut self, cycle: u32) {
        let mut applied = false;
        while self.faults.next_event < self.faults.events.len()
            && self.faults.events[self.faults.next_event].cycle <= cycle
        {
            let ev = self.faults.events[self.faults.next_event];
            self.faults.next_event += 1;
            applied |= match ev.kind {
                FaultEventKind::LinkDown(u, v) => {
                    let (port_uv, port_vu) = link_ports(self.graph, &self.geom, u, v);
                    self.fault_link_down(port_uv, port_vu)
                }
                FaultEventKind::LinkUp(u, v) => {
                    let (port_uv, port_vu) = link_ports(self.graph, &self.geom, u, v);
                    self.fault_link_up(port_uv, port_vu);
                    true
                }
            };
        }
        if applied {
            self.faults.pending_dirty = true;
            if self.faults.pending_swap.is_none() {
                self.faults.pending_swap = Some(cycle.saturating_add(self.cfg.convergence_delay));
            }
            // The fast-reroute oracle must reflect the newest residual
            // whenever a stale next hop can be dead. With every link up
            // the stale tables cannot point at a dead link, so the
            // rebuild waits until the swap deadline.
            if self.degraded {
                self.build_pending_tables();
            }
        }
    }

    /// Rebuilds `pending_tables` on the current residual (the same
    /// constructor a run's tables come from, [`RouteTables::build_without`]).
    /// The residual is read off `link_up`: a link is down iff its directed
    /// ports are.
    fn build_pending_tables(&mut self) {
        let mut down = Vec::new();
        for u in 0..self.n as u32 {
            for (i, &v) in self.graph.neighbors(u).iter().enumerate() {
                if u < v && !self.link_up[self.geom.tx(u, i) as usize] {
                    down.push((u, v));
                }
            }
        }
        let new = RouteTables::build_without(self.graph, &down, self.cfg.seed);
        // Re-converged minimal paths ride the residual diameter: re-check
        // the hop-indexed VC budget the constructor checked for the
        // initial state.
        let diameter = new.max_finite_dist();
        assert_vc_budget(
            &self.cfg,
            self.routing,
            self.routing.max_hops(diameter),
            diameter,
        );
        self.faults.pending_tables = Some(new);
        self.faults.pending_dirty = false;
    }

    /// Atomically swaps the pending tables in as the serving tables once
    /// the convergence delay has elapsed.
    pub(crate) fn maybe_swap_tables(&mut self, cycle: u32) {
        let Some(ready) = self.faults.pending_swap else {
            return;
        };
        if cycle < ready {
            return;
        }
        self.faults.pending_swap = None;
        if self.faults.pending_dirty || self.faults.pending_tables.is_none() {
            self.build_pending_tables();
        }
        #[expect(
            clippy::expect_used,
            reason = "`build_pending_tables` just filled the slot; an empty one is a re-convergence bug where a panic beats serving stale tables forever"
        )]
        let new = self
            .faults
            .pending_tables
            .take()
            .expect("pending tables built above");
        self.tables = Cow::Owned(new);
        self.faults.table_swaps += 1;
    }

    /// Returns whether the event changed network state: the cycle-0
    /// windows of a schedule were already masked at construction (and
    /// baked into the caller-built tables), so they must not trigger a
    /// pointless rebuild-and-swap.
    fn fault_link_down(&mut self, port_uv: u32, port_vu: u32) -> bool {
        let already_down = !self.link_up[port_uv as usize];
        self.link_up[port_uv as usize] = false;
        self.link_up[port_vu as usize] = false;
        self.degraded = true;
        if already_down {
            return false;
        }
        match self.cfg.fault_policy {
            InFlightPolicy::Drain => self.count_draining(port_uv, port_vu),
            InFlightPolicy::DropRetransmit => self.drop_and_retransmit(&[port_uv, port_vu]),
        }
        true
    }

    fn fault_link_up(&mut self, port_uv: u32, port_vu: u32) {
        self.link_up[port_uv as usize] = true;
        self.link_up[port_vu as usize] = true;
        // Any claim still draining across the link is ordinary traffic now.
        self.faults.draining[port_uv as usize] = 0;
        self.faults.draining[port_vu as usize] = 0;
        self.degraded = self.link_up.contains(&false);
    }

    /// Drain policy: counts the wormhole claims committed across the two
    /// directions of a dying link (claims and `draining` are both keyed
    /// by the sender's port); their remaining flits may still cross it
    /// until each tail passes.
    fn count_draining(&mut self, port_uv: u32, port_vu: u32) {
        for q in 0..self.credits.len() {
            let Some(o) = self.claim_output(q) else {
                continue;
            };
            let rp = (o / self.vcs) as u32;
            if rp == port_uv || rp == port_vu {
                self.faults.draining[rp as usize] += 1;
            }
        }
        for r in 0..self.n {
            for s in 0..self.inj.len(r) {
                let slot = self.inj.slot(r, s);
                if self.inj.next_seq[slot] >= self.cfg.packet_flits {
                    continue; // fully injected; claim already released
                }
                let op = self.inj.out_buf[slot] / self.vcs as u32;
                if op == port_uv || op == port_vu {
                    self.faults.draining[op as usize] += 1;
                }
            }
        }
    }

    /// Drain bookkeeping at a tail traversal of `out_port` (the sender's
    /// port): one committed claim finished crossing the (possibly dead)
    /// link.
    #[inline]
    pub(crate) fn note_tail_traversed(&mut self, out_port: u32) {
        if !self.link_up[out_port as usize] && self.faults.draining[out_port as usize] > 0 {
            self.faults.draining[out_port as usize] -= 1;
        }
    }

    /// The drop-and-retransmit path of a link death (policy
    /// `DropRetransmit`).
    ///
    /// `dead_ports` names the dead directed links by *sender's* port
    /// (what route claims and lanes hold); in-flight
    /// [`crate::flow::Arrival`]s are addressed by the receiver's input
    /// port, and the two id spaces meet through [`PortMap::peer`].
    ///
    /// Victims are packets with a flit in flight on a dead link, a
    /// wormhole claim across one that already carried flits, or an
    /// injection stream whose first hop died. Every victim flit is removed wherever it is (credits restored),
    /// every victim claim released, and the packet returns to its source
    /// queue for a fresh injection. Claims across a dead port that have
    /// not sent a flit yet are simply released — the head re-routes over
    /// live links without a retransmission.
    ///
    /// O(network state), which is fine at fault-event frequency.
    fn drop_and_retransmit(&mut self, dead_ports: &[u32]) {
        let vcs = self.vcs as u32;
        let mut victim = vec![false; self.packets.capacity()];
        let mut victims: Vec<u32> = Vec::new();

        // Pass A1: flits in flight on a dead link (an arrival is addressed
        // to the receiver's buffer; its sender is that port's peer).
        for a in self.pipeline.iter() {
            if dead_ports.contains(&self.geom.peer(a.buf / vcs)) && !victim[a.pkt as usize] {
                victim[a.pkt as usize] = true;
                victims.push(a.pkt);
            }
        }

        // Pass A2: wormhole claims across a dead link (`claim_output`
        // is on the claiming router's tx port; `out_owner` names the
        // claim's packet). A claim whose head flit is still at the front
        // (seq 0) sent nothing across — it is released for a live
        // re-route; anything else split its packet over the dead link and
        // the packet must restart.
        for q in 0..self.credits.len() {
            let Some(o) = self.claim_output(q) else {
                continue;
            };
            let rp = o as u32 / vcs;
            if !dead_ports.contains(&rp) {
                continue;
            }
            let pkt = self.out_owner[o];
            debug_assert_ne!(pkt, NONE32, "claim without owner");
            let untouched = matches!(self.bufs.front(q), Some((p, 0, _)) if p == pkt);
            if untouched {
                self.out_owner[o] = NONE32;
                self.bufs.set_claim(q, None);
                self.note_tail_traversed(rp);
            } else if !victim[pkt as usize] {
                victim[pkt as usize] = true;
                victims.push(pkt);
            }
        }

        // Pass A3: injection streams whose first hop died (`out_buf` is a
        // tx-side index).
        for r in 0..self.n {
            for s in 0..self.inj.len(r) {
                let slot = self.inj.slot(r, s);
                let pkt = self.inj.pkt[slot];
                let hit = dead_ports.contains(&(self.inj.out_buf[slot] / vcs));
                if hit && !victim[pkt as usize] {
                    victim[pkt as usize] = true;
                    victims.push(pkt);
                }
            }
        }

        if victims.is_empty() {
            return;
        }

        // Pass B1: purge the link pipeline (every victim flit in flight,
        // which covers everything addressed to a dead port).
        let removed = self.pipeline.purge(|a| victim[a.pkt as usize]);
        for a in &removed {
            // The sender spent this credit; hand it back to *its* counter.
            let sender = self.credit_of(a.buf / vcs, (a.buf % vcs) as usize);
            self.credits[sender] += 1;
        }
        self.faults.dropped_flits += removed.len() as u64;

        // Pass B2: purge victim flits from every input buffer (the store
        // drops them from its per-port indexes too).
        for q in 0..self.credits.len() {
            let (port, vc) = (q / self.vcs, q % self.vcs);
            let removed = self.bufs.purge_queue(port, vc, |p| victim[p as usize]);
            if removed > 0 {
                let sender = self.credit_of(port as u32, vc);
                self.credits[sender] += removed as u16;
                self.faults.dropped_flits += u64::from(removed);
            }
        }

        // Pass B3: release every wormhole claim a victim still holds
        // anywhere along its path. A released claim that was counted as
        // draining across some other dying link will never see its tail
        // traverse — surrender its drain slot here, or the `draining > 0`
        // guard would exempt that port from down-link detection until
        // repair.
        for q in 0..self.credits.len() {
            let Some(o) = self.claim_output(q) else {
                continue;
            };
            if victim[self.out_owner[o] as usize] {
                self.out_owner[o] = NONE32;
                self.bufs.set_claim(q, None);
                self.note_tail_traversed(o as u32 / vcs);
            }
        }

        // Pass B4: kill victim injection streams (same drain surrender as
        // Pass B3 for streams counted across a dying first hop).
        for r in 0..self.n {
            let mut s = 0;
            while s < self.inj.len(r) {
                let slot = self.inj.slot(r, s);
                if victim[self.inj.pkt[slot] as usize] {
                    if self.inj.next_seq[slot] < self.cfg.packet_flits {
                        self.out_owner[self.inj.out_buf[slot] as usize] = NONE32;
                        self.note_tail_traversed(self.inj.out_buf[slot] / vcs);
                    }
                    self.inj.remove(r, s);
                } else {
                    s += 1;
                }
            }
            // Purged flits and killed streams may have fully idled the
            // router; a doze whose flits were purged away is canceled
            // here too. Victims returning to a source queue in Pass B5
            // re-wake their sources explicitly.
            self.maybe_sleep(r);
        }

        // Pass B5: return victims to their source queues (original birth
        // cycle and measurement flag kept — retransmission latency is
        // real latency), recharging the minimal-first-hop VOQ signal.
        for &pkt in &victims {
            let p = pkt as usize;
            self.packets.mid[p] = NONE32;
            self.packets.passed_mid[p] = false;
            self.packets.frr_pinned[p] = false;
            let (src, dst) = (self.packets.src[p], self.packets.dst[p]);
            self.packets.min_first_link[p] = self.charge_voq(src, dst);
            self.src_q[src as usize].push_back(pkt);
            self.skip.wake_now(src as usize);
            if self.telemetry.tracing() {
                self.telemetry
                    .trace(pkt, TRACE_RETRANSMIT, src, 0, 0, self.cycle);
            }
        }
        self.faults.retransmitted_packets += victims.len() as u64;
    }
}

#[cfg(test)]
mod tests;
