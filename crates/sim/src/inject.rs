//! Endpoint interface: packet generation, injection streams, and
//! ejection.
//!
//! Each router carries `p` endpoints modelled as aggregate channel
//! bandwidth — `p` flits/cycle of injection and ejection. Generated
//! packets queue per source router (`Engine::src_q`, one `VecDeque` per
//! router); a packet leaves the queue when it wins a class-0 output VC
//! on its first hop, becoming an injection *stream* that feeds one flit
//! per cycle into the switch allocator.

use crate::engine::{net_view, Engine};
use crate::router::NONE32;
use crate::routing::RoutePlan;
use crate::telemetry::{ROUTE_INJECT_DETOUR, ROUTE_INJECT_MIN, TRACE_EJECT};
use rand::Rng;

/// How many queued packets each router considers for injection per
/// cycle: head-of-line relief at the source.
const INJECT_WINDOW: usize = 16;

/// Failed trials before the next success of an iid Bernoulli(`prob`)
/// sequence, by inversion: `u` uniform in [0, 1), `ln_q = ln(1 − prob)`.
/// The cast saturates, so a vanishing `prob` gives `u64::MAX` ("never"),
/// not a wrapped gap; `prob == 1` (`ln_q = −∞`) gives 0.
#[inline]
pub(crate) fn geometric_gap(u: f64, ln_q: f64) -> u64 {
    ((-u).ln_1p() / ln_q) as u64
}

impl Engine<'_> {
    /// Open-loop generation: one Bernoulli(`load / packet_flits`) trial
    /// per endpoint per cycle, walked as a geometric skip-ahead over the
    /// flattened trial sequence (cycle-major, then router, then endpoint)
    /// so a cycle costs its admissions, not its endpoints (DESIGN.md,
    /// "Open-loop generation"). A success landing on a down router is
    /// discarded; packets toward a down (or not-yet-reconverged)
    /// destination are generated but held at the source — see
    /// [`Engine::start_injections`].
    pub(crate) fn generate(&mut self, cycle: u32) {
        #[cfg(test)]
        if self.reference == crate::engine::Reference::PerEndpointDraws {
            return self.generate_reference(cycle);
        }
        let trials = self.gen_trials();
        let base = u64::from(cycle) * trials;
        let end = base + trials;
        let measured_window = self.cfg.in_measurement(cycle);
        let mut r = 0;
        while self.gen_next < end {
            // Successes within a cycle ascend, so the walk through the
            // endpoint prefix sums never restarts.
            let pos = (self.gen_next - base) as u32;
            while self.ep_end[r] <= pos {
                r += 1;
            }
            if !self.transient || self.faults.router_up[r] {
                let dst = self.dests.pick(r as u32, &mut self.rng);
                debug_assert_ne!(dst, r as u32);
                self.admit_packet(r as u32, dst, cycle, measured_window);
            }
            let gap = geometric_gap(self.rng.gen(), self.gen_ln_q);
            self.gen_next = self.gen_next.saturating_add(1).saturating_add(gap);
        }
    }

    /// The law [`Engine::generate`] realises, drawn the direct way: one
    /// uniform per endpoint per cycle. Kept as the oracle of the
    /// equivalence tests only.
    #[cfg(test)]
    fn generate_reference(&mut self, cycle: u32) {
        let prob = self.load / f64::from(self.cfg.packet_flits);
        let measured_window = self.cfg.in_measurement(cycle);
        for r in 0..self.n as u32 {
            if self.transient && !self.faults.router_up[r as usize] {
                continue;
            }
            for _ in 0..self.endpoints[r as usize] {
                if self.rng.gen::<f64>() >= prob {
                    continue;
                }
                let dst = self.dests.pick(r, &mut self.rng);
                self.admit_packet(r, dst, cycle, measured_window);
            }
        }
    }

    /// Admits one packet into router `r`'s source queue: charges the
    /// minimal first-hop link's virtual output queue while the packet
    /// waits at the source (held unroutable packets carry no charge
    /// until they can move), allocates the record, and bumps the
    /// generation counters. Shared by the open-loop generator and the
    /// closed-loop workload release path.
    pub(crate) fn admit_packet(&mut self, r: u32, dst: u32, cycle: u32, measured: bool) -> u32 {
        let min_first_link = self.charge_voq(r, dst, self.dst_routable(r, dst));
        let id = self.packets.alloc(r, dst, cycle, measured, min_first_link);
        if self.telemetry.tracing() {
            // The birth serial (pre-increment `total_generated`) keys
            // the deterministic trace sampler: pool ids are recycled,
            // serials never are.
            self.telemetry
                .trace_admit(id, self.total_generated, r, dst, cycle);
        }
        self.src_q[r as usize].push_back(id);
        // A queued packet makes the router interesting to every later
        // phase this cycle (injection start, lane requests).
        self.skip.wake_now(r as usize);
        self.total_generated += 1;
        if measured {
            self.measured_generated += 1;
        }
        id
    }

    /// Charges the virtual output queue of the minimal first-hop link
    /// from `r` toward `dst` for one packet waiting at the source, and
    /// returns that link (the sender's port) — or `NONE32`, charging
    /// nothing, when the pair is not `routable`: held packets carry no
    /// charge until they can move.
    pub(crate) fn charge_voq(&mut self, r: u32, dst: u32, routable: bool) -> u32 {
        if !routable {
            return NONE32;
        }
        let net = net_view!(self);
        let next = net.min.next(&net, r, dst);
        let link = self.geom.tx(r, net.neighbor_index(r, next));
        self.inj_wait[link as usize] += 1;
        link
    }

    /// Closed-loop generation: polls the workload driver for task
    /// releases due this cycle and admits their packets (all measured —
    /// the whole run is the measurement). A down source router does not
    /// gate the release: the packets queue at the source and inject
    /// once it repairs, exactly like retransmitted victims.
    pub(crate) fn workload_release(&mut self, cycle: u32) {
        let Some(mut driver) = self.workload.take() else {
            // Open-loop runs never reach here (the step loop gates on
            // `workload.is_some()`); releasing with no driver is a no-op.
            return;
        };
        for rel in driver.poll(cycle) {
            for _ in 0..rel.packets {
                let id = self.admit_packet(rel.src, rel.dst, cycle, true);
                driver.register_packet(id, rel.job, rel.msg);
            }
        }
        self.workload = Some(driver);
    }

    /// Ejection: up to `endpoints(r)` flits/cycle leave the network at
    /// their destination router (rotating port priority). Only awake
    /// routers are scanned (a non-awake router has no ready flit, so a
    /// scan over it ejects nothing).
    pub(crate) fn eject(&mut self, cycle: u32) {
        let in_window = self.cfg.in_measurement(cycle);
        self.for_each_awake(|e, r| e.eject_router(r, cycle, in_window));
    }

    /// The ejection scan of one router: its ports holding terminating
    /// flits, ascending from the rotated start and wrapping. Ejecting
    /// clears only already-visited ports' bits, so walking the live set
    /// visits what a snapshot would.
    fn eject_router(&mut self, r: usize, cycle: u32, in_window: bool) {
        let mut budget = self.endpoints[r];
        let (lo, hi) = self.geom.ports(r);
        // Most awake routers hold nothing to eject; one walk settles
        // that before the rotation's division.
        if self.next_port(true, lo, hi).is_none() {
            return;
        }
        let mid = lo + crate::order::eject_start(cycle, (hi - lo) as usize) as u32;
        for (mut from, to) in [(mid, hi), (lo, mid)] {
            while budget > 0 {
                let Some(port) = self.next_port(true, from, to) else {
                    break;
                };
                from = port + 1;
                debug_assert!(self.bufs.term_flits(port as usize) > 0);
                if !self.port_used[port as usize] && self.eject_port(r, port, cycle, in_window) {
                    budget -= 1;
                }
            }
        }
    }

    /// Ejects at most one ready terminating flit from `port` (the
    /// per-port half of [`Engine::eject_router`]); reports whether a
    /// flit left.
    fn eject_port(&mut self, r: usize, port: u32, cycle: u32, in_window: bool) -> bool {
        for vc in crate::router::VcIter(self.bufs.vc_mask(port as usize)) {
            let qidx = port as usize * self.vcs + vc;
            let Some((pkt, seq, ready_at)) = self.bufs.front(qidx) else {
                continue;
            };
            if ready_at > cycle || !self.bufs.head_term(qidx) {
                continue;
            }
            // Eject one flit from this port.
            self.bufs.pop_front(port as usize, vc);
            self.maybe_sleep(r);
            // The freed slot's credit goes back to the upstream sender's
            // counter.
            let sender = self.credit_of(port, vc);
            self.credits[sender] += 1;
            self.port_used[port as usize] = true;
            self.total_flits_ejected += 1;
            if in_window {
                self.window_flits_ejected += 1;
            }
            if seq == self.cfg.packet_flits - 1 {
                self.total_delivered += 1;
                // Per-packet completion callback: the workload
                // driver counts the message delivered once all
                // of its packets have ejected, unblocking the
                // tasks that receive it.
                if let Some(w) = self.workload.as_mut() {
                    w.on_packet_delivered(pkt, cycle);
                }
                if self.packets.measured[pkt as usize] {
                    let latency = cycle - self.packets.birth[pkt as usize] + 1;
                    // Arrival VC class h−1 ⇒ the packet took h hops.
                    let hops = (vc / self.per_class) as u32 + 1;
                    self.stats.record(latency, hops);
                }
                if self.telemetry.tracing() {
                    let latency = cycle - self.packets.birth[pkt as usize] + 1;
                    self.telemetry
                        .trace(pkt, TRACE_EJECT, r as u32, latency, 0, cycle);
                }
                self.packets.release(pkt);
            }
            return true;
        }
        false
    }

    /// Resets per-cycle injection bandwidth budgets (p flits per router —
    /// the aggregate endpoint channel bandwidth).
    pub(crate) fn reset_inj_budgets(&mut self) {
        self.inj_budget.copy_from_slice(self.endpoints);
    }

    /// Scans each source queue's head window, runs the routing plan, and
    /// promotes packets that win a class-0 output VC into injection
    /// streams (head-of-line relief: losers are skipped, not blocking).
    /// Only awake routers are scanned — a non-empty source queue forces
    /// its router awake, so the awake list covers every router this
    /// scan (and its RNG draws) would touch.
    pub(crate) fn start_injections(&mut self) {
        self.for_each_awake(|e, r| e.start_injections_router(r as u32));
    }

    /// The injection-start scan of one router.
    fn start_injections_router(&mut self, r: u32) {
        let ru = r as usize;
        if self.endpoints[ru] == 0 || self.src_q[ru].is_empty() {
            return;
        }
        if self.transient && !self.faults.router_up[ru] {
            return; // a down router injects nothing
        }
        let window = INJECT_WINDOW.min(self.src_q[ru].len());
        let mut started = std::mem::take(&mut self.started_scratch);
        started.clear();
        for idx in 0..window {
            if !self.inj.has_capacity(ru) {
                break;
            }
            let pkt_id = self.src_q[ru][idx];
            let dst = self.packets.dst[pkt_id as usize];
            if !self.dst_routable(r, dst) {
                continue; // held until the destination is routable again
            }
            // Decide min-vs-Valiant and the intermediate (§VII; UGAL
            // decisions read current buffer state).
            let plan = self.routing.plan(&net_view!(self), r, dst, &mut self.rng);
            // A draw that degenerates to an endpoint means "minimal".
            let mid = match plan {
                RoutePlan::Detour(m) if m != r && m != dst => m,
                _ => NONE32,
            };
            self.packets.mid[pkt_id as usize] = mid;
            // First hop toward mid (if any) or dst, in class 0.
            let first_target = if mid != NONE32 { mid } else { dst };
            let Some((port_i, out_port, vc)) = self.route_and_claim(r, pkt_id, first_target, 0)
            else {
                continue; // try the next queued packet (HoL relief)
            };
            let out_idx = out_port as usize * self.vcs + vc as usize;
            let charged = self.packets.min_first_link[pkt_id as usize];
            if charged != NONE32 {
                self.inj_wait[charged as usize] -= 1;
                self.packets.min_first_link[pkt_id as usize] = NONE32;
            }
            let term = self.graph.neighbors(r)[port_i as usize] == dst;
            self.inj.push(ru, pkt_id, out_idx as u32, term);
            if self.telemetry.tracing() {
                let source = if mid != NONE32 {
                    ROUTE_INJECT_DETOUR
                } else {
                    ROUTE_INJECT_MIN
                };
                self.trace_route(pkt_id, r, out_port, vc, source);
            }
            started.push(idx);
        }
        // Every started index is below `INJECT_WINDOW`, and
        // `VecDeque::remove` shifts the shorter side, so each removal
        // moves at most a window's worth of ids, whatever the backlog.
        for &i in started.iter().rev() {
            self.src_q[ru].remove(i);
        }
        self.started_scratch = started;
    }
}

#[cfg(test)]
mod tests;
