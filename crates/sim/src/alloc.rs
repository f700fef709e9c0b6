//! Switch allocation: iterated separable request–grant–accept (iSLIP
//! style) over transit VC heads and injection streams.
//!
//! Each iteration, every eligible head registers a request at its output
//! link; each requested output grants one requester (rotating priority,
//! packet-continuation first); each input port accepts at most one grant.
//! Accepted flits traverse the switch immediately — the router pipeline
//! is charged downstream as a fixed `pipeline_delay` on arrival (see
//! DESIGN.md).

use crate::engine::{net_view, Engine};
use crate::flow::Arrival;
use crate::router::NONE32;
use crate::routing::HopContext;

/// A requester in the request–grant–accept allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReqSrc {
    /// A transit VC head (input buffer queue index).
    Transit { queue: u32 },
    /// An injection stream (`router`'s stream `stream`).
    Inject { router: u32, stream: u32 },
}

/// One registered request at an output link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req {
    pub(crate) out_buf: u32,
    /// Requesting packet and the sequence of the flit it would send,
    /// cached at build time. Exact: a requester (queue or stream)
    /// registers at most one request per pass, so its head cannot change
    /// between build and its own grant.
    pub(crate) pkt: u32,
    pub(crate) seq: u16,
    /// Whether the packet terminates at the downstream router (cached
    /// from the route claim / injection plan; carried on the departing
    /// flit so the arrival path never reloads the packet's `dst`).
    pub(crate) term: bool,
    pub(crate) src: ReqSrc,
}

/// Arena filler for slots no request was scattered into.
const DUMMY_REQ: Req = Req {
    out_buf: 0,
    pkt: NONE32,
    seq: 0,
    term: false,
    src: ReqSrc::Transit { queue: 0 },
};

impl Engine<'_> {
    /// Resets the per-pass request book-keeping: pending list, touched
    /// outputs, and their span counts (only touched outputs are dirty).
    fn clear_requests(&mut self) {
        for &o in &self.touched_outputs {
            self.req_span[o as usize].1 = 0;
        }
        self.touched_outputs.clear();
        self.req_pending.clear();
    }

    /// Registers a request at `out_port`, in discovery order (the grant
    /// phase sees per-output request lists in exactly the order the old
    /// per-output vectors held).
    #[inline]
    fn push_request(&mut self, out_port: u32, req: Req) {
        let span = &mut self.req_span[out_port as usize];
        if span.1 == 0 {
            self.touched_outputs.push(out_port);
        }
        span.1 += 1;
        self.req_pending.push((out_port, req));
    }

    /// Groups the pending requests contiguously per output port in the
    /// arena (stable counting scatter: span starts from a prefix sum
    /// over the touched outputs, then each pending request lands at its
    /// output's cursor — `span.1` is reset and reused as the cursor, so
    /// it ends back at the per-output count).
    fn finalize_requests(&mut self) {
        if self.req_arena.len() < self.req_pending.len() {
            self.req_arena.resize(self.req_pending.len(), DUMMY_REQ);
        }
        let mut cursor = 0u32;
        for &o in &self.touched_outputs {
            let span = &mut self.req_span[o as usize];
            span.0 = cursor;
            cursor += span.1;
            span.1 = 0;
        }
        for &(o, req) in &self.req_pending {
            let span = &mut self.req_span[o as usize];
            self.req_arena[(span.0 + span.1) as usize] = req;
            span.1 += 1;
        }
    }

    /// Request phase: every ready VC head (with an allocated or
    /// allocatable output VC, downstream credit, and a free output link)
    /// and every sendable injection stream registers a request at its
    /// output link. Only awake routers are scanned — an asleep router
    /// holds no flit and a dozing router's flits are all pre-ready, so
    /// a scan over either is a no-op (and draws no RNG: routing runs
    /// only for ready heads).
    pub(crate) fn build_requests(&mut self, cycle: u32) {
        self.clear_requests();
        self.pass2_cand.clear();
        self.for_each_awake(|e, r| e.build_requests_router(r, cycle));
        self.build_inject_requests(cycle);
    }

    /// The transit-head request scan of one router: its occupied ports,
    /// ascending.
    fn build_requests_router(&mut self, r: usize, cycle: u32) {
        let (mut from, hi) = self.geom.ports(r);
        while let Some(port) = self.next_port(false, from, hi) {
            from = port + 1;
            debug_assert!(self.port_flits[port as usize] > 0);
            if !self.port_used[port as usize] {
                self.build_requests_port(r, port, cycle);
            }
        }
    }

    /// The per-port VC-head scan of [`Engine::build_requests_router`].
    fn build_requests_port(&mut self, r: usize, port: u32, cycle: u32) {
        for vc in crate::router::VcIter::new(self.vc_occ[port as usize], self.vcs) {
            let qidx = port as usize * self.vcs + vc;
            let Some((pkt, seq, ready_at)) = self.bufs.front(qidx) else {
                continue;
            };
            if ready_at > cycle {
                continue;
            }
            if self.bufs.head_term(qidx) {
                continue; // ejection handles it
            }
            // Remember every eligible head — requested *or* stalled —
            // for the later passes' replay (see `pass2_cand`).
            self.pass2_cand.push(qidx as u32);
            self.try_request_queue(r, qidx, vc, pkt, seq);
        }
    }

    /// Route + VC allocation, credit, and output-link checks for one
    /// eligible (ready, non-terminating) VC head, registering its
    /// request on success — the per-queue tail of the request scan,
    /// shared by the first pass and the candidate-replay passes.
    fn try_request_queue(&mut self, r: usize, qidx: usize, vc: usize, pkt: u32, seq: u16) {
        // Route + VC allocation for a new head.
        if self.route[qidx].port == NONE32 {
            debug_assert_eq!(seq, 0, "body flit without route");
            let (target, dst) = self.transit_target(r as u32, pkt);
            let hop = HopContext {
                router: r as u32,
                target,
            };
            let i = crate::routing::route_output(
                self.algo.as_ref(),
                &net_view!(self),
                self.faults.pending_tables.as_ref(),
                &mut self.packets.frr_pinned,
                pkt,
                hop,
                &mut self.rng,
            );
            let out_port = self.geom.downstream(r as u32, i as usize);
            // Class-indexed VC: hop h travels in class h, any
            // free VC within the class (deadlock freedom needs
            // paths of <= vc_classes hops; all routing
            // algorithms of the paper satisfy 4). A hop index
            // past the budget is clamped to the top class and
            // counted — the deadlock argument no longer covers
            // that packet, and the fault sweeps assert the
            // counter stays 0.
            let in_class = vc / self.per_class;
            let classes = self.vcs / self.per_class;
            let out_class = (in_class + 1).min(classes - 1);
            let Some(ovc) = crate::flow::claim_vc(
                &mut self.out_owner,
                out_port,
                self.vcs,
                out_class,
                self.per_class,
            ) else {
                self.diag_vc_stalls += 1;
                return; // all VCs of the class busy; retry next pass
            };
            if in_class + 1 >= classes {
                // Counted once per clamped hop actually taken
                // (not per allocation retry of the same head).
                self.diag_class_clamps += 1;
            }
            self.route[qidx] = crate::engine::RouteEntry {
                port: out_port,
                pkt,
                vc: ovc,
                term_next: self.port_owner[out_port as usize] == dst,
            };
            if self.telemetry.tracing() {
                // `passed_mid` was updated by `transit_target` above, so
                // this detour check is the packet's *remaining* leg.
                let p = pkt as usize;
                let detour = self.packets.mid[p] != NONE32 && !self.packets.passed_mid[p];
                let source = if self.packets.frr_pinned[p] {
                    crate::telemetry::ROUTE_FRR
                } else if detour {
                    crate::telemetry::ROUTE_DETOUR
                } else {
                    crate::telemetry::ROUTE_MIN
                };
                let out_buf = out_port as usize * self.vcs + ovc as usize;
                self.telemetry.trace_route(
                    pkt,
                    r as u32,
                    out_port,
                    out_buf as u32,
                    source,
                    self.cycle,
                );
            }
        }
        let re = self.route[qidx];
        let out_port = re.port;
        let out_idx = out_port as usize * self.vcs + re.vc as usize;
        if self.credits[out_idx] == 0 {
            self.diag_credit_stalls += 1;
            return;
        }
        if self.out_taken[out_port as usize] {
            return;
        }
        self.push_request(
            out_port,
            Req {
                out_buf: out_idx as u32,
                pkt,
                seq,
                term: re.term_next,
                src: ReqSrc::Transit { queue: qidx as u32 },
            },
        );
    }

    /// Later-pass request build: replays [`Engine::pass2_cand`] (the
    /// first pass's eligible heads, in scan order) filtered by
    /// [`Engine::port_used`], instead of rescanning every awake router.
    /// Exactness: no VC head becomes ready mid-cycle (arrivals and
    /// ejection precede allocation), a granted pop marks its input port
    /// used, and the per-head route/VC/credit/output checks — including
    /// the RNG draws of still-unrouted heads and the stall diagnostics
    /// — rerun through the same [`Engine::try_request_queue`] the first
    /// pass uses, so a later-pass rescan (what the test reference does)
    /// and this replay register identical requests in identical order.
    pub(crate) fn build_requests_again(&mut self, cycle: u32) {
        #[cfg(test)]
        if self.reference.dense_schedule() {
            return self.build_requests(cycle);
        }
        self.clear_requests();
        let cand = std::mem::take(&mut self.pass2_cand);
        for &q in &cand {
            let qidx = q as usize;
            let port = qidx / self.vcs;
            if self.port_used[port] {
                continue;
            }
            let Some((pkt, seq, ready_at)) = self.bufs.front(qidx) else {
                debug_assert!(false, "pass-1 candidate emptied without port_used");
                continue;
            };
            debug_assert!(ready_at <= cycle && !self.bufs.head_term(qidx));
            let r = self.port_owner[port] as usize;
            self.try_request_queue(r, qidx, q as usize % self.vcs, pkt, seq);
        }
        self.pass2_cand = cand;
        self.build_inject_requests(cycle);
    }

    /// Injection lanes request their (pre-claimed) first-hop output —
    /// the tail of the request phase, after the transit requests.
    /// Routers with active streams are always awake, so the awake list
    /// loses none of them.
    fn build_inject_requests(&mut self, cycle: u32) {
        self.for_each_awake(|e, r| e.build_inject_requests_router(r, cycle));
    }

    /// The injection-lane request scan of one router.
    fn build_inject_requests_router(&mut self, r: usize, cycle: u32) {
        if self.inj_budget[r] == 0 {
            return;
        }
        for s in 0..self.inj.len(r) {
            let slot = self.inj.slot(r, s);
            if self.inj.next_seq[slot] >= self.cfg.packet_flits || self.inj.last_sent[slot] == cycle
            {
                continue; // finished, or lane already sent this cycle
            }
            let out_buf = self.inj.out_buf[slot];
            let out_port = (out_buf as usize) / self.vcs;
            if self.out_taken[out_port] || self.credits[out_buf as usize] == 0 {
                continue;
            }
            self.push_request(
                out_port as u32,
                Req {
                    out_buf,
                    pkt: self.inj.pkt[slot],
                    seq: self.inj.next_seq[slot],
                    term: self.inj.term[slot],
                    src: ReqSrc::Inject {
                        router: r as u32,
                        stream: s,
                    },
                },
            );
        }
    }

    /// Resolves the transit routing target of `pkt` at router `r`,
    /// honoring the Valiant phase (and recording mid passage). Returns
    /// `(target, dst)` — the caller also needs the final destination
    /// for the route claim's `term_next` cache.
    fn transit_target(&mut self, r: u32, pkt: u32) -> (u32, u32) {
        let p = pkt as usize;
        let (mid, dst) = (self.packets.mid[p], self.packets.dst[p]);
        let target = if mid != NONE32 && !self.packets.passed_mid[p] {
            if r == mid {
                self.packets.passed_mid[p] = true;
                dst
            } else {
                mid
            }
        } else {
            dst
        };
        (target, dst)
    }

    /// Grant + accept: each requested output grants one requester
    /// (rotating start); each input port accepts at most one grant; an
    /// injection grant is accepted if router bandwidth remains. Accepted
    /// flits traverse the switch immediately.
    pub(crate) fn grant_and_accept(&mut self, cycle: u32) {
        // Group this pass's requests per output in the flat arena.
        self.finalize_requests();
        // New grant epoch: an input port has accepted this pass iff its
        // tag equals `grant_serial` (epoch tags instead of a per-pass
        // memset of `input_grant`).
        self.grant_serial += 1;
        let taken = self.grant_serial;
        // Grant phase: winner per output. Outputs processed in rotated
        // order; inputs accept first-come, so rotation doubles as the
        // accept tie-break.
        let outs = std::mem::take(&mut self.touched_outputs);
        let olen = outs.len();
        let ostart = crate::order::output_rotation(cycle, olen);
        for oi in 0..olen {
            let out_port = outs[(ostart + oi) % olen] as usize;
            if self.out_taken[out_port] {
                continue;
            }
            let (rs, rl) = self.req_span[out_port];
            let (rs, rl) = (rs as usize, rl as usize);
            if rl == 0 {
                continue;
            }
            let rstart = crate::order::requester_rotation(cycle, out_port, rl);
            let mut chosen = None;
            // Packet-continuation priority: drain in-flight packets before
            // granting new heads. Shorter output-VC hold times keep the VC
            // classes from exhausting (the dominant stall otherwise).
            'passes: for want_body in [true, false] {
                for k in 0..rl {
                    let req = self.req_arena[rs + (rstart + k) % rl];
                    if (req.seq > 0) != want_body {
                        continue;
                    }
                    match req.src {
                        ReqSrc::Transit { queue } => {
                            let in_port = (queue as usize) / self.vcs;
                            if self.input_grant[in_port] == taken {
                                continue; // input already accepted a grant
                            }
                            chosen = Some(req);
                            self.input_grant[in_port] = taken;
                            break 'passes;
                        }
                        ReqSrc::Inject { router, .. } => {
                            if self.inj_budget[router as usize] == 0 {
                                continue;
                            }
                            self.inj_budget[router as usize] -= 1;
                            chosen = Some(req);
                            break 'passes;
                        }
                    }
                }
            }
            let Some(req) = chosen else {
                self.diag_match_losses += 1;
                continue;
            };
            // Traverse.
            if self.telemetry.tracing() {
                let src_router = match req.src {
                    ReqSrc::Transit { queue } => self.port_owner[queue as usize / self.vcs],
                    ReqSrc::Inject { router, .. } => router,
                };
                self.telemetry
                    .trace_grant(req.pkt, src_router, out_port as u32, req.seq, cycle);
            }
            self.out_taken[out_port] = true;
            self.link_flits[out_port] += 1;
            if self.transient && !self.link_up[out_port] && self.faults.draining[out_port] == 0 {
                // A flit crossed a fully-down link: routing is broken.
                // Tracked (not asserted) so sweeps can report it.
                self.faults.down_link_flits += 1;
            }
            self.credits[req.out_buf as usize] -= 1;
            let arrive = cycle + self.cfg.link_latency;
            match req.src {
                ReqSrc::Transit { queue } => {
                    let q = queue as usize;
                    let (pkt, seq) = (req.pkt, req.seq);
                    debug_assert_eq!(
                        self.bufs.front(q).map(|(p, s, _)| (p, s)),
                        Some((pkt, seq)),
                        "cached request head diverged"
                    );
                    self.bufs.pop_front(q);
                    let in_port = q / self.vcs;
                    self.port_flits[in_port] -= 1;
                    if self.bufs.is_empty(q) {
                        self.vc_occ[in_port] &= !1u32.wrapping_shl((q % self.vcs) as u32);
                    }
                    if self.port_flits[in_port] == 0 {
                        self.skip.occ.remove(in_port);
                    }
                    let r = self.port_owner[in_port] as usize;
                    if self.skip.on_drain(r, 1) {
                        self.skip
                            .maybe_sleep(r, self.src_q.is_empty(r), self.inj.len(r));
                    }
                    self.credits[q] += 1;
                    self.port_used[in_port] = true;
                    self.pipeline.depart(
                        arrive,
                        Arrival {
                            buf: req.out_buf,
                            pkt,
                            seq,
                            term: req.term,
                        },
                    );
                    if seq == self.cfg.packet_flits - 1 {
                        // Tail flit: release the wormhole output VC.
                        let re = self.route[q];
                        let op = re.port;
                        debug_assert_ne!(op, NONE32, "tail without route");
                        self.out_owner[op as usize * self.vcs + re.vc as usize] = false;
                        self.route[q] = crate::engine::RouteEntry::NONE;
                        if self.transient {
                            self.note_tail_traversed(op);
                        }
                    }
                }
                ReqSrc::Inject { router, stream } => {
                    let slot = self.inj.slot(router as usize, stream);
                    let seq = req.seq;
                    debug_assert_eq!(seq, self.inj.next_seq[slot]);
                    self.pipeline.depart(
                        arrive,
                        Arrival {
                            buf: self.inj.out_buf[slot],
                            pkt: self.inj.pkt[slot],
                            seq,
                            term: req.term,
                        },
                    );
                    self.inj.next_seq[slot] = seq + 1;
                    self.inj.last_sent[slot] = cycle;
                    if seq + 1 == self.cfg.packet_flits {
                        self.out_owner[self.inj.out_buf[slot] as usize] = false;
                        if self.transient {
                            self.note_tail_traversed(out_port as u32);
                        }
                    }
                }
            }
        }
        self.touched_outputs = outs;

        // Sweep finished injection streams (routers with streams are
        // always awake, so the awake list covers every sweep target); a
        // router whose last stream just finished may now be fully idle
        // and go to sleep.
        self.for_each_awake(|e, r| {
            e.inj.sweep_finished(r, e.cfg.packet_flits);
            e.skip.maybe_sleep(r, e.src_q.is_empty(r), e.inj.len(r));
        });
    }
}
