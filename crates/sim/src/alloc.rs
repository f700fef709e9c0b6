//! Switch allocation: iterated separable request–grant–accept (iSLIP
//! style) over transit VC heads and injection lanes.
//!
//! Each iteration, every eligible head registers a request at its output
//! link; each requested output grants one requester (rotating priority,
//! packet-continuation first); each input port accepts at most one grant.
//! Accepted flits traverse the switch immediately — the router pipeline
//! is charged downstream as a fixed `pipeline_delay` on arrival (see
//! DESIGN.md).
//!
//! **Who owns what.** Everything the allocator keeps per output —
//! `credits`, `out_owner` (the packet holding the output, `NONE32` when
//! free), `out_taken`, `req_span`, `link_flits`, `inj_wait`, the output
//! of a route claim (kept in the claiming queue's record as the holding
//! router's neighbor index, read back through `tx`) and a lane's
//! `out_buf` — is indexed by the *sending* router's own port
//! ([`crate::router::PortMap::tx`]), so request build, VC claim and
//! grant touch only the requesting router's contiguous lines. The
//! downstream id ([`crate::router::PortMap::peer`]) is derived where the
//! law names it: the arrival buffer of a departing flit, the argument of
//! `order::requester_rotation`, trace events, and the credit a
//! receiver returns on a pop — `credits[peer(in_port)·vcs + vc] += 1`,
//! the one remote write of a flit hop, read by nobody before the next
//! request build.
//!
//! **What each pass walks.** The first pass visits every awake router
//! once, transit heads then injection lanes. A later pass replays only
//! what the previous one left *undecided*: the heads that stalled (no
//! free VC of the class, or zero credit — `Engine::pass2_cand`) and
//! the lanes of routers that had a zero-credit lane
//! (`Engine::lane_stalled`). Every other requester is a provable
//! silent no-op for the rest of the cycle — see `crate::order`, "Output
//! grant order".

use crate::engine::{net_view, Engine};
use crate::flow::Arrival;
use crate::router::{Claim, NONE32};
use crate::routing::HopContext;
use crate::telemetry::{
    ROUTE_DETOUR, ROUTE_FRR, ROUTE_MIN, TRACE_GRANT, TRACE_ROUTE, TRACE_VC_ALLOC,
};

/// A requester in the request–grant–accept allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReqSrc {
    /// A transit VC head: input buffer queue index and its input port
    /// (`queue / vcs`, cached so the grant loop divides nothing).
    Transit { queue: u32, port: u32 },
    /// An injection stream (`router`'s stream `stream`).
    Inject { router: u32, stream: u32 },
}

/// One registered request at an output link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req {
    /// The requested (tx port, VC): `tx · vcs + vc`.
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
    src: ReqSrc::Transit { queue: 0, port: 0 },
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

    /// Registers a request at `out_port`, in discovery order. An output's
    /// first request files it under the kind of its requester: transit
    /// heads of a router are scanned before its lanes, so
    /// [`Engine::touched_lane_only`] holds exactly the outputs no transit
    /// head asked for.
    #[inline]
    fn push_request(&mut self, out_port: u32, req: Req) {
        let span = &mut self.req_span[out_port as usize];
        if span.1 == 0 {
            match req.src {
                ReqSrc::Transit { .. } => self.touched_outputs.push(out_port),
                ReqSrc::Inject { .. } => self.touched_lane_only.push(out_port),
            }
        }
        span.1 += 1;
        self.req_pending.push((out_port, req));
    }

    /// Closes the pass's request build: appends the lane-only outputs to
    /// the transit-touched ones (the grant order's list, see
    /// `crate::order`) and groups the pending requests contiguously per
    /// output port in the arena (stable counting scatter: span starts
    /// from a prefix sum over the touched outputs, then each pending
    /// request lands at its output's cursor — `span.1` is reset and
    /// reused as the cursor, so it ends back at the per-output count).
    fn finalize_requests(&mut self) {
        self.touched_outputs.append(&mut self.touched_lane_only);
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

    /// First-pass request build, one visit per awake router: every ready
    /// VC head (with an allocated or allocatable output VC, downstream
    /// credit, and a free output link) and then every sendable injection
    /// lane registers a request at its output link. An asleep router
    /// holds no flit and a dozing router's flits are all pre-ready, so a
    /// scan over either is a no-op (and draws no RNG: routing runs only
    /// for ready heads); routers with active lanes are always awake.
    pub(crate) fn build_requests(&mut self, cycle: u32) {
        self.clear_requests();
        self.pass2_cand.clear();
        self.lane_stalled.clear();
        self.for_each_awake(|e, r| {
            e.build_requests_router(r, cycle);
            if e.build_inject_requests_router(r, cycle) {
                e.lane_stalled.push(r as u32);
            }
        });
    }

    /// The transit-head request scan of one router: its occupied ports,
    /// ascending.
    fn build_requests_router(&mut self, r: usize, cycle: u32) {
        let (mut from, hi) = self.geom.ports(r);
        while let Some(port) = self.next_port(false, from, hi) {
            from = port + 1;
            debug_assert!(self.bufs.vc_mask(port as usize) != 0);
            if !self.port_used[port as usize] {
                self.build_requests_port(r, port, cycle);
            }
        }
    }

    /// The per-port VC-head scan of [`Engine::build_requests_router`].
    fn build_requests_port(&mut self, r: usize, port: u32, cycle: u32) {
        for vc in crate::router::VcIter(self.bufs.vc_mask(port as usize)) {
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
            if self.try_request_queue(r, qidx, port, vc, pkt, seq) {
                self.pass2_cand.push(qidx as u32);
            }
        }
    }

    /// Route + VC allocation, credit, and output-link checks for one
    /// eligible (ready, non-terminating) VC head of input `port`,
    /// registering its request on success — the per-queue tail of the
    /// request scan, shared by the first pass and the replay passes.
    ///
    /// Returns whether the head *stalled* (no free VC of its class, or
    /// zero credit): the only outcomes a later pass of the same cycle can
    /// change. A head that registered — or found its output taken — is
    /// settled for the cycle.
    fn try_request_queue(
        &mut self,
        r: usize,
        qidx: usize,
        port: u32,
        vc: usize,
        pkt: u32,
        seq: u16,
    ) -> bool {
        // Route + VC allocation for a new head.
        let Some(claim) = self
            .bufs
            .claim(qidx)
            .or_else(|| self.route_head(r, qidx, vc, pkt, seq))
        else {
            return true; // all VCs of the class busy; retry next pass
        };
        let out_port = self.geom.tx(r as u32, usize::from(claim.out));
        let out_idx = out_port as usize * self.vcs + usize::from(claim.vc);
        if self.credits[out_idx] == 0 {
            self.diag_credit_stalls += 1;
            return true;
        }
        if !self.out_taken[out_port as usize] {
            self.push_request(
                out_port,
                Req {
                    out_buf: out_idx as u32,
                    pkt,
                    seq,
                    term: claim.term_next,
                    src: ReqSrc::Transit {
                        queue: qidx as u32,
                        port,
                    },
                },
            );
        }
        false
    }

    /// Routes `pkt`, the unclaimed head of queue `qidx` (VC `vc` at
    /// router `r`), claims a free output VC of its next hop class for it
    /// and records the claim in the queue's record. `None` is a VC
    /// stall: every VC of the class is owned.
    fn route_head(
        &mut self,
        r: usize,
        qidx: usize,
        vc: usize,
        pkt: u32,
        seq: u16,
    ) -> Option<Claim> {
        debug_assert_eq!(seq, 0, "body flit without route");
        let (target, dst) = self.transit_target(r as u32, pkt);
        let hop = HopContext {
            router: r as u32,
            target,
        };
        let i = crate::routing::route_output(
            self.routing,
            &net_view!(self),
            self.faults.pending_tables.as_ref(),
            &mut self.packets.frr_pinned,
            pkt,
            hop,
            &mut self.rng,
        );
        let out_port = self.geom.tx(r as u32, i as usize);
        // Class-indexed VC: hop h travels in class h, any free VC within
        // the class (deadlock freedom needs paths of <= vc_classes hops;
        // all routing algorithms of the paper satisfy 4). `classes` is the
        // allocated count, the algorithm's declared `max_hops` at most. A
        // hop index past it is clamped to the top class and counted — the
        // deadlock argument no longer covers that packet, and the fault
        // sweeps assert the counter stays 0.
        let in_class = vc / self.per_class;
        let classes = self.vcs / self.per_class;
        let out_class = (in_class + 1).min(classes - 1);
        let Some(ovc) = crate::flow::claim_vc(
            &mut self.out_owner,
            out_port,
            self.vcs,
            out_class,
            self.per_class,
            pkt,
        ) else {
            self.diag_vc_stalls += 1;
            return None;
        };
        if in_class + 1 >= classes {
            // Counted once per clamped hop actually taken (not per
            // allocation retry of the same head).
            self.diag_class_clamps += 1;
        }
        let claim = Claim {
            out: i as u8,
            vc: ovc,
            term_next: self.graph.neighbors(r as u32)[i as usize] == dst,
        };
        self.bufs.set_claim(qidx, Some(claim));
        if self.telemetry.tracing() {
            // `passed_mid` was updated by `transit_target` above, so this
            // detour check is the packet's *remaining* leg.
            let p = pkt as usize;
            let detour = self.packets.mid[p] != NONE32 && !self.packets.passed_mid[p];
            let source = if self.packets.frr_pinned[p] {
                ROUTE_FRR
            } else if detour {
                ROUTE_DETOUR
            } else {
                ROUTE_MIN
            };
            let down = self.geom.peer(out_port);
            // In the configured numbering, whatever is allocated.
            let buf = down * self.cfg.vcs() as u32 + u32::from(ovc);
            let r = r as u32;
            self.telemetry
                .trace(pkt, TRACE_ROUTE, r, down, source, self.cycle);
            self.telemetry
                .trace(pkt, TRACE_VC_ALLOC, r, buf, 0, self.cycle);
        }
        Some(claim)
    }

    /// Later-pass request build: replays the heads the previous pass
    /// left stalled ([`Engine::pass2_cand`], ascending) and then the
    /// lanes of the routers it left with a zero-credit lane
    /// ([`Engine::lane_stalled`], ascending), rebuilding both lists for
    /// the pass after — instead of rescanning every awake router.
    ///
    /// Exactness (the argument is spelled out in `crate::order`): no VC
    /// head becomes ready mid-cycle, a granted pop marks its input port
    /// used, a requester that registered and lost faces a taken output, a
    /// used input port or an exhausted `inj_budget` — all monotone within
    /// a cycle — and nobody else can spend the credits of the (link, VC)
    /// it owns, so its rerun would neither register, nor count a stall,
    /// nor draw from the RNG. The stalled ones rerun through the same
    /// [`Engine::try_request_queue`] / lane scan the first pass uses, so
    /// a later-pass rescan (what the test reference does) and this replay
    /// register identical requests in identical per-output order.
    pub(crate) fn build_requests_again(&mut self, cycle: u32) {
        #[cfg(test)]
        if self.reference.full_rescan() {
            return self.build_requests(cycle);
        }
        self.clear_requests();
        let mut heads = std::mem::take(&mut self.pass2_cand);
        heads.retain(|&q| {
            let qidx = q as usize;
            let port = qidx / self.vcs;
            if self.port_used[port] {
                return false;
            }
            let Some((pkt, seq, ready_at)) = self.bufs.front(qidx) else {
                debug_assert!(false, "stalled head emptied without port_used");
                return false;
            };
            debug_assert!(ready_at <= cycle && !self.bufs.head_term(qidx));
            let r = self.port_owner[port] as usize;
            let vc = qidx - port * self.vcs;
            self.try_request_queue(r, qidx, port as u32, vc, pkt, seq)
        });
        self.pass2_cand = heads;
        let mut routers = std::mem::take(&mut self.lane_stalled);
        routers.retain(|&r| self.build_inject_requests_router(r as usize, cycle));
        self.lane_stalled = routers;
    }

    /// The injection-lane request scan of one router: each unfinished
    /// lane that has not sent this cycle requests its (pre-claimed)
    /// first-hop output. Returns whether some lane found its output free
    /// but without credit — the one lane outcome a later pass can change.
    fn build_inject_requests_router(&mut self, r: usize, cycle: u32) -> bool {
        if self.inj_budget[r] == 0 {
            return false;
        }
        let mut stalled = false;
        for s in 0..self.inj.len(r) {
            let slot = self.inj.slot(r, s);
            if self.inj.next_seq[slot] >= self.cfg.packet_flits || self.inj.last_sent[slot] == cycle
            {
                continue; // finished, or lane already sent this cycle
            }
            let out_buf = self.inj.out_buf[slot];
            let out_port = (out_buf as usize) / self.vcs;
            if self.out_taken[out_port] {
                continue;
            }
            if self.credits[out_buf as usize] == 0 {
                stalled = true;
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
        stalled
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

    /// Accept: whether `req`'s requester can take a grant this pass — a
    /// transit head's input port has not sent this cycle, a lane's
    /// router has injection bandwidth left — claiming it if so.
    ///
    /// `port_used` is the whole input-side test: every transit request
    /// of a pass was built from a port whose bit was clear (the first
    /// scan and the replay both filter on it), and within the pass only
    /// the port's own accepted grant sets it.
    #[inline]
    fn accept(&mut self, req: &Req) -> bool {
        match req.src {
            ReqSrc::Transit { port, .. } => {
                let used = &mut self.port_used[port as usize];
                let free = !*used;
                *used = true;
                free
            }
            ReqSrc::Inject { router, .. } => {
                let budget = &mut self.inj_budget[router as usize];
                let free = *budget > 0;
                *budget -= u32::from(free);
                free
            }
        }
    }

    /// Grant + accept: each requested output grants one requester
    /// (rotating start); each input port accepts at most one grant; an
    /// injection grant is accepted if router bandwidth remains. Accepted
    /// flits traverse the switch immediately.
    pub(crate) fn grant_and_accept(&mut self, cycle: u32) {
        // Group this pass's requests per output in the flat arena.
        self.finalize_requests();
        // Grant phase: winner per output. Outputs processed in rotated
        // order; inputs accept first-come, so rotation doubles as the
        // accept tie-break.
        let outs = std::mem::take(&mut self.touched_outputs);
        let arena = std::mem::take(&mut self.req_arena);
        let ostart = crate::order::output_rotation(cycle, outs.len());
        for &out in outs[ostart..].iter().chain(&outs[..ostart]) {
            let out_port = out as usize;
            // A touched output was free when its first request registered
            // and is visited once.
            debug_assert!(!self.out_taken[out_port]);
            let (rs, rl) = self.req_span[out_port];
            let reqs = &arena[rs as usize..(rs + rl) as usize];
            // The downstream input port: the id the requester rotation
            // hashes, trace events report and the departing flit is
            // addressed to.
            let down = self.geom.peer(out);
            let rstart = if rl == 1 {
                0
            } else {
                crate::order::requester_rotation(cycle, down as usize, rl as usize)
            };
            let (wrapped, first) = reqs.split_at(rstart);
            // Packet-continuation priority: drain in-flight packets before
            // granting new heads. Shorter output-VC hold times keep the VC
            // classes from exhausting (the dominant stall otherwise).
            let mut chosen = None;
            'passes: for want_body in [true, false] {
                for req in first.iter().chain(wrapped) {
                    if (req.seq > 0) == want_body && self.accept(req) {
                        chosen = Some(*req);
                        break 'passes;
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
                    ReqSrc::Transit { port, .. } => self.port_owner[port as usize],
                    ReqSrc::Inject { router, .. } => router,
                };
                let seq = u32::from(req.seq);
                self.telemetry
                    .trace(req.pkt, TRACE_GRANT, src_router, down, seq, cycle);
            }
            self.out_taken[out_port] = true;
            self.link_flits[out_port] += 1;
            if self.transient && !self.link_up[out_port] && self.faults.draining[out_port] == 0 {
                // A flit crossed a fully-down link: routing is broken.
                // Tracked (not asserted) so sweeps can report it.
                self.faults.down_link_flits += 1;
            }
            let out_buf = req.out_buf as usize;
            self.credits[out_buf] -= 1;
            let out_vc = out_buf - out_port * self.vcs;
            self.pipeline.depart(
                cycle + self.cfg.link_latency,
                Arrival {
                    buf: (down as usize * self.vcs + out_vc) as u32,
                    pkt: req.pkt,
                    seq: req.seq,
                    term: req.term,
                },
            );
            let tail = req.seq + 1 == self.cfg.packet_flits;
            match req.src {
                ReqSrc::Transit { queue, port } => {
                    let (q, in_port) = (queue as usize, port as usize);
                    debug_assert_eq!(
                        self.bufs.front(q).map(|(p, s, _)| (p, s)),
                        Some((req.pkt, req.seq)),
                        "cached request head diverged"
                    );
                    let in_vc = q - in_port * self.vcs;
                    self.bufs.pop_front(in_port, in_vc);
                    let r = self.port_owner[in_port] as usize;
                    self.maybe_sleep(r);
                    // The freed slot's credit goes back to the upstream
                    // sender's counter.
                    let sender = self.credit_of(port, in_vc);
                    self.credits[sender] += 1;
                    if tail {
                        // Tail flit: release the wormhole output VC.
                        debug_assert_eq!(
                            self.claim_output(q),
                            Some(out_buf),
                            "tail without its route claim"
                        );
                        self.bufs.set_claim(q, None);
                    }
                }
                ReqSrc::Inject { router, stream } => {
                    let slot = self.inj.slot(router as usize, stream);
                    debug_assert_eq!(req.seq, self.inj.next_seq[slot]);
                    self.inj.next_seq[slot] = req.seq + 1;
                    self.inj.last_sent[slot] = cycle;
                    if tail {
                        self.lanes_done.push(router);
                    }
                }
            }
            if tail {
                self.out_owner[out_buf] = NONE32;
                if self.transient {
                    self.note_tail_traversed(out);
                }
            }
        }
        self.touched_outputs = outs;
        self.req_arena = arena;

        // Retire finished lanes where a tail just left; such a router
        // may now be fully idle and go to sleep. (Every other way a
        // router runs out of work — its last buffered flit popped,
        // ejected or purged — sleeps it at that site.)
        #[cfg(test)]
        if self.reference.full_rescan() {
            self.for_each_awake(|e, r| e.retire_lanes(r));
        }
        let mut done = std::mem::take(&mut self.lanes_done);
        for r in done.drain(..) {
            self.retire_lanes(r as usize);
        }
        self.lanes_done = done;
    }

    /// Removes router `r`'s fully injected lanes and sleeps it if that
    /// left it with nothing to do.
    fn retire_lanes(&mut self, r: usize) {
        self.inj.sweep_finished(r, self.cfg.packet_flits);
        self.maybe_sleep(r);
    }
}

#[cfg(test)]
mod tests {
    use crate::sweep::resolve_run;
    use crate::traffic::TrafficPattern;
    use crate::{Engine, Routing, SimConfig};
    use pf_topo::PolarFlyTopo;

    /// The heads a request pass left stalled, read off the state it
    /// leaves behind (before any grant): every ready, non-terminating
    /// head of an unused input port of an awake router that either holds
    /// no route claim (its class had no free VC) or holds one without a
    /// credit. A head that registered has both.
    fn stalled_heads(e: &Engine, cycle: u32) -> Vec<u32> {
        let mut stalled = Vec::new();
        for &r in &e.skip.awake_list {
            let (lo, hi) = e.geom.ports(r as usize);
            for port in (lo..hi).filter(|&p| !e.port_used[p as usize]) {
                for vc in 0..e.vcs {
                    let q = port as usize * e.vcs + vc;
                    match e.bufs.front(q) {
                        Some((_, _, ready)) if ready <= cycle && !e.bufs.head_term(q) => {}
                        _ => continue,
                    }
                    if e.claim_output(q).is_none_or(|o| e.credits[o] == 0) {
                        stalled.push(q as u32);
                    }
                }
            }
        }
        stalled
    }

    /// After pass 1 `pass2_cand` holds exactly the heads whose
    /// `try_request_queue` reported a stall, and each replay shrinks it
    /// to the heads still stalled — on a saturated adversarial run,
    /// where VC and credit stalls happen every cycle.
    #[test]
    fn later_passes_hold_exactly_the_stalled_heads() {
        let topo = PolarFlyTopo::new(7, 4).unwrap();
        let cfg = SimConfig::quick().seed(7).alloc_iters(3);
        let (tables, dests) = resolve_run(&topo, TrafficPattern::Perm2Hop, cfg.seed);
        let mut e = Engine::new(&topo, &tables, &dests, Routing::UgalPf, 0.8, cfg);
        let mut held = [0usize; 3];
        while e.cycle() < 400 {
            let cycle = e.begin_cycle();
            for (pass, total) in held.iter_mut().enumerate() {
                let before = e.pass2_cand.clone();
                if pass == 0 {
                    e.build_requests(cycle);
                } else {
                    e.build_requests_again(cycle);
                    assert!(
                        e.pass2_cand.iter().all(|q| before.contains(q)),
                        "cycle {cycle} pass {pass}: the replay grew its list"
                    );
                }
                let want = stalled_heads(&e, cycle);
                let want: Vec<u32> = if pass == 0 {
                    want
                } else {
                    // A head that already settled (requested and lost)
                    // is not stalled again just because it still waits.
                    want.into_iter().filter(|q| before.contains(q)).collect()
                };
                assert_eq!(e.pass2_cand, want, "cycle {cycle} pass {pass}");
                *total += want.len();
                e.grant_and_accept(cycle);
            }
            e.cycle += 1;
            e.validate_flow_invariants();
        }
        assert!(
            held[0] > held[1] && held[1] > held[2] && held[2] > 0,
            "stalled lists did not shrink pass over pass: {held:?}"
        );
    }
}
