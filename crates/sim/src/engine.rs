//! The synchronous cycle engine: input-queued routers, wormhole
//! switching, credit flow control, hop-indexed VCs, and an iterated
//! separable allocator.
//!
//! This module owns the [`Engine`] state and the per-cycle orchestration;
//! the mechanics live in sibling modules — [`crate::router`] (SoA state),
//! `crate::alloc` (switch allocation and the one route decision,
//! `Engine::route_and_claim`), `crate::flow` (credits + wormhole),
//! `crate::inject` (endpoint injection/ejection) and [`crate::routing`]
//! (the paper's six algorithms, one [`Routing`] enum); the
//! warmup/measure/drain clock is [`SimConfig::in_measurement`] and
//! `Engine::deadline`. See the crate docs for the model summary and
//! DESIGN.md for deviations from BookSim.

pub use crate::config::SimConfig;

use crate::alloc::Req;
use crate::drive::WorkloadDriver;
use crate::faults::{assert_vc_budget, link_ports, FaultCtl};
use crate::flow::LinkPipeline;
use crate::packet::PacketPool;
use crate::router::{FlitRings, InjPool, PortMap, NONE32};
use crate::skip::SkipCtl;
use crate::stats::{LatencyStats, SimResult};
use crate::tables::{RouteTables, MAX_DEGREE};
use crate::telemetry::{prof_mark, ProfPhase, TelemetryCtl};
use crate::traffic::DestMap;
use crate::Routing;
use pf_graph::Csr;
use pf_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Builds the read-only [`crate::routing::NetState`] view from disjoint
/// `Engine` fields, so a routing call can run while `self.rng` is
/// mutably borrowed.
macro_rules! net_view {
    ($e:expr) => {
        $crate::routing::NetState {
            tables: &$e.tables,
            graph: $e.graph,
            geom: &$e.geom,
            link_up: &$e.link_up,
            degraded: $e.degraded,
            credits: &$e.credits,
            inj_wait: &$e.inj_wait,
            vcs: $e.vcs,
            per_class: $e.per_class,
            cap_per_vc: $e.cap_per_vc,
            packet_flits: $e.cfg.packet_flits,
            ugal_pf_threshold: $e.cfg.ugal_pf_threshold,
        }
    };
}
pub(crate) use net_view;

/// Which retained oracle, if any, a test engine runs instead of the
/// live code (release builds have no such field: one path). The
/// dense-schedule reference maintains exactly the live engine's state
/// and swaps only its *iteration domains*, at five sites — every
/// router instead of the awake list ([`Engine::build_awake_list`]), the
/// flit store's per-port VC masks / terminating-flit counts instead of
/// its port bitsets ([`Engine::next_port`]), a rescan of every awake
/// router in every allocator pass instead of the stalled-list replay
/// ([`Engine::build_requests_again`]), a lane sweep of every awake
/// router after every grant pass instead of the tail-sent list
/// ([`Engine::grant_and_accept`]) and no whole-cycle leap
/// ([`Engine::skip_prologue`]) — so a missed wake, a stale bit, a wrong
/// replay, a missed sleep and a wrong leap each show up as a diverging
/// result.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reference {
    /// The live engine.
    Off,
    /// The live awake list, bitsets and leaps, but the allocator's full
    /// rescan and unconditional lane sweep: isolates the replay, so even
    /// `skipped_router_cycles` must equal the live engine's.
    FullRescan,
    /// The dense schedule (implies the full rescan).
    DenseSchedule,
    /// The per-endpoint draw loop ([`Engine::generate_reference`]), on
    /// the dense schedule: that loop does not maintain `gen_next`,
    /// which bounds the leap.
    PerEndpointDraws,
}

#[cfg(test)]
impl Reference {
    /// Whether the dense schedule's iteration domains are in force.
    pub(crate) fn dense_schedule(self) -> bool {
        matches!(self, Reference::DenseSchedule | Reference::PerEndpointDraws)
    }

    /// Whether later allocator passes rescan every awake router (and
    /// every grant pass sweeps every awake router's lanes).
    pub(crate) fn full_rescan(self) -> bool {
        self != Reference::Off
    }
}

/// One simulation instance at a fixed offered load.
pub struct Engine<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) graph: &'a Csr,
    /// The route tables serving routing decisions. A run starts on the
    /// caller's tables (shared across the Rayon-parallel loads of a
    /// sweep); transient-fault re-convergence swaps in engine-owned
    /// rebuilds mid-run, while the old tables keep serving until the
    /// swap — the staged behavior of a real control plane.
    pub(crate) tables: Cow<'a, RouteTables>,
    pub(crate) dests: &'a DestMap,
    pub(crate) routing: Routing,
    pub(crate) cfg: SimConfig,
    pub(crate) load: f64,

    pub(crate) n: usize,
    /// Allocated VCs per port — the stride of every per-queue array:
    /// `per_class` × the hop classes this run can reach (DESIGN.md, "VC
    /// class budget"), at most [`SimConfig::vcs`].
    pub(crate) vcs: usize,
    pub(crate) per_class: usize,
    pub(crate) cap_per_vc: u32,
    /// Endpoints per router ([`Topology::endpoints`]).
    pub(crate) endpoints: &'a [u32],
    /// Inclusive prefix sums of `endpoints`: router `r` owns open-loop
    /// trials `ep_end[r - 1]..ep_end[r]` of a cycle's `T` = `ep_end[n - 1]`.
    pub(crate) ep_end: Vec<u32>,
    /// Index of the next successful open-loop trial in the flattened
    /// sequence (cycle `c` spans `c·T..(c + 1)·T`); `u64::MAX` at load 0,
    /// past any run (`T` and the cycle count are both `u32`).
    pub(crate) gen_next: u64,
    /// `ln(1 − load / packet_flits)`, the geometric gap law's parameter.
    pub(crate) gen_ln_q: f64,
    /// The oracle this engine runs as (tests only; see [`Reference`]).
    #[cfg(test)]
    pub(crate) reference: Reference,
    pub(crate) geom: PortMap,
    /// Per-link liveness, indexed by the sender's port: `false` marks a
    /// failed link that routing must never select. Both directions of a
    /// link fail and repair together, so the array is symmetric under
    /// [`PortMap::peer`]. All-true on healthy topologies; starts from
    /// the fault schedule's cycle-0 state
    /// ([`crate::tables::initial_failures`]).
    pub(crate) link_up: Vec<bool>,
    /// Whether any link is failed (gates the mask loads off the healthy
    /// hot paths). Transient runs flip this as fault events fire.
    pub(crate) degraded: bool,
    /// Whether the fault schedule can still change the network after
    /// cycle 0 (gates the fault event hooks off healthy and
    /// static-failure hot paths).
    pub(crate) transient: bool,
    /// Transient-fault control: event queue, router liveness, drain
    /// counts, re-convergence state, and fault counters. Inert (empty)
    /// unless `transient`.
    pub(crate) faults: FaultCtl,
    /// Closed-loop workload driver, replacing the Bernoulli generator
    /// when attached ([`Engine::attach_workload`]); `None` leaves the
    /// open-loop path untouched.
    pub(crate) workload: Option<WorkloadDriver>,
    /// The domain of every per-cycle router loop: per-router
    /// awake/doze/asleep tracking and the doze timing wheel.
    pub(crate) skip: SkipCtl,

    /// All (port, VC) input buffers, the route claim of each queue's
    /// head packet (`FlitRings::claim`) and the per-port indexes the
    /// port and VC scans walk.
    pub(crate) bufs: FlitRings,
    /// The sender's credit view, indexed by the sender's (tx port, VC):
    /// `credits[p · vcs + v]` counts the free slots of the downstream
    /// input buffer `peer(p) · vcs + v`. Spent locally on a grant;
    /// returned by the receiver on a pop or an ejection.
    pub(crate) credits: Vec<u16>,
    /// The packet owning each (tx port, VC) output (`NONE32` = free):
    /// the holder of a transit head's route claim or of an unfinished
    /// injection lane. Fault events read a claim's owner here.
    pub(crate) out_owner: Vec<u32>,

    /// Per-router source queues: packets generated but not yet
    /// injected, in generation order. Skip contract: a non-empty queue
    /// forces its router awake (`Engine::maybe_sleep` sleeps a router
    /// only when it is empty), so every push is paired with
    /// `SkipCtl::wake_now`.
    pub(crate) src_q: Vec<VecDeque<u32>>,
    pub(crate) inj: InjPool,
    pub(crate) pipeline: LinkPipeline,
    pub(crate) packets: PacketPool,

    pub(crate) rng: StdRng,
    pub(crate) cycle: u32,

    // Statistics.
    pub(crate) stats: LatencyStats,
    pub(crate) measured_generated: u64,
    pub(crate) window_flits_ejected: u64,
    pub(crate) total_generated: u64,
    pub(crate) total_delivered: u64,

    // Per-cycle scratch (reused allocations).
    /// Input ports that ejected or forwarded a flit this cycle.
    pub(crate) port_used: Vec<bool>,
    /// Outputs (tx ports) that sent a flit this cycle.
    pub(crate) out_taken: Vec<bool>,
    /// Switch requests in discovery order, tagged by output port;
    /// `finalize_requests` scatters them into [`Engine::req_arena`]
    /// before each grant pass. One flat vector replaces the old
    /// per-output `Vec<Vec<Req>>` — no per-output heap rings to chase
    /// or clear on the hot path.
    pub(crate) req_pending: Vec<(u32, Req)>,
    /// Request arena: each grant pass's requests grouped contiguously
    /// per output port, in discovery order within a port (the same
    /// order the per-output vectors held).
    pub(crate) req_arena: Vec<Req>,
    /// Per-output `(start, len)` span into [`Engine::req_arena`]. `len`
    /// doubles as the pending-request count between `push_request` and
    /// `finalize_requests` (only outputs in `touched_outputs` are
    /// nonzero).
    pub(crate) req_span: Vec<(u32, u32)>,
    /// Outputs (tx ports) with a request this pass whose first request
    /// came from a transit head, in discovery order; from
    /// `finalize_requests` on, followed by [`Engine::touched_lane_only`]
    /// — the list the grant phase rotates over (`crate::order`).
    pub(crate) touched_outputs: Vec<u32>,
    /// Outputs only injection lanes requested this pass, in discovery
    /// order (empty outside the request build).
    pub(crate) touched_lane_only: Vec<u32>,
    /// The transit heads the last request pass left *stalled* (no free
    /// VC of the class, or zero credit), as ascending queue indices —
    /// all the next pass of the cycle replays, filtered by
    /// [`Engine::port_used`]: no head can *become* ready mid-cycle
    /// (arrivals and ejection precede allocation, and a pop marks its
    /// input port used), and a head that registered or met a taken
    /// output is settled for the cycle.
    pub(crate) pass2_cand: Vec<u32>,
    /// The routers (ascending) the last request pass left with a lane
    /// whose output was free but out of credit — the lanes the next pass
    /// of the cycle rescans.
    pub(crate) lane_stalled: Vec<u32>,
    /// Routers a lane of which sent its tail in the current grant pass:
    /// where finished lanes are retired after it.
    pub(crate) lanes_done: Vec<u32>,
    /// Remaining injection bandwidth (flits) per router this cycle.
    pub(crate) inj_budget: Vec<u32>,
    /// Router owning each input port (inverse of [`PortMap::ports`]).
    pub(crate) port_owner: Vec<u32>,
    /// Packets waiting in source queues, per minimal first-hop link
    /// (indexed by the sender's port) — the
    /// virtual-output-queue component of the UGAL congestion signal. Under
    /// permutation traffic the bottleneck link stays busy (its buffers
    /// drain as fast as they fill), so source-side backlog is the only
    /// observable congestion at the injecting router.
    pub(crate) inj_wait: Vec<u32>,
    /// Scratch for the per-router injection window.
    pub(crate) started_scratch: Vec<usize>,

    /// Flits sent per directed link, indexed by the *sender's* port
    /// ([`PortMap::tx`]): `link_flits[tx(r, i)]` counts `r →
    /// neighbors(r)[i]`, and the flits received on input port `p` are
    /// `link_flits[peer(p)]`. Exposed for utilization analysis and
    /// ablation benches.
    pub link_flits: Vec<u64>,
    /// Diagnostic: heads stalled because every VC of the next hop class
    /// was owned (VC exhaustion), cumulative.
    pub diag_vc_stalls: u64,
    /// Diagnostic: heads stalled on zero downstream credits, cumulative.
    pub diag_credit_stalls: u64,
    /// Diagnostic: outputs that had requests but sent nothing (matching
    /// loss), cumulative.
    pub diag_match_losses: u64,
    /// Diagnostic: hops that exceeded the hop-indexed VC class budget and
    /// were clamped to the top class, cumulative. Nonzero means the
    /// deadlock-freedom argument was abandoned for some packet — the
    /// transient-fault tests and sweeps assert this stays 0.
    pub diag_class_clamps: u64,
    /// Observation-only telemetry collector ([`crate::telemetry`]);
    /// fully inert when both `SimConfig::telemetry_interval` and
    /// `SimConfig::trace_sample` are 0.
    pub(crate) telemetry: TelemetryCtl,
    /// Flits ejected over the whole run (epoch time-series deltas;
    /// `window_flits_ejected` counts only the measurement window).
    pub(crate) total_flits_ejected: u64,
}

impl<'a> Engine<'a> {
    /// Builds an engine for one run of `routing`. `tables` and `dests`
    /// are shared across runs of the same topology/pattern; every
    /// minimal hop is the port `tables` stores, so they must index
    /// `topo.graph()`'s rows ([`RouteTables::build_for`]).
    pub fn new(
        topo: &'a Topology,
        tables: &'a RouteTables,
        dests: &'a DestMap,
        routing: Routing,
        load: f64,
        cfg: SimConfig,
    ) -> Self {
        let g = topo.graph();
        let n = g.vertex_count();
        assert_eq!(tables.router_count(), n);
        // A table hop is read as a port of `g`; residual-indexed tables would misroute.
        let physical = tables.graph().edge_count() == g.edge_count();
        assert!(
            physical,
            "route tables must index the physical graph's rows"
        );
        assert!(
            (0.0..=1.0).contains(&load),
            "offered load must be in [0, 1]"
        );
        // The modelled buffers split the configured VC budget, whatever
        // is allocated below.
        let cap_per_vc = cfg.cap_per_vc();

        let geom = PortMap::build(g);
        let num_ports = geom.num_ports();

        // The fault schedule decides both fault states. Its cycle-0 state
        // masks links before the first cycle (both directions of a failed
        // link go down together). Fault control runs only when an event
        // can still fire after cycle 0: a static failure set builds an
        // engine with no fault hooks on its hot paths.
        let initial = crate::tables::initial_failures(topo);
        let mut link_up = vec![true; num_ports];
        for &(u, v) in initial.edges() {
            let (port_uv, port_vu) = link_ports(g, &geom, u, v);
            link_up[port_uv as usize] = false;
            link_up[port_vu as usize] = false;
        }
        let degraded = !initial.is_empty();
        let transient = !topo.faults().is_static(g);
        let faults = if transient {
            FaultCtl::from_schedule(topo.faults(), g, num_ports)
        } else {
            FaultCtl::default()
        };

        let diameter = tables.max_finite_dist();
        let need = routing.max_hops(diameter);
        // The one way past the declaration: an in-crate test may declare
        // another bound for the engines its thread builds.
        #[cfg(test)]
        let need = tests::declared_hops().unwrap_or(need);
        if degraded || transient {
            // Transient runs re-check at every table re-convergence, when
            // the residual diameter is known.
            assert_vc_budget(&cfg, routing, need, diameter);
        }
        // Allocate the VC state of the hop classes a path can reach — 2
        // of 4 for MIN on a diameter-2 graph, the residual diameter's
        // need under a static failure set. A transient run keeps the
        // configured budget: re-convergence can raise the diameter
        // mid-run. A hop past the allocated classes is clamped to the
        // top one, never past its port.
        let per_class = usize::from(cfg.vcs_per_class);
        let classes = if transient {
            usize::from(cfg.vc_classes)
        } else {
            usize::from(cfg.vc_classes).min(need.max(1) as usize)
        };
        let vcs = per_class * classes;
        let queues = num_ports * vcs;
        assert!(
            g.max_degree() <= MAX_DEGREE,
            "router degree {} exceeds the {MAX_DEGREE}-neighbor ceiling of a byte-wide route claim",
            g.max_degree()
        );
        // The flit store refuses more VCs than its per-port mask holds.
        let bufs = FlitRings::new(num_ports, vcs, cap_per_vc);

        let endpoints = topo.endpoints();
        // Up to 2p concurrent streams share p flits/cycle of aggregate
        // endpoint bandwidth: each stream is rate-limited to 1 flit/cycle
        // (a physical endpoint channel), and the 2x slack absorbs
        // per-stream stalls without idling the budget.
        let stream_caps: Vec<usize> = endpoints.iter().map(|&p| 2 * p as usize).collect();

        let mut port_owner = vec![0u32; num_ports];
        for r in 0..n {
            let (lo, hi) = geom.ports(r);
            for p in lo..hi {
                port_owner[p as usize] = r as u32;
            }
        }

        let skip = SkipCtl::new(n, cfg.pipeline_delay);

        let seed = cfg.seed ^ (load.to_bits().rotate_left(17));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ep_end = endpoints.to_vec();
        for r in 1..n {
            ep_end[r] += ep_end[r - 1];
        }
        // The first gap is drawn only at a positive load: closed-loop
        // engines (built at load 0) keep their RNG stream untouched.
        let gen_ln_q = (-load / f64::from(cfg.packet_flits)).ln_1p();
        let gen_next = if load > 0.0 {
            crate::inject::geometric_gap(rng.gen(), gen_ln_q)
        } else {
            u64::MAX
        };
        Engine {
            topo,
            graph: g,
            tables: Cow::Borrowed(tables),
            dests,
            routing,
            load,
            n,
            vcs,
            per_class,
            cap_per_vc,
            endpoints,
            ep_end,
            gen_next,
            gen_ln_q,
            #[cfg(test)]
            reference: Reference::Off,
            geom,
            link_up,
            degraded,
            transient,
            faults,
            workload: None,
            skip,
            bufs,
            credits: vec![cap_per_vc as u16; queues],
            out_owner: vec![NONE32; queues],
            src_q: vec![VecDeque::new(); n],
            inj: InjPool::new(&stream_caps),
            pipeline: LinkPipeline::new(cfg.link_latency),
            packets: PacketPool::new(),
            rng,
            cycle: 0,
            stats: LatencyStats::default(),
            measured_generated: 0,
            window_flits_ejected: 0,
            total_generated: 0,
            total_delivered: 0,
            port_used: vec![false; num_ports],
            out_taken: vec![false; num_ports],
            req_pending: Vec::new(),
            req_arena: Vec::new(),
            req_span: vec![(0, 0); num_ports],
            touched_outputs: Vec::new(),
            touched_lane_only: Vec::new(),
            pass2_cand: Vec::new(),
            lane_stalled: Vec::new(),
            lanes_done: Vec::new(),
            inj_budget: vec![0; n],
            port_owner,
            inj_wait: vec![0; num_ports],
            started_scratch: Vec::new(),
            link_flits: vec![0; num_ports],
            diag_vc_stalls: 0,
            diag_credit_stalls: 0,
            diag_match_losses: 0,
            diag_class_clamps: 0,
            telemetry: TelemetryCtl::new(cfg.telemetry_interval, cfg.trace_sample),
            total_flits_ejected: 0,
            cfg,
        }
    }

    /// Packs the result fields shared by the open- and closed-loop run
    /// loops (latency statistics, packet counts, fault counters); the
    /// callers fill in only the loop-specific load/saturation/job
    /// fields. One construction site keeps future counters from
    /// silently diverging between the two result packs.
    fn pack_result(
        &mut self,
        offered_load: f64,
        accepted_load: f64,
        saturated: bool,
        deadline_expired: bool,
        jobs: Vec<crate::stats::JobResult>,
    ) -> SimResult {
        let stats = std::mem::take(&mut self.stats);
        let telemetry = self.telemetry_finish();
        SimResult {
            offered_load,
            accepted_load,
            avg_latency: stats.mean(),
            p50_latency: stats.percentile(0.5),
            p99_latency: stats.percentile(0.99),
            p999_latency: stats.percentile(0.999),
            avg_hops: stats.mean_hops(),
            generated: self.measured_generated,
            delivered: stats.count(),
            saturated,
            deadline_expired,
            skipped_router_cycles: self.skip.skipped_router_cycles,
            dropped_flits: self.faults.dropped_flits,
            retransmitted_packets: self.faults.retransmitted_packets,
            table_swaps: self.faults.table_swaps,
            down_link_flits: self.faults.down_link_flits,
            vc_class_clamps: self.diag_class_clamps,
            jobs,
            telemetry,
        }
    }

    /// Runs warmup + measurement + drain and reports the result.
    ///
    /// # Panics
    ///
    /// Panics if a workload is attached — a closed-loop run terminates
    /// on DAG drain, not the phase clock; use [`Engine::run_workload`].
    pub fn run(mut self) -> SimResult {
        self.run_in_place()
    }

    /// [`Engine::run`] on a borrowed engine, so a test can still read the
    /// diagnostic counters afterwards.
    pub(crate) fn run_in_place(&mut self) -> SimResult {
        assert!(
            self.workload.is_none(),
            "run() with a workload attached: use run_workload()"
        );
        let steady = self.cfg.steady_end();
        let deadline = self.deadline();
        loop {
            self.step();
            if self.cycle >= steady && self.stats.count() == self.measured_generated {
                break;
            }
            if self.cycle >= deadline {
                break;
            }
        }
        let saturated = self.stats.count() < self.measured_generated;
        let accepted = self.window_flits_ejected as f64
            / (f64::from(self.cfg.measure) * self.topo.total_endpoints() as f64);
        // Open-loop, the only deadline is the drain budget, so expiry
        // and saturation are the same observation.
        self.pack_result(self.load, accepted, saturated, saturated, Vec::new())
    }

    /// Attaches a closed-loop workload driver: from now on the engine
    /// injects the driver's task-DAG releases instead of Bernoulli
    /// traffic (the driver must have been built against this engine's
    /// topology and `packet_flits`). Build the engine at offered load
    /// 0.0 — the load parameter has no meaning closed-loop.
    pub fn attach_workload(&mut self, driver: WorkloadDriver) {
        self.workload = Some(driver);
    }

    /// Runs the attached workload to completion (every job's DAG
    /// drained) or to [`SimConfig::workload_deadline`], whichever comes
    /// first, and reports per-job makespans in [`SimResult::jobs`].
    ///
    /// Closed-loop semantics of the shared fields: `generated` /
    /// `delivered` count workload packets (conservation: equal on a
    /// completed run), `avg_latency` is per-packet
    /// generation-to-tail-ejection over all workload packets,
    /// `accepted_load` is delivered payload flits per endpoint-cycle
    /// over the makespan, and `deadline_expired` flags an unfinished
    /// workload. `saturated` is set only when the deadline expired while
    /// traffic was still moving (flits in flight, queued packets, live
    /// injection streams, or armed compute timers) — genuinely over-slow;
    /// `deadline_expired && !saturated` is a *wedged* DAG, a distinct
    /// failure the sweeps report separately.
    ///
    /// # Panics
    ///
    /// Panics if no workload was attached.
    pub fn run_workload(mut self) -> SimResult {
        assert!(
            self.workload.is_some(),
            "run_workload without attach_workload"
        );
        let deadline = self.deadline();
        let driver = loop {
            self.step();
            let done = self.workload.as_ref().is_none_or(|d| d.done());
            if done || self.cycle >= deadline {
                match self.workload.take() {
                    Some(d) => break d,
                    // Unreachable past the entry assert; degrade to an
                    // empty expired result rather than panic mid-run.
                    None => return self.pack_result(0.0, 0.0, true, true, Vec::new()),
                }
            }
        };
        let makespan = driver.global_makespan();
        let payload = driver.delivered_payload_flits();
        let accepted = makespan.map_or(0.0, |m| {
            payload as f64 / (f64::from(m.max(1)) * self.topo.total_endpoints() as f64)
        });
        let deadline_expired = makespan.is_none();
        let live = self.flits_in_network() > 0
            || self.source_backlog() > 0
            || self.active_streams() > 0
            || driver.next_timer_cycle().is_some();
        let saturated = deadline_expired && live;
        self.pack_result(0.0, accepted, saturated, deadline_expired, driver.results())
    }

    /// Cycle-skip prologue: wake due dozers, and when the whole network
    /// is provably idle leap to the next interesting cycle (waking any
    /// dozer due at the landing cycle).
    /// The wheel drain must come *before* the leap check — a dozer due
    /// this very cycle blocks the leap by becoming awake.
    #[inline]
    fn skip_prologue(&mut self) {
        self.skip.wheel_wake(self.cycle);
        #[cfg(test)]
        if self.reference.dense_schedule() {
            return;
        }
        if self.skip.none_awake() && self.pipeline.in_flight() == 0 {
            self.maybe_leap();
            // Epoch boundaries leapt over are recorded here, before the
            // landing cycle executes — with the counters frozen across
            // the leap, which is exactly what a walk of the provably
            // idle span would have recorded at each boundary.
            self.telemetry_tick();
            self.skip.wheel_wake(self.cycle);
        }
    }

    /// Leaps `self.cycle` to the earliest upcoming cycle at which
    /// anything can happen: a dozing router's pipeline wake, the next
    /// open-loop arrival, an armed workload compute timer, or a
    /// transient-fault event / staged table swap — bounded by the run
    /// deadline *minus one* (the run loops execute their deadline
    /// cycle's predecessor last; executing the deadline cycle itself
    /// would fire timers a cycle-by-cycle walk never fires). Called only with
    /// every router asleep or dozing and no flits on links, so the
    /// leapt-over cycles are provable no-ops: no RNG draw, no event, no
    /// statistic.
    fn maybe_leap(&mut self) {
        let cycle = self.cycle;
        let bound = self.deadline().saturating_sub(1);
        if bound <= cycle {
            return;
        }
        let mut target = bound;
        if let Some(c) = self.skip.next_doze_wake(cycle) {
            target = target.min(c);
        }
        if self.workload.is_none() && cycle < self.cfg.gen_cutoff {
            // The cycle holding the next open-loop arrival (none without
            // endpoints).
            let due = self.gen_next.checked_div(self.gen_trials());
            let due = due.map_or(u32::MAX, |c| u32::try_from(c).unwrap_or(u32::MAX));
            if due <= cycle {
                // A packet is admitted this very cycle.
                return;
            }
            target = target.min(due);
        }
        if let Some(c) = self.workload.as_ref().and_then(|w| w.next_timer_cycle()) {
            if c <= cycle {
                // A timer due this very cycle: the cycle is not a no-op.
                return;
            }
            target = target.min(c);
        }
        if self.transient {
            if let Some(c) = self.faults.next_wake() {
                if c <= cycle {
                    // A fault event or staged swap fires this cycle.
                    return;
                }
                target = target.min(c);
            }
        }
        if target > cycle {
            self.skip.charge_leap(self.n, target - cycle);
            self.cycle = target;
        }
    }

    /// The run's hard stop: [`SimConfig::workload_deadline`] with a
    /// workload attached, [`SimConfig::deadline`] otherwise. The run
    /// loops execute cycles `0..deadline()`.
    #[inline]
    pub(crate) fn deadline(&self) -> u32 {
        if self.workload.is_some() {
            self.cfg.workload_deadline
        } else {
            self.cfg.deadline()
        }
    }

    /// Open-loop Bernoulli trials per cycle: one per endpoint.
    #[inline]
    pub(crate) fn gen_trials(&self) -> u64 {
        self.ep_end.last().map_or(0, |&t| u64::from(t))
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        let cycle = self.begin_cycle();
        // 5. Switch allocation: iSLIP request–grant–accept over all ready
        //    VC heads and injection streams, iterated so inputs that lose
        //    a round can be rematched within the cycle.
        for it in 0..self.cfg.alloc_iters.max(1) {
            let mark = prof_mark();
            if it == 0 {
                self.build_requests(cycle);
            } else {
                // Later passes replay what the previous one left stalled
                // (no rescan — see `build_requests_again`).
                self.build_requests_again(cycle);
            }
            self.telemetry.prof_lap(ProfPhase::Route, mark);
            let mark = prof_mark();
            self.grant_and_accept(cycle);
            self.telemetry.prof_lap(ProfPhase::Alloc, mark);
        }

        self.cycle += 1;
    }

    /// Everything of a cycle that precedes switch allocation (phases 0–4
    /// and the injection-budget reset); returns the cycle being executed
    /// — after a leap, not the one the step started at.
    pub(crate) fn begin_cycle(&mut self) -> u32 {
        // Epoch telemetry snapshots run before anything this cycle does.
        self.telemetry_tick();
        let mark = prof_mark();
        self.skip_prologue();
        self.telemetry.prof_lap(ProfPhase::SkipLeap, mark);
        let cycle = self.cycle;
        if self.transient {
            // 0. Fault events scheduled for this cycle (mask flips,
            //    in-flight policy) and any due table re-convergence.
            self.apply_fault_events(cycle);
            self.maybe_swap_tables(cycle);
        }
        self.port_used.iter_mut().for_each(|v| *v = false);
        self.out_taken.iter_mut().for_each(|v| *v = false);
        // 1. Link arrivals.
        self.apply_arrivals(cycle);
        // 2. Packet generation: closed-loop task-DAG releases when a
        //    workload is attached, the open-loop Bernoulli process
        //    otherwise.
        let mark = prof_mark();
        if self.workload.is_some() {
            self.workload_release(cycle);
        } else if cycle < self.cfg.gen_cutoff {
            self.generate(cycle);
        }
        self.telemetry.prof_lap(ProfPhase::Generate, mark);
        // Generation was the last phase that can wake a router, so the
        // awake list built here covers everything the remaining phases
        // must scan.
        self.build_awake_list();
        // 3. Ejection (before switch allocation: ejection drains
        //    unconditionally, which the VC ordering relies on).
        let mark = prof_mark();
        self.eject(cycle);
        self.telemetry.prof_lap(ProfPhase::Eject, mark);
        // 4. Injection starts.
        self.start_injections();
        self.reset_inj_budgets();
        cycle
    }

    /// Rebuilds this cycle's awake list (the routers every later phase
    /// scans) and charges the routers left off it as skipped.
    #[inline]
    fn build_awake_list(&mut self) {
        #[cfg(test)]
        if self.reference.dense_schedule() {
            self.skip.awake_list.clear();
            self.skip.awake_list.extend(0..self.n as u32);
            return;
        }
        self.skip.build_awake_list(self.n);
    }

    /// Runs `f` on every router of this cycle's awake list, ascending —
    /// the one router loop of every per-cycle phase. A non-awake router
    /// has no ready flit, no queued packet and no injection stream, so
    /// a scan over it would do nothing and draw no RNG.
    #[inline]
    pub(crate) fn for_each_awake(&mut self, mut f: impl FnMut(&mut Self, usize)) {
        let list = std::mem::take(&mut self.skip.awake_list);
        for &r in &list {
            f(self, r as usize);
        }
        self.skip.awake_list = list;
    }

    /// The lowest port in `[from, to)` holding a flit — with `eject`, a
    /// flit that terminates at the port's router. The one port walk of
    /// the request and ejection scans.
    #[inline]
    pub(crate) fn next_port(&self, eject: bool, from: u32, to: u32) -> Option<u32> {
        #[cfg(test)]
        if self.reference.dense_schedule() {
            let b = &self.bufs;
            return (from..to).find(|&p| {
                if eject {
                    b.term_flits(p as usize) > 0
                } else {
                    b.vc_mask(p as usize) != 0
                }
            });
        }
        self.bufs.next_port(eject, from, to)
    }

    /// Drains this cycle's link arrivals into the input buffers (phase
    /// 1).
    fn apply_arrivals(&mut self, cycle: u32) {
        let arrivals = self.pipeline.arrivals(cycle);
        let ready_at = cycle + self.cfg.pipeline_delay;
        for a in &arrivals {
            let buf = a.buf as usize;
            let (port, vc) = (buf / self.vcs, buf % self.vcs);
            let r = self.port_owner[port] as usize;
            debug_assert_eq!(a.term, self.packets.dst[a.pkt as usize] == r as u32);
            self.skip.on_arrival(r, ready_at, cycle);
            self.bufs
                .push_back(port, vc, a.pkt, a.seq, ready_at, a.term);
        }
        self.pipeline.recycle(cycle, arrivals);
    }

    /// Index into [`Engine::credits`] of the counter guarding VC `vc` of
    /// input port `port`: the upstream sender's (tx port, VC). A
    /// receiver returning a credit is the one place a flit hop writes
    /// another router's state.
    #[inline]
    pub(crate) fn credit_of(&self, port: u32, vc: usize) -> usize {
        self.geom.peer(port) as usize * self.vcs + vc
    }

    /// The (tx port, VC) output index (`tx · vcs + vc`) queue `q`'s route
    /// claim holds, if it is routed — an output of the router owning `q`,
    /// by construction.
    #[inline]
    pub(crate) fn claim_output(&self, q: usize) -> Option<usize> {
        let c = self.bufs.claim(q)?;
        let r = self.port_owner[q / self.vcs];
        Some(self.geom.tx(r, usize::from(c.out)) as usize * self.vcs + usize::from(c.vc))
    }

    /// The (port, VC) flit buffers, read-only (diagnostics and tests).
    pub fn flit_rings(&self) -> &FlitRings {
        &self.bufs
    }

    /// Number of flits currently stored or in flight (test invariant).
    pub fn flits_in_network(&self) -> usize {
        self.bufs.total_flits() + self.pipeline.in_flight()
    }

    /// Packets generated but not yet injected, across all routers.
    pub fn source_backlog(&self) -> usize {
        self.src_q.iter().map(VecDeque::len).sum()
    }

    /// Injection streams currently active, across all routers.
    pub fn active_streams(&self) -> usize {
        self.inj.total()
    }

    /// Packets generated since construction (measured or not).
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Packets fully ejected since construction (measured or not).
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Current cycle (the number of completed [`Engine::step`] calls).
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Packets returned to their source queues after fault events so far.
    pub fn retransmitted_packets(&self) -> u64 {
        self.faults.retransmitted_packets
    }

    /// Route-table re-convergence swaps completed so far.
    pub fn table_swaps(&self) -> u32 {
        self.faults.table_swaps
    }

    /// Flits that traversed a fully-down (not draining) link so far —
    /// always 0 unless routing is broken.
    pub fn down_link_flits(&self) -> u64 {
        self.faults.down_link_flits
    }

    /// Asserts the credit/buffer accounting invariants (used by the
    /// property tests; panics with a diagnostic on violation):
    ///
    /// * no credit counter exceeds the buffer depth;
    /// * no buffer holds more flits than its depth, and the flit store
    ///   leaks no pool node ([`FlitRings::validate`]);
    /// * per queue, buffered flits never exceed the credits its upstream
    ///   sender spent on it (queue `q` of input port `p` pairs with the
    ///   counter of `peer(p)`);
    /// * globally, credits spent == flits buffered + flits on links
    ///   (credits return with zero latency, so nothing else may hold one);
    /// * the owned (tx port, VC) outputs are exactly the live route
    ///   claims plus the unfinished injection lanes, one owner each;
    /// * an owned output's packet is the head packet of its claiming
    ///   queue whenever that queue is nonempty, and the packet of its
    ///   lane.
    pub fn validate_flow_invariants(&self) {
        self.bufs.validate();
        let cap = self.cap_per_vc;
        let mut spent_total: u64 = 0;
        for q in 0..self.credits.len() {
            let (port, vc) = (q / self.vcs, q % self.vcs);
            let credits = u32::from(self.credits[self.credit_of(port as u32, vc)]);
            let held = self.bufs.len(q);
            assert!(
                credits <= cap,
                "queue {q}: credits {credits} exceed buffer depth {cap}"
            );
            let spent = cap - credits;
            assert!(
                held <= spent,
                "queue {q}: {held} buffered flits but only {spent} credits spent"
            );
            spent_total += u64::from(spent);
        }
        let accounted = (self.bufs.total_flits() + self.pipeline.in_flight()) as u64;
        assert_eq!(
            spent_total, accounted,
            "credit leak: {spent_total} credits spent vs {accounted} flits buffered/in flight"
        );

        let mut owners = vec![0u32; self.out_owner.len()];
        for q in 0..self.credits.len() {
            let Some(c) = self.bufs.claim(q) else {
                continue;
            };
            let r = self.port_owner[q / self.vcs];
            assert!(
                usize::from(c.out) < self.graph.degree(r) && usize::from(c.vc) < self.vcs,
                "queue {q}: route claim (neighbor {}, VC {}) names no output of its router",
                c.out,
                c.vc
            );
            let o = self.geom.tx(r, usize::from(c.out)) as usize * self.vcs + usize::from(c.vc);
            owners[o] += 1;
            if let Some((head, _, _)) = self.bufs.front(q) {
                assert_eq!(
                    self.out_owner[o], head,
                    "queue {q}: its claimed output is owned by another packet than its head's"
                );
            }
        }
        for r in 0..self.n {
            for s in 0..self.inj.len(r) {
                let slot = self.inj.slot(r, s);
                if self.inj.next_seq[slot] < self.cfg.packet_flits {
                    let o = self.inj.out_buf[slot] as usize;
                    owners[o] += 1;
                    assert_eq!(
                        self.out_owner[o], self.inj.pkt[slot],
                        "lane of packet {}: its output is owned by another packet",
                        self.inj.pkt[slot]
                    );
                }
            }
        }
        for (o, (&owner, &claims)) in self.out_owner.iter().zip(&owners).enumerate() {
            let owned = u32::from(owner != NONE32);
            assert_eq!(
                owned,
                claims,
                "output (port {}, VC {}): owned = {owned} but {claims} live claim(s)",
                o / self.vcs,
                o % self.vcs
            );
        }
    }

    /// Router-cycles the skip machinery proved idle so far (mirrors
    /// [`SimResult::skipped_router_cycles`] for mid-run inspection).
    pub fn skipped_router_cycles(&self) -> u64 {
        self.skip.skipped_router_cycles
    }

    /// Asserts the iteration-domain invariants (used by the skip
    /// property tests):
    ///
    /// * the flit store's port bitsets, VC masks and terminating-flit
    ///   counts match what its queues hold ([`FlitRings::validate`]);
    /// * a non-awake router has no queued packet and no injection
    ///   stream;
    /// * an asleep router holds no buffered flit at all;
    /// * a dozing router's wake cycle is never *later* than the earliest
    ///   `ready_at` among its buffered flits — i.e. the tracked
    ///   next-interesting cycle never overshoots the real next possible
    ///   state change;
    /// * while the open-loop generator runs, its next arrival is never
    ///   behind the clock — i.e. no leap crossed a due arrival.
    pub fn validate_skip_invariants(&self) {
        self.bufs.validate();
        if self.workload.is_none() && self.cycle < self.cfg.gen_cutoff {
            assert!(
                self.gen_next >= u64::from(self.cycle) * self.gen_trials(),
                "open-loop trial {} is behind cycle {}: a leap crossed its arrival",
                self.gen_next,
                self.cycle
            );
        }
        for r in 0..self.n {
            let (lo, hi) = self.geom.ports(r);
            let mut buffered = 0u32;
            let mut min_ready = u32::MAX;
            for p in lo..hi {
                for v in 0..self.vcs {
                    let q = p as usize * self.vcs + v;
                    buffered += self.bufs.len(q);
                    for (_, _, ready) in self.bufs.iter(q) {
                        min_ready = min_ready.min(ready);
                    }
                }
            }
            if !self.skip.is_awake(r) {
                assert!(
                    self.src_q[r].is_empty(),
                    "non-awake router {r} has queued packets"
                );
                assert_eq!(
                    self.inj.len(r),
                    0,
                    "non-awake router {r} has active injection streams"
                );
                let wake = self.skip.wake_at(r);
                if wake == NONE32 {
                    assert_eq!(buffered, 0, "asleep router {r} holds buffered flits");
                } else {
                    assert!(buffered > 0, "dozing router {r} holds no flit");
                    assert!(
                        wake <= min_ready,
                        "router {r}: doze wake {wake} overshoots earliest ready {min_ready}"
                    );
                }
            }
        }
    }
}

/// Convenience: one full run.
pub fn simulate(
    topo: &Topology,
    tables: &RouteTables,
    dests: &DestMap,
    routing: Routing,
    load: f64,
    cfg: SimConfig,
) -> SimResult {
    Engine::new(topo, tables, dests, routing, load, cfg).run()
}

#[cfg(test)]
mod tests;
