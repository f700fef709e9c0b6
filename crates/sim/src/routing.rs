//! Routing (§VII): the paper's six algorithms as one closed [`Routing`]
//! enum, one `match` per method. The engine holds the value and calls
//! it at exactly two points:
//!
//! * [`Routing::plan`] — once per packet at injection, deciding
//!   minimal vs. detour (and the Valiant intermediate);
//! * [`Routing::next_output`] — once per packet per hop, mapping
//!   (router, current target) to a local output port.
//!
//! Both receive a [`NetState`] — a read-only view of the tables, port
//! geometry and congestion state — so the algorithms stay stateless.
//! The serving [`RouteTables`] are the one minimal-hop source on every
//! topology: the byte a table stores is the output port
//! ([`RouteTables::port`]). On PolarFly that hop is the algebraic one
//! (`polarfly::routing::next_hop_minimal`), pinned by
//! `tests/routing_parity.rs`.

use crate::router::PortMap;
use crate::tables::RouteTables;
use pf_graph::Csr;
use rand::rngs::StdRng;
use rand::Rng;

/// A local output-port index at a router (position in its neighbor list).
pub type Port = u32;

/// Read-only network view handed to routing decisions.
pub struct NetState<'e> {
    /// Minimal next-hop tables, distances walked along them (routed
    /// around the links down when they were built, indexed by the
    /// physical rows — see [`RouteTables::build_without`]).
    pub tables: &'e RouteTables,
    /// The *physical* router graph (failed links keep their ports).
    pub graph: &'e Csr,
    /// Port geometry.
    pub geom: &'e PortMap,
    /// Per-link liveness, indexed by the sender's port
    /// ([`PortMap::tx`]): `false` marks a failed link no routing decision
    /// may select. Both directions of a link fail together, so the slice
    /// is symmetric under [`PortMap::peer`].
    pub link_up: &'e [bool],
    /// Whether any link is failed — `false` keeps the healthy hot paths
    /// free of mask loads.
    pub degraded: bool,
    /// The sender's credit view, indexed by the sender's (tx port, VC):
    /// `credits[tx(r, i) · vcs + v]` is the free space of VC `v` of the
    /// input buffer at the far end of `r`'s link `i`.
    pub credits: &'e [u16],
    /// Source-queue backlog (packets) charged per minimal first-hop
    /// link, indexed by the sender's port.
    pub inj_wait: &'e [u32],
    /// Allocated virtual channels per port — the stride of `credits`:
    /// `per_class` × the hop classes the run can reach (see
    /// [`Routing::max_hops`]), at most `SimConfig::vcs()`.
    pub vcs: usize,
    /// VCs per class.
    pub per_class: usize,
    /// Flit capacity of one VC buffer.
    pub cap_per_vc: u32,
    /// Flits per packet.
    pub packet_flits: u16,
    /// UGAL-PF adaptation threshold (fraction of class capacity).
    pub ugal_pf_threshold: f64,
}

impl NetState<'_> {
    /// Occupied flits across all VCs of the link toward neighbor-index `i`
    /// of router `r` — the congestion signal UGAL uses.
    pub fn link_occupancy(&self, r: u32, i: usize) -> u32 {
        let link = self.geom.tx(r, i) as usize;
        let mut occ = 0;
        for vc in 0..self.vcs {
            occ += self.cap_per_vc - u32::from(self.credits[link * self.vcs + vc]);
        }
        occ
    }

    /// UGAL congestion signal toward `d`: downstream buffer occupancy of
    /// the table's minimal output plus the source-queue backlog charged
    /// to that link (in flits); 0 when the tables cannot route the pair.
    pub fn occupancy_toward(&self, r: u32, d: u32) -> u32 {
        let Some(i) = self.tables.port(r, d) else {
            return 0;
        };
        let link = self.geom.tx(r, i);
        self.link_occupancy(r, i) + self.inj_wait[link as usize] * u32::from(self.packet_flits)
    }

    /// Occupied flits in the class-0 (injection) VCs of the table's
    /// minimal output toward `d` plus its source-queue backlog — the
    /// congestion signal for the UGAL-PF threshold; 0 when the tables
    /// cannot route the pair.
    pub fn class0_occupancy_toward(&self, r: u32, d: u32) -> u32 {
        let Some(i) = self.tables.port(r, d) else {
            return 0;
        };
        let link = self.geom.tx(r, i) as usize;
        let mut occ = 0;
        for vc in 0..self.per_class {
            occ += self.cap_per_vc - u32::from(self.credits[link * self.vcs + vc]);
        }
        occ + self.inj_wait[link] * u32::from(self.packet_flits)
    }

    /// Whether the physical link from `r` to its neighbor-index `i` is up.
    #[inline]
    pub fn link_ok(&self, r: u32, i: usize) -> bool {
        !self.degraded || self.link_up[self.geom.tx(r, i) as usize]
    }

    /// A uniformly random *live* neighbor of `r` (reservoir sampling over
    /// unmasked links), or `None` if every incident link is down — which a
    /// connected residual graph rules out.
    pub fn random_live_neighbor(&self, r: u32, rng: &mut StdRng) -> Option<u32> {
        let nbrs = self.graph.neighbors(r);
        if !self.degraded {
            return Some(nbrs[rng.gen_range(0..nbrs.len())]);
        }
        let mut chosen = None;
        let mut seen = 0u32;
        for (i, &w) in nbrs.iter().enumerate() {
            if !self.link_ok(r, i) {
                continue;
            }
            seen += 1;
            if rng.gen_range(0..seen) == 0 {
                chosen = Some(w);
            }
        }
        chosen
    }
}

/// The (router, current target) pair a transit decision sees.
#[derive(Debug, Clone, Copy)]
pub struct HopContext {
    /// Router holding the packet.
    pub router: u32,
    /// Where the packet currently heads (the Valiant intermediate until it
    /// is passed, the destination afterwards).
    pub target: u32,
}

/// Injection-time path plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePlan {
    /// Ride the minimal route the whole way.
    Minimal,
    /// Route minimally to this intermediate first, then to the
    /// destination (Valiant / UGAL detour).
    Detour(u32),
}

/// Routes one packet hop through `routing`, enforcing the link-liveness
/// contract on degraded/transient networks.
///
/// While stale tables serve during a re-convergence window, an
/// algorithm's choice can land on a link that just died (or, for
/// [`Routing::MinAdaptive`], no live stale-minimal candidate may exist,
/// signalled by `Port::MAX`). The packet is then *fast-rerouted*: it takes the
/// `pending` (already re-converged, residual-minimal) tables' next hop
/// and stays pinned to them for the rest of its path — the simulator's
/// model of precomputed link-failure backup routes. Pinning makes every
/// path loop-free and hop-bounded: a strictly-decreasing stale prefix,
/// one transition, then a strictly-decreasing residual suffix. Mixing
/// the two metrics hop-by-hop instead can ping-pong forever (stale
/// points forward, backup points back).
///
/// Healthy and static-failure runs take the algorithm's answer
/// untouched: `pending` is `None` there (and after every completed
/// swap), so the pin state is not even consulted — a stale pin past its
/// convergence is deliberately ignored, because the serving tables *are*
/// the backup routes once the swap lands.
#[inline]
pub(crate) fn route_output(
    routing: Routing,
    net: &NetState,
    pending: Option<&RouteTables>,
    pinned: &mut [bool],
    pkt: u32,
    hop: HopContext,
    rng: &mut StdRng,
) -> Port {
    if let Some(pt) = pending {
        if pinned[pkt as usize] {
            if let Some(i) = table_port(net, pt, hop) {
                return i;
            }
            // Pending cannot route this pair (should not happen on a
            // live-connected residual); greedy last resort.
            return fallback_live_min(net, hop);
        }
    }
    let p = routing.next_output(net, hop, rng);
    if !net.degraded || (p != Port::MAX && net.link_ok(hop.router, p as usize)) {
        return p;
    }
    // Stale next hop is dead: pin onto the backup (pending) tables.
    pinned[pkt as usize] = true;
    if let Some(pt) = pending {
        if let Some(i) = table_port(net, pt, hop) {
            return i;
        }
    }
    fallback_live_min(net, hop)
}

/// `tables`' port for this pair, if the pair is routable under them and
/// the port's link is live.
fn table_port(net: &NetState, tables: &RouteTables, hop: HopContext) -> Option<Port> {
    let i = tables.port(hop.router, hop.target)?;
    net.link_ok(hop.router, i).then_some(i as Port)
}

/// Greedy last resort: the live neighbor minimizing the (possibly
/// stale) table distance to the target. Only reachable when no pending
/// tables exist for a pair mid-window; deterministic first-minimum
/// tie-break.
fn fallback_live_min(net: &NetState, hop: HopContext) -> Port {
    let mut best = Port::MAX;
    let mut best_d = u32::MAX;
    for (i, &w) in net.graph.neighbors(hop.router).iter().enumerate() {
        if !net.link_ok(hop.router, i) {
            continue;
        }
        let d = net.tables.dist(w, hop.target);
        if d < best_d {
            best_d = d;
            best = i as Port;
        }
    }
    assert_ne!(
        best,
        Port::MAX,
        "router {} has no live links (disconnected fault state)",
        hop.router
    );
    best
}

/// A uniformly random Valiant intermediate, distinct from both
/// endpoints. Every fault state is connected
/// ([`pf_graph::FaultSchedule::validate`]), so the tables route both legs.
fn random_mid(net: &NetState, src: u32, dst: u32, rng: &mut StdRng) -> u32 {
    let n = net.graph.vertex_count() as u32;
    loop {
        let r = rng.gen_range(0..n);
        if r != src && r != dst {
            return r;
        }
    }
}

/// Routing algorithm (§VII of the paper), decomposed into the
/// per-packet plan and the per-hop output choice. [`crate::Engine::new`]
/// stores the value.
///
/// Every variant except [`Routing::MinAdaptive`] takes the serving
/// table's port ([`RouteTables::port`]) on every hop; they differ only
/// in the injection-time [`RoutePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Deterministic minimal routing: the table's seeded tie-break (on
    /// PolarFly, the algebraic next hop — minimal paths are unique).
    Min,
    /// Adaptive minimal: at every hop choose, among the minimal next hops,
    /// the output with the fewest occupied downstream flits. On a fat tree
    /// this is NCA routing; on direct networks it is adaptive ECMP.
    MinAdaptive,
    /// Valiant: minimal to a uniformly random intermediate router, then
    /// minimal to the destination (≤ 4 hops on diameter-2 networks).
    Valiant,
    /// Compact Valiant (§VII-B): the intermediate is a random neighbor of
    /// the source (≤ 3-hop detours); adjacent pairs go minimally.
    CompactValiant,
    /// UGAL-L: per-packet choice between the minimal and a random-Valiant
    /// path by comparing (queue length × hop count) at injection.
    Ugal,
    /// UGAL-PF (§VII-C): Compact-Valiant detours taken only when the
    /// minimal output's injection-class buffers are more than
    /// `ugal_pf_threshold` full.
    UgalPf,
}

impl Routing {
    /// All six algorithms, in the paper's presentation order.
    pub fn all() -> [Routing; 6] {
        [
            Routing::Min,
            Routing::MinAdaptive,
            Routing::Valiant,
            Routing::CompactValiant,
            Routing::Ugal,
            Routing::UgalPf,
        ]
    }

    /// Label used in result tables (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Routing::Min => "MIN",
            Routing::MinAdaptive => "NCA",
            Routing::Valiant => "VAL",
            Routing::CompactValiant => "CVAL",
            Routing::Ugal => "UGAL",
            Routing::UgalPf => "UGALPF",
        }
    }

    /// Chooses the local output port at `hop.router` toward `hop.target`
    /// (`Port::MAX` when the serving tables cannot route the pair).
    pub fn next_output(self, net: &NetState, hop: HopContext, rng: &mut StdRng) -> Port {
        match self {
            Routing::MinAdaptive => adaptive_min_output(net, hop, rng),
            _ => net
                .tables
                .port(hop.router, hop.target)
                .map_or(Port::MAX, |i| i as Port),
        }
    }

    /// Decides minimal vs. detour for a packet about to be injected.
    pub fn plan(self, net: &NetState, src: u32, dst: u32, rng: &mut StdRng) -> RoutePlan {
        match self {
            Routing::Min | Routing::MinAdaptive => RoutePlan::Minimal,
            Routing::Valiant => RoutePlan::Detour(random_mid(net, src, dst, rng)),
            Routing::CompactValiant if net.tables.next_hop(src, dst) == dst => RoutePlan::Minimal,
            Routing::CompactValiant => neighbor_detour(net, src, rng),
            Routing::Ugal => {
                let mid = random_mid(net, src, dst, rng);
                let h_min = net.tables.dist(src, dst);
                let h_val = net.tables.dist(src, mid) + net.tables.dist(mid, dst);
                let q_min = net.occupancy_toward(src, dst);
                let q_val = net.occupancy_toward(src, mid);
                if q_val * h_val < q_min * h_min {
                    RoutePlan::Detour(mid)
                } else {
                    RoutePlan::Minimal
                }
            }
            Routing::UgalPf => {
                // Occupancy of the *injection class* (class-0 VCs) of the
                // minimal output plus source-queue backlog: the buffer
                // space this packet would contend for, so the threshold is
                // taken against the class capacity.
                let q_min = net.class0_occupancy_toward(src, dst);
                let class_cap = net.cap_per_vc * net.per_class as u32;
                if f64::from(q_min) <= net.ugal_pf_threshold * f64::from(class_cap) {
                    RoutePlan::Minimal
                } else if net.tables.next_hop(src, dst) == dst {
                    // Adjacent pairs: a neighbor detour could bounce back
                    // through the source (§VII-B), so fall back to general
                    // Valiant — 4-hop detours, as Fig. 9b describes.
                    RoutePlan::Detour(random_mid(net, src, dst, rng))
                } else {
                    neighbor_detour(net, src, rng)
                }
            }
        }
    }

    /// Worst-case path length (hops) this algorithm can produce on a
    /// graph of the given `diameter` — the number of hop-indexed VC
    /// classes deadlock freedom requires. MIN and NCA stay minimal;
    /// Compact Valiant adds one hop to the neighbor intermediate; Valiant
    /// and the UGALs compose two minimal legs. `tests/hop_certificate.rs`
    /// checks the bound against every path each algorithm may take.
    ///
    /// This also sizes the engine's VC state: outside transient runs an
    /// engine allocates only `min(vc_classes, max_hops(diameter))`
    /// classes. A hop past the bound would share the top allocated class
    /// and count as [`crate::SimResult::vc_class_clamps`], voiding the
    /// deadlock-freedom argument for that packet.
    pub fn max_hops(self, diameter: u32) -> u32 {
        match self {
            Routing::Min | Routing::MinAdaptive => diameter,
            Routing::CompactValiant => diameter + 1,
            Routing::Valiant | Routing::Ugal | Routing::UgalPf => 2 * diameter,
        }
    }
}

/// A detour through a random live neighbor of `src` (minimal if it has
/// none).
fn neighbor_detour(net: &NetState, src: u32, rng: &mut StdRng) -> RoutePlan {
    net.random_live_neighbor(src, rng)
        .map_or(RoutePlan::Minimal, RoutePlan::Detour)
}

/// [`Routing::MinAdaptive`]'s hop: the minimal next hop with the fewest
/// occupied downstream flits.
///
/// Ties are broken uniformly at random — deterministic tie-breaking
/// makes every source herd onto the same equal-cost port in the same
/// cycle, which measurably collapses folded-Clos throughput. Failed
/// links are masked out of the candidate set; tables built on the
/// residual graph guarantee a live minimal hop remains, but *stale*
/// tables inside a transient re-convergence window may not — then
/// `Port::MAX` is returned and the engine's fast-reroute wrapper
/// ([`route_output`]) detours the packet onto the pending tables.
fn adaptive_min_output(net: &NetState, hop: HopContext, rng: &mut StdRng) -> Port {
    let want = net.tables.dist(hop.router, hop.target) - 1;
    let mut best = Port::MAX;
    let mut best_occ = u32::MAX;
    let mut ties = 0u32;
    for (i, &w) in net.graph.neighbors(hop.router).iter().enumerate() {
        // A walk of at most `want` hops settles `dist(w, target) == want`.
        if !net.link_ok(hop.router, i) || net.tables.dist_within(w, hop.target, want) != Some(want)
        {
            continue;
        }
        let occ = net.link_occupancy(hop.router, i);
        if occ < best_occ {
            best_occ = occ;
            best = i as Port;
            ties = 1;
        } else if occ == best_occ {
            ties += 1;
            // Reservoir sampling keeps the choice uniform over ties.
            if rng.gen_range(0..ties) == 0 {
                best = i as Port;
            }
        }
    }
    debug_assert!(
        net.degraded || best != Port::MAX,
        "no minimal next hop found"
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use pf_topo::{PolarFlyTopo, Topology};
    use polarfly::routing::next_hop_minimal;
    use rand::SeedableRng;

    /// A congestion-free network view of `topo`: every link up, every
    /// credit free, no source backlog.
    struct Idle {
        tables: RouteTables,
        geom: PortMap,
        link_up: Vec<bool>,
        credits: Vec<u16>,
        inj_wait: Vec<u32>,
        cfg: SimConfig,
    }

    impl Idle {
        fn new(topo: &Topology) -> Idle {
            let cfg = SimConfig::default();
            let geom = PortMap::build(topo.graph());
            let ports = geom.num_ports();
            Idle {
                tables: RouteTables::build(topo.graph(), 1),
                link_up: vec![true; ports],
                credits: vec![cfg.cap_per_vc() as u16; ports * cfg.vcs()],
                inj_wait: vec![0; ports],
                geom,
                cfg,
            }
        }

        fn net<'a>(&'a self, topo: &'a Topology) -> NetState<'a> {
            NetState {
                tables: &self.tables,
                graph: topo.graph(),
                geom: &self.geom,
                link_up: &self.link_up,
                degraded: false,
                credits: &self.credits,
                inj_wait: &self.inj_wait,
                vcs: self.cfg.vcs(),
                per_class: usize::from(self.cfg.vcs_per_class),
                cap_per_vc: self.cfg.cap_per_vc(),
                packet_flits: self.cfg.packet_flits,
                ugal_pf_threshold: self.cfg.ugal_pf_threshold,
            }
        }
    }

    /// The routers a packet planned as `plan` visits from `s` to `d`,
    /// riding the table's next hop on every leg; each step must follow a
    /// graph edge.
    fn walk(net: &NetState, s: u32, d: u32, plan: RoutePlan) -> Vec<u32> {
        let legs = match plan {
            RoutePlan::Detour(m) => vec![m, d],
            RoutePlan::Minimal => vec![d],
        };
        let mut path = vec![s];
        let mut cur = s;
        for target in legs {
            while cur != target {
                let next = net.tables.next_hop(cur, target);
                assert!(net.graph.has_edge(cur, next), "{s}->{d}: {path:?}");
                path.push(next);
                cur = next;
            }
        }
        path
    }

    #[test]
    fn algebraic_next_hop_matches_table() {
        let topo = PolarFlyTopo::new(11, 6).unwrap();
        let pf = topo.polarfly().unwrap();
        let idle = Idle::new(&topo);
        let net = idle.net(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        let n = topo.router_count() as u32;
        for s in 0..n {
            for d in (0..n).filter(|&d| d != s) {
                let hop = HopContext {
                    router: s,
                    target: d,
                };
                let port = Routing::Min.next_output(&net, hop, &mut rng);
                let next = topo.graph().neighbors(s)[port as usize];
                assert_eq!(next, next_hop_minimal(pf, s, d), "{s}->{d}");
                assert_eq!(next, idle.tables.next_hop(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn valiant_routes_are_valid_and_bounded() {
        let topo = PolarFlyTopo::new(7, 4).unwrap();
        let idle = Idle::new(&topo);
        let net = idle.net(&topo);
        let n = topo.router_count() as u32;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let s = rng.gen_range(0..n);
            let d = loop {
                let d = rng.gen_range(0..n);
                if d != s {
                    break d;
                }
            };
            let plan = Routing::Valiant.plan(&net, s, d, &mut rng);
            let val = walk(&net, s, d, plan);
            assert!(val.len() <= 5, "VAL longer than 4 hops: {val:?}");
            assert_eq!(val.last(), Some(&d));

            let plan = Routing::CompactValiant.plan(&net, s, d, &mut rng);
            let cval = walk(&net, s, d, plan);
            assert!(cval.len() <= 4, "CVAL longer than 3 hops: {cval:?}");
            assert_eq!(cval.last(), Some(&d));
            // No bounce through the source.
            let bounced = cval[1..].contains(&s);
            assert!(!bounced, "CVAL bounced through {s}: {cval:?}");
        }
    }

    #[test]
    fn compact_valiant_adjacent_pairs_use_min_path() {
        let topo = PolarFlyTopo::new(5, 3).unwrap();
        let idle = Idle::new(&topo);
        let net = idle.net(&topo);
        let mut rng = StdRng::seed_from_u64(3);
        for (u, v) in topo.polarfly().unwrap().graph().edges() {
            for (s, d) in [(u, v), (v, u)] {
                let plan = Routing::CompactValiant.plan(&net, s, d, &mut rng);
                assert_eq!(plan, RoutePlan::Minimal, "{s}->{d}");
                assert_eq!(walk(&net, s, d, plan), vec![s, d]);
            }
        }
    }
}
