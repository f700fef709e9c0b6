//! The [`Topology`] abstraction consumed by the simulator and structural
//! analyses, plus the qualitative feasibility matrix of Table I.

use pf_graph::{Csr, FaultSchedule};
use polarfly::PolarFly;

/// What a topology can tell routing layers about its structure, beyond
/// the bare graph. Simulators use this to swap table lookups for
/// closed-form next-hop computation when the topology supports one.
pub enum RoutingHint<'a> {
    /// No structure to exploit: route from generic shortest-path tables.
    Generic,
    /// The router graph is `ER_q`: minimal next hops are computable in
    /// O(1) via the cross product (`polarfly::routing::next_hop_minimal`).
    PolarFly(&'a PolarFly),
}

/// A network topology as the simulator sees it: a router graph plus the
/// number of compute endpoints attached to each router (zero for pure
/// switches, e.g. non-edge fat-tree levels).
pub trait Topology: Send + Sync {
    /// Human-readable instance name (e.g. `"PF(q=31,p=16)"`).
    fn name(&self) -> String;

    /// The router-to-router link graph.
    fn graph(&self) -> &Csr;

    /// Endpoints (injection/ejection channels) attached to router `r`.
    fn endpoints(&self, r: u32) -> usize;

    /// Number of routers.
    fn router_count(&self) -> usize {
        self.graph().vertex_count()
    }

    /// Routers that have at least one endpoint ("hosts" for traffic
    /// patterns), ascending.
    fn host_routers(&self) -> Vec<u32> {
        (0..self.router_count() as u32)
            .filter(|&r| self.endpoints(r) > 0)
            .collect()
    }

    /// Total endpoint count.
    fn total_endpoints(&self) -> usize {
        (0..self.router_count() as u32)
            .map(|r| self.endpoints(r))
            .sum()
    }

    /// Whether the topology is direct (every router is also a compute
    /// node). Direct networks need only one co-packaged chip type (§III).
    fn is_direct(&self) -> bool {
        true
    }

    /// Structural routing hint (default: nothing to exploit).
    ///
    /// # Contract
    ///
    /// The hint describes the *physical* graph returned by
    /// [`Topology::graph`] and must stay consistent with it: a
    /// [`RoutingHint::PolarFly`] answer promises that
    /// `polarfly::routing::next_hop_minimal` computes minimal next hops
    /// on exactly that graph. The fault wrapper ([`crate::TransientTopo`])
    /// forwards the inner hint unchanged — the algebraic structure
    /// survives failures, and consumers layer their own failure masks on
    /// top (the simulator's `MinHop::Algebraic` validates each algebraic
    /// hop against its per-port liveness mask before using it, healthy
    /// or not).
    ///
    /// ```
    /// use pf_graph::{FailureSet, FaultSchedule};
    /// use pf_topo::{PolarFlyTopo, RoutingHint, Topology, TransientTopo};
    ///
    /// let pf = PolarFlyTopo::new(7, 4).unwrap();
    /// assert!(matches!(pf.routing_hint(), RoutingHint::PolarFly(_)));
    ///
    /// // Masking links must not erase the structural hint.
    /// let failures = FailureSet::sample_connected(pf.graph(), 0.05, 1);
    /// let degraded = TransientTopo::new(&pf, FaultSchedule::from_failures(&failures));
    /// assert!(matches!(degraded.routing_hint(), RoutingHint::PolarFly(_)));
    /// ```
    fn routing_hint(&self) -> RoutingHint<'_> {
        RoutingHint::Generic
    }

    /// Fault schedule (default: none — a healthy network).
    /// [`crate::TransientTopo`] overrides this; the simulator masks the
    /// schedule's cycle-0 state (`active_at(graph, 0)`) in its route
    /// tables and per-port link masks, and builds its fault event queue
    /// from whatever fires later.
    ///
    /// # Contract
    ///
    /// Every scheduled link must be an edge of [`Topology::graph`]: the
    /// graph itself is *not* shrunk — failed links keep their ports and
    /// buffers. An empty schedule must behave exactly like `None`.
    ///
    /// ```
    /// use pf_graph::{FailureSet, FaultSchedule};
    /// use pf_topo::{PolarFlyTopo, Topology, TransientTopo};
    ///
    /// let pf = PolarFlyTopo::new(7, 4).unwrap();
    /// assert!(pf.fault_schedule().is_none()); // healthy by default
    ///
    /// // A static failure set: down from cycle 0, never repaired.
    /// let failures = FailureSet::sample_connected(pf.graph(), 0.05, 42);
    /// let degraded = TransientTopo::new(&pf, FaultSchedule::from_failures(&failures));
    /// let schedule = degraded.fault_schedule().unwrap();
    /// assert_eq!(schedule.active_at(pf.graph(), 0), failures);
    /// assert!(schedule.is_static(pf.graph()));
    /// // The physical graph is unchanged; only routing masks the links.
    /// assert_eq!(degraded.graph().edge_count(), pf.graph().edge_count());
    ///
    /// // A blip: healthy at cycle 0, down for [100, 400).
    /// let (u, v) = pf.graph().edges()[0];
    /// let transient = TransientTopo::new(&pf, FaultSchedule::new().link_fault(u, v, 100, 400));
    /// let schedule = transient.fault_schedule().unwrap();
    /// assert!(schedule.active_at(pf.graph(), 0).is_empty());
    /// assert!(!schedule.is_static(pf.graph()));
    /// ```
    fn fault_schedule(&self) -> Option<&FaultSchedule> {
        None
    }
}

/// PolarFly wrapped as a simulator [`Topology`] with `p` endpoints per
/// router (the paper's co-packaged setting; Table V uses `p = 16` at
/// `q = 31` for the 1:2 endpoint:radix balance).
pub struct PolarFlyTopo {
    pf: PolarFly,
    p: usize,
}

impl PolarFlyTopo {
    /// Builds `ER_q` with `p` endpoints on every router.
    pub fn new(q: u64, p: usize) -> Result<Self, pf_galois::GfError> {
        Ok(PolarFlyTopo {
            pf: PolarFly::new(q)?,
            p,
        })
    }

    /// Balanced variant: `p = (q+1)/2` (endpoint:radix = 1:2), as used in
    /// the Fig. 10 size sweep.
    pub fn balanced(q: u64) -> Result<Self, pf_galois::GfError> {
        let p = q.div_ceil(2) as usize;
        PolarFlyTopo::new(q, p)
    }

    /// The underlying PolarFly instance.
    pub fn inner(&self) -> &PolarFly {
        &self.pf
    }
}

impl Topology for PolarFlyTopo {
    fn name(&self) -> String {
        format!("PF(q={},p={})", self.pf.q(), self.p)
    }

    fn graph(&self) -> &Csr {
        self.pf.graph()
    }

    fn endpoints(&self, _r: u32) -> usize {
        self.p
    }

    fn routing_hint(&self) -> RoutingHint<'_> {
        RoutingHint::PolarFly(&self.pf)
    }
}

/// A pre-built graph exposed as a uniform-endpoint [`Topology`] — used for
/// expanded PolarFly instances (Fig. 11) and ad-hoc graphs.
pub struct GraphTopo {
    name: String,
    graph: Csr,
    p: usize,
}

impl GraphTopo {
    /// Wraps an arbitrary router graph with `p` endpoints per router.
    pub fn new(name: impl Into<String>, graph: Csr, p: usize) -> Self {
        GraphTopo {
            name: name.into(),
            graph,
            p,
        }
    }
}

impl Topology for GraphTopo {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn graph(&self) -> &Csr {
        &self.graph
    }

    fn endpoints(&self, _r: u32) -> usize {
        self.p
    }
}

/// Qualitative support level in the Table I feasibility matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// The criterion is fully satisfied.
    Full,
    /// The criterion is partially satisfied.
    Partial,
    /// The criterion is not satisfied.
    None,
}

/// One Table I row.
#[derive(Debug, Clone)]
pub struct FeasibilityRow {
    /// Topology name.
    pub topology: &'static str,
    /// Direct network (no dedicated switch chips).
    pub direct: Support,
    /// Decomposes into rack/pod-sized modules.
    pub modular: Support,
    /// Grows incrementally without rewiring.
    pub expandable: Support,
    /// Many feasible radix configurations.
    pub flexible: Support,
    /// Diameter-2 connectivity.
    pub diameter2: Support,
}

/// The Table I feasibility matrix, as assessed in §III of the paper.
pub fn feasibility_table() -> Vec<FeasibilityRow> {
    use Support::{Full, None as No, Partial};
    let row = |topology, direct, modular, expandable, flexible, diameter2| FeasibilityRow {
        topology,
        direct,
        modular,
        expandable,
        flexible,
        diameter2,
    };
    vec![
        row("Fat tree", No, Full, Full, Full, No),
        row("Dragonfly", Partial, Full, Full, Partial, No),
        row("HyperX", Partial, Full, Full, Partial, Full),
        row("OFT", No, Partial, No, Full, Full),
        row("MLFM", No, Full, No, Partial, Full),
        row("Slim Fly", Full, Full, Partial, Partial, Full),
        row("PolarFly", Full, Full, Partial, Full, Full),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarfly_topo_basics() {
        let t = PolarFlyTopo::new(7, 4).unwrap();
        assert_eq!(t.router_count(), 57);
        assert_eq!(t.total_endpoints(), 57 * 4);
        assert_eq!(t.host_routers().len(), 57);
        assert!(t.is_direct());
        assert_eq!(t.name(), "PF(q=7,p=4)");
    }

    #[test]
    fn balanced_ratio() {
        let t = PolarFlyTopo::balanced(31).unwrap();
        assert_eq!(t.endpoints(0), 16); // Table V: q=31, p=16
    }

    #[test]
    fn table_i_polarfly_satisfies_most_criteria() {
        let table = feasibility_table();
        let pf = table.iter().find(|r| r.topology == "PolarFly").unwrap();
        assert_eq!(pf.direct, Support::Full);
        assert_eq!(pf.flexible, Support::Full);
        assert_eq!(pf.diameter2, Support::Full);
        // Only PolarFly has ≥ partial support on every criterion with full
        // support on at least four.
        for r in &table {
            let full = [r.direct, r.modular, r.expandable, r.flexible, r.diameter2]
                .iter()
                .filter(|&&s| s == Support::Full)
                .count();
            if r.topology != "PolarFly" {
                assert!(full <= 4);
            } else {
                assert!(full >= 4);
            }
        }
    }
}
