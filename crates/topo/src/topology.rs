//! The [`Topology`] value consumed by the simulator and the structural
//! analyses, and its two generic constructors ([`PolarFlyTopo`],
//! [`GraphTopo`]). The fault model, [`Topology::with_faults`], is in
//! [`crate::transient`].

use pf_graph::{Csr, FaultSchedule};
use polarfly::PolarFly;

/// Where a network's router graph lives: PolarFly owns its `ER_q`
/// graph, so a PolarFly network keeps no second copy.
#[derive(Clone)]
enum Graph {
    Plain(Csr),
    PolarFly(PolarFly),
}

/// A network as the simulator sees it: a router graph, the compute
/// endpoints attached to each router (zero for pure switches, e.g.
/// non-edge fat-tree levels), PolarFly's algebra when the graph is
/// `ER_q`, and a fault schedule — empty for a healthy network.
///
/// Every topology module is a constructor returning one; the fault
/// model is [`Topology::with_faults`].
///
/// # Examples
///
/// ```
/// use pf_topo::{FatTree, PolarFlyTopo};
///
/// let pf = PolarFlyTopo::new(7, 4).unwrap();
/// assert_eq!(pf.name(), "PF(q=7,p=4)");
/// assert_eq!(pf.total_endpoints(), 57 * 4);
/// assert!(pf.polarfly().is_some()); // the ER_q algebra
/// assert!(pf.faults().is_empty()); // an empty schedule: healthy
///
/// // The one indirect network: hosts on edge switches only.
/// let ft = FatTree::new(4);
/// assert!(!ft.is_direct() && ft.polarfly().is_none());
/// assert_eq!(ft.host_routers(), (0..16).collect::<Vec<u32>>());
/// ```
#[derive(Clone)]
pub struct Topology {
    name: String,
    graph: Graph,
    endpoints: Vec<u32>,
    direct: bool,
    faults: FaultSchedule,
}

impl Topology {
    /// A healthy network over `graph` with `endpoints[r]` endpoints on
    /// router `r`.
    pub(crate) fn new(name: String, graph: Csr, endpoints: Vec<u32>, direct: bool) -> Topology {
        Topology::build(name, Graph::Plain(graph), endpoints, direct)
    }

    /// A healthy direct network with `p` endpoints on every router.
    pub(crate) fn uniform(name: String, graph: Csr, p: usize) -> Topology {
        let endpoints = vec![p as u32; graph.vertex_count()];
        Topology::new(name, graph, endpoints, true)
    }

    fn build(name: String, graph: Graph, endpoints: Vec<u32>, direct: bool) -> Topology {
        Topology {
            name,
            graph,
            endpoints,
            direct,
            faults: FaultSchedule::new(),
        }
    }

    /// Human-readable instance name (e.g. `"PF(q=31,p=16)"`); a faulted
    /// network appends its schedule ([`Topology::with_faults`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The router-to-router link graph — the *physical* graph: links
    /// scheduled to fail keep their ports and buffers throughout.
    pub fn graph(&self) -> &Csr {
        match &self.graph {
            Graph::Plain(g) => g,
            Graph::PolarFly(pf) => pf.graph(),
        }
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Endpoints (injection/ejection channels) attached to each router,
    /// by router id.
    pub fn endpoints(&self) -> &[u32] {
        &self.endpoints
    }

    /// Total endpoint count.
    pub fn total_endpoints(&self) -> usize {
        self.endpoints.iter().map(|&p| p as usize).sum()
    }

    /// Routers that have at least one endpoint ("hosts" for traffic
    /// patterns), ascending.
    pub fn host_routers(&self) -> Vec<u32> {
        (0..self.router_count() as u32)
            .filter(|&r| self.endpoints[r as usize] > 0)
            .collect()
    }

    /// Whether the topology is direct (every router is also a compute
    /// node). Direct networks need only one co-packaged chip type (§III).
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// The `ER_q` algebra when the graph is PolarFly's, healthy or not:
    /// `polarfly::routing::next_hop_minimal` computes minimal next hops
    /// on exactly [`Topology::graph`], ignoring any fault schedule. The
    /// simulator routes by its tables; the algebra serves the structural
    /// experiments (quadrics, expansion) and the tests that check the
    /// tables' hops against it.
    ///
    /// ```
    /// use pf_graph::{FailureSet, FaultSchedule};
    /// use pf_topo::{GraphTopo, PolarFlyTopo};
    ///
    /// let pf = PolarFlyTopo::new(7, 4).unwrap();
    /// assert!(pf.polarfly().is_some());
    ///
    /// // Masking links must not erase the algebra.
    /// let failures = FailureSet::sample_connected(pf.graph(), 0.05, 1);
    /// let degraded = pf.with_faults(FaultSchedule::from_failures(&failures)).unwrap();
    /// assert!(degraded.polarfly().is_some());
    ///
    /// // The same graph wrapped as a plain graph carries no algebra.
    /// let plain = GraphTopo::new("ER_7", pf.graph().clone(), 4);
    /// assert!(plain.polarfly().is_none());
    /// ```
    pub fn polarfly(&self) -> Option<&PolarFly> {
        match &self.graph {
            Graph::Plain(_) => None,
            Graph::PolarFly(pf) => Some(pf),
        }
    }

    /// [`Topology::polarfly`], unwrapped: panics on any other network —
    /// kept only until the benchmark package drops the call (ROADMAP
    /// item 3).
    #[doc(hidden)]
    pub fn inner(&self) -> &PolarFly {
        self.polarfly().expect("not a PolarFly network")
    }

    /// The fault schedule; empty for a healthy network. The simulator
    /// masks its cycle-0 state (`active_at(graph, 0)`) in its route
    /// tables and per-port link masks, and builds its fault event queue
    /// from whatever fires later.
    ///
    /// Every scheduled link is an edge of [`Topology::graph`]: the graph
    /// itself is *not* shrunk — failed links keep their ports and
    /// buffers.
    ///
    /// ```
    /// use pf_graph::{FailureSet, FaultSchedule};
    /// use pf_topo::PolarFlyTopo;
    ///
    /// let pf = PolarFlyTopo::new(7, 4).unwrap();
    /// assert!(pf.faults().is_empty()); // healthy by default
    ///
    /// // A static failure set: down from cycle 0, never repaired.
    /// let failures = FailureSet::sample_connected(pf.graph(), 0.05, 42);
    /// let degraded = pf.with_faults(FaultSchedule::from_failures(&failures)).unwrap();
    /// assert_eq!(degraded.faults().active_at(pf.graph(), 0), failures);
    /// assert!(degraded.faults().is_static(pf.graph()));
    /// // The physical graph is unchanged; only routing masks the links.
    /// assert_eq!(degraded.graph().edge_count(), pf.graph().edge_count());
    ///
    /// // A blip: healthy at cycle 0, down for [100, 400).
    /// let (u, v) = pf.graph().edges().next().unwrap();
    /// let transient = pf.with_faults(FaultSchedule::new().link_fault(u, v, 100, 400)).unwrap();
    /// assert!(transient.faults().active_at(pf.graph(), 0).is_empty());
    /// assert!(!transient.faults().is_static(pf.graph()));
    /// ```
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// This network, renamed, under `faults` (see
    /// [`Topology::with_faults`]).
    pub(crate) fn faulted(&self, name: String, faults: FaultSchedule) -> Topology {
        Topology {
            name,
            faults,
            ..self.clone()
        }
    }
}

/// PolarFly with `p` endpoints per router (the paper's co-packaged
/// setting; Table V uses `p = 16` at `q = 31` for the 1:2
/// endpoint:radix balance).
pub enum PolarFlyTopo {}

impl PolarFlyTopo {
    /// Builds `ER_q` with `p` endpoints on every router.
    pub fn new(q: u64, p: usize) -> Result<Topology, pf_galois::GfError> {
        let pf = PolarFly::new(q)?;
        let endpoints = vec![p as u32; pf.router_count()];
        let name = format!("PF(q={},p={p})", pf.q());
        Ok(Topology::build(name, Graph::PolarFly(pf), endpoints, true))
    }

    /// Balanced variant: `p = (q+1)/2` (endpoint:radix = 1:2), as used in
    /// the Fig. 10 size sweep.
    pub fn balanced(q: u64) -> Result<Topology, pf_galois::GfError> {
        PolarFlyTopo::new(q, q.div_ceil(2) as usize)
    }
}

/// A pre-built graph with `p` endpoints per router — used for expanded
/// PolarFly instances (Fig. 11) and ad-hoc graphs.
pub enum GraphTopo {}

impl GraphTopo {
    /// Wraps an arbitrary router graph with `p` endpoints per router.
    pub fn new(name: impl Into<String>, graph: Csr, p: usize) -> Topology {
        Topology::uniform(name.into(), graph, p)
    }
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
        assert!(t.faults().is_empty());
    }

    #[test]
    fn balanced_ratio() {
        let t = PolarFlyTopo::balanced(31).unwrap();
        assert_eq!(t.endpoints()[0], 16); // Table V: q=31, p=16
    }
}
