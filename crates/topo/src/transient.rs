//! Faulty topologies: a [`Topology`] wrapper whose failed-link set is a
//! [`FaultSchedule`] of half-open `[fail, repair)` windows on links and
//! routers.
//!
//! [`TransientTopo`] is the one fault model. A static failure set (the
//! §IX-B scenario) is the schedule whose link windows open at cycle 0
//! and never repair ([`FaultSchedule::from_failures`]); mid-run faults
//! are windows that open or close later. The *physical* graph is
//! unchanged — dead links keep their ports, buffers, and credits — and
//! the wrapper advertises the schedule through
//! [`Topology::fault_schedule`]. The simulator masks its cycle-0 state
//! in the route tables it starts from and builds its fault event queue
//! (mask flips at the scheduled cycles, in-flight-flit policy, staged
//! table re-convergence) from whatever fires later.
//!
//! Construction validates what the cycle simulator requires: every
//! scheduled link must be an edge, and at *every* fault state the graph
//! restricted to live routers and live links must stay connected —
//! otherwise some router pair would be unroutable for part of the run
//! and packets could never drain. Draw engine-safe failures with
//! [`pf_graph::FailureSet::sample_connected`] and
//! [`FaultSchedule::sample_connected_links`].

use crate::traits::{RoutingHint, Topology};
use pf_graph::{Csr, FaultEventKind, FaultSchedule};

/// A topology with a schedule of link and router faults.
///
/// # Examples
///
/// ```
/// use pf_graph::{FailureSet, FaultSchedule};
/// use pf_topo::{PolarFlyTopo, Topology, TransientTopo};
///
/// let pf = PolarFlyTopo::new(7, 4).unwrap();
/// let schedule =
///     FaultSchedule::sample_connected_links(pf.graph(), 0.05, 200, 150, 9);
/// let transient = TransientTopo::new(&pf, schedule);
/// assert_eq!(transient.router_count(), pf.router_count());
/// assert!(transient.fault_schedule().is_some());
/// assert!(transient.name().contains("~transient"));
///
/// // A static failure set is named by its failure ratio: 11 of 224 links.
/// let failures = FailureSet::sample_connected(pf.graph(), 0.05, 9);
/// let degraded = TransientTopo::new(&pf, FaultSchedule::from_failures(&failures));
/// assert_eq!(degraded.name(), "PF(q=7,p=4)!f4.9%");
/// ```
pub struct TransientTopo<'a> {
    inner: &'a dyn Topology,
    schedule: FaultSchedule,
}

impl<'a> TransientTopo<'a> {
    /// Wraps `inner` with a fault schedule. Panics if a scheduled link is
    /// not an edge of the topology, a scheduled router is out of range,
    /// or any fault state disconnects the live part of the network (live
    /// routers under surviving links) — sample with
    /// [`pf_graph::FailureSet::sample_connected`] or
    /// [`FaultSchedule::sample_connected_links`] to avoid the latter.
    pub fn new(inner: &'a dyn Topology, schedule: FaultSchedule) -> TransientTopo<'a> {
        let events = schedule.resolved_events(inner.graph()); // validates links/routers
        assert_states_connected(inner.graph(), &events, &inner.name());
        TransientTopo { inner, schedule }
    }

    /// The wrapped (fault-free) topology.
    pub fn inner(&self) -> &dyn Topology {
        self.inner
    }

    /// The fault schedule driving this topology.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl Topology for TransientTopo<'_> {
    /// `{inner}!f{ratio}%` — the percentage of links down — when the
    /// fault state never changes after cycle 0,
    /// `{inner}~transient×{windows}` otherwise.
    fn name(&self) -> String {
        let g = self.inner.graph();
        if self.schedule.is_static(g) {
            let ratio = self.schedule.active_at(g, 0).ratio(g);
            format!("{}!f{:.1}%", self.inner.name(), 100.0 * ratio)
        } else {
            format!("{}~transient×{}", self.inner.name(), self.schedule.len())
        }
    }

    /// The *physical* graph: links scheduled to fail keep their ports and
    /// buffers throughout (masked at routing while down).
    fn graph(&self) -> &Csr {
        self.inner.graph()
    }

    fn endpoints(&self, r: u32) -> usize {
        self.inner.endpoints(r)
    }

    fn is_direct(&self) -> bool {
        self.inner.is_direct()
    }

    /// Forwarded unchanged: the structural hint survives faults; the
    /// simulator validates algebraic hops against its live per-port
    /// masks.
    fn routing_hint(&self) -> RoutingHint<'_> {
        self.inner.routing_hint()
    }

    fn fault_schedule(&self) -> Option<&FaultSchedule> {
        Some(&self.schedule)
    }
}

/// Replays the resolved event stream and asserts that every fault state
/// keeps the live-router subgraph (under live links) connected.
fn assert_states_connected(g: &Csr, events: &[pf_graph::FaultEvent], name: &str) {
    use std::collections::BTreeSet;
    let mut down_links: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut down_routers: BTreeSet<u32> = BTreeSet::new();
    let mut i = 0;
    while i < events.len() {
        let cycle = events[i].cycle;
        while i < events.len() && events[i].cycle == cycle {
            match events[i].kind {
                FaultEventKind::LinkDown(u, v) => {
                    down_links.insert((u, v));
                }
                FaultEventKind::LinkUp(u, v) => {
                    down_links.remove(&(u, v));
                }
                FaultEventKind::RouterDown(r) => {
                    down_routers.insert(r);
                }
                FaultEventKind::RouterUp(r) => {
                    down_routers.remove(&r);
                }
            }
            i += 1;
        }
        assert!(
            live_subgraph_connected(g, &down_links, &down_routers),
            "{name}: fault state at cycle {cycle} disconnects the live \
             network ({} links, {} routers down); sample with \
             FaultSchedule::sample_connected_links",
            down_links.len(),
            down_routers.len()
        );
    }
}

/// Union-find connectivity of `g` restricted to live routers and links.
fn live_subgraph_connected(
    g: &Csr,
    down_links: &std::collections::BTreeSet<(u32, u32)>,
    down_routers: &std::collections::BTreeSet<u32>,
) -> bool {
    let n = g.vertex_count();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for &(u, v) in g.edges() {
        if down_links.contains(&(u, v)) || down_routers.contains(&u) || down_routers.contains(&v) {
            continue;
        }
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
        }
    }
    let mut live_root = None;
    for v in 0..n as u32 {
        if down_routers.contains(&v) {
            continue;
        }
        let r = find(&mut parent, v);
        match live_root {
            None => live_root = Some(r),
            Some(lr) if lr != r => return false,
            _ => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PolarFlyTopo;
    use pf_graph::FailureSet;

    #[test]
    fn transient_preserves_structure_and_advertises_schedule() {
        let pf = PolarFlyTopo::new(7, 4).unwrap();
        let s = FaultSchedule::sample_connected_links(pf.graph(), 0.08, 300, 200, 5);
        assert!(!s.is_empty());
        let t = TransientTopo::new(&pf, s.clone());
        assert_eq!(t.router_count(), 57);
        assert_eq!(t.total_endpoints(), 57 * 4);
        assert_eq!(t.graph().edge_count(), pf.graph().edge_count());
        assert!(matches!(t.routing_hint(), RoutingHint::PolarFly(_)));
        assert_eq!(t.fault_schedule().unwrap(), &s);
        assert!(t.name().contains("PF(q=7,p=4)~transient"));
        // Healthy topologies advertise no schedule.
        assert!(pf.fault_schedule().is_none());
    }

    /// A static failure set — windows open at cycle 0, never repaired —
    /// keeps the physical graph and the algebraic hint, and is named by
    /// its failure ratio.
    #[test]
    fn degraded_preserves_structure_and_hint() {
        let pf = PolarFlyTopo::new(7, 4).unwrap();
        let g = pf.graph();
        let f = FailureSet::sample_connected(g, 0.1, 9);
        assert!(!f.is_empty());
        let d = TransientTopo::new(&pf, FaultSchedule::from_failures(&f));
        assert_eq!(d.router_count(), 57);
        assert_eq!(d.total_endpoints(), 57 * 4);
        assert_eq!(d.graph().edge_count(), g.edge_count());
        assert_eq!(f.residual(g).edge_count(), g.edge_count() - f.len());
        assert!(d.name().starts_with("PF(q=7,p=4)!f"), "{}", d.name());
        assert!(matches!(d.routing_hint(), RoutingHint::PolarFly(_)));
        assert!(d.schedule().is_static(g));
        assert_eq!(d.schedule().active_at(g, 0), f);
        assert_eq!(d.schedule().horizon(), FaultSchedule::NEVER);
    }

    #[test]
    fn initial_state_matches_cycle_zero() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        let g = pf.graph();
        let (u, v) = g.edges()[3];
        // One link already down at cycle 0, another failing later.
        let (a, b) = g.edges()[10];
        let s = FaultSchedule::new()
            .link_fault(u, v, 0, 500)
            .link_fault(a, b, 200, 400);
        let t = TransientTopo::new(&pf, s);
        let init = t.schedule().active_at(g, 0);
        assert_eq!(init.len(), 1);
        assert!(init.contains(u, v));
        assert!(!init.contains(a, b));
        // A schedule that starts healthy has no initial failures.
        let s2 = FaultSchedule::new().link_fault(u, v, 100, 200);
        let t2 = TransientTopo::new(&pf, s2);
        assert!(t2.schedule().active_at(g, 0).is_empty());
    }

    /// Static failures and transient blips compose in one schedule: the
    /// cycle-0 state is their union, and the static links stay down after
    /// every blip has repaired.
    #[test]
    fn wrapping_a_degraded_topo_keeps_its_static_failures() {
        let pf = PolarFlyTopo::new(7, 4).unwrap();
        let g = pf.graph();
        let static_failures = FailureSet::sample_connected(g, 0.05, 8);
        assert!(!static_failures.is_empty());
        // Blips on links that are NOT statically failed.
        let mut healthy = g
            .edges()
            .iter()
            .filter(|&&(u, v)| !static_failures.contains(u, v));
        let (&(u, v), &(a, b)) = (healthy.next().unwrap(), healthy.next().unwrap());
        let s = FaultSchedule::from_failures(&static_failures)
            .link_fault(u, v, 0, 100)
            .link_fault(a, b, 200, 400);
        let t = TransientTopo::new(&pf, s);
        assert!(t.name().contains("~transient×"), "{}", t.name());
        // Cycle-0 state = static failures ∪ scheduled cycle-0 faults.
        let init = t.schedule().active_at(g, 0);
        assert_eq!(init.len(), static_failures.len() + 1);
        assert!(init.contains(u, v) && !init.contains(a, b));
        for &(x, y) in static_failures.edges() {
            assert!(init.contains(x, y), "static failure {x}-{y} dropped");
        }
        assert_eq!(
            t.schedule().active_at(g, 300).len(),
            static_failures.len() + 1
        );
        assert_eq!(t.schedule().active_at(g, 400), static_failures);
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn rejects_nonexistent_links() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        let g = pf.graph();
        let v = (1..g.vertex_count() as u32)
            .find(|&v| !g.has_edge(0, v))
            .unwrap();
        TransientTopo::new(
            &pf,
            FaultSchedule::from_failures(&FailureSet::from_edges(&[(0, v)])),
        );
    }

    #[test]
    #[should_panic(expected = "disconnects the live network")]
    fn rejects_schedules_that_disconnect() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        // Cut vertex 0 off entirely via link faults (no router-down, so
        // vertex 0 stays "live" but unreachable).
        let mut s = FaultSchedule::new();
        for &w in pf.graph().neighbors(0) {
            s = s.link_fault(0, w, 50, 150);
        }
        TransientTopo::new(&pf, s);
    }

    #[test]
    #[should_panic(expected = "disconnects the live network")]
    fn rejects_disconnecting_failures() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        // Cut vertex 0 off entirely, for good.
        let cut: Vec<(u32, u32)> = pf.graph().neighbors(0).iter().map(|&v| (0, v)).collect();
        TransientTopo::new(
            &pf,
            FaultSchedule::from_failures(&FailureSet::from_edges(&cut)),
        );
    }

    #[test]
    fn router_blip_is_accepted_when_survivors_stay_connected() {
        // ER_q minus one vertex stays connected: a router fault window is
        // a valid transient schedule even though it isolates the router's
        // own endpoint for the duration.
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        let s = FaultSchedule::new().router_fault(3, 100, 300);
        let t = TransientTopo::new(&pf, s);
        assert!(t.schedule().active_at(pf.graph(), 0).is_empty());
        assert_eq!(t.schedule().routers_down_at(150), vec![3]);
    }
}
