//! The one fault model: [`Topology::with_faults`] returns the same
//! network under a [`FaultSchedule`] of half-open `[fail, repair)`
//! windows on links. A static failure set (the §IX-B scenario) is the
//! schedule whose windows open at cycle 0 and never repair
//! ([`FaultSchedule::from_failures`]); mid-run faults are windows that
//! open or close later. The *physical* graph is unchanged — dead links
//! keep their ports, buffers and credits. The simulator masks the
//! schedule's cycle-0 state in the route tables it starts from and
//! builds its fault event queue (mask flips at the scheduled cycles,
//! in-flight-flit policy, staged table re-convergence) from whatever
//! fires later.
//!
//! `with_faults` validates what the cycle simulator requires
//! ([`FaultSchedule::validate`]): every scheduled link must be an edge,
//! and at *every* fault state the graph restricted to live links must
//! stay connected — otherwise some router pair would be unroutable for
//! part of the run and packets could never drain. Draw engine-safe
//! failures with [`pf_graph::FailureSet::sample_connected`] and
//! [`FaultSchedule::sample_connected_links`].

use crate::Topology;
use pf_graph::{FaultSchedule, ScheduleError};

impl Topology {
    /// This network under `schedule`, named `{name}!f{ratio}%` — the
    /// percentage of links down — when the fault state never changes
    /// after cycle 0, `{name}~transient×{windows}` otherwise.
    ///
    /// # Errors
    /// A [`TopoError`] when a scheduled link is not an edge or a fault
    /// state disconnects the network ([`FaultSchedule::validate`]).
    ///
    /// # Panics
    /// If `self` already carries faults: build one schedule instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use pf_graph::{FailureSet, FaultSchedule};
    /// use pf_topo::PolarFlyTopo;
    ///
    /// let pf = PolarFlyTopo::new(7, 4).unwrap();
    ///
    /// // A static failure set: down from cycle 0, never repaired, named
    /// // by its failure ratio (11 of 224 links).
    /// let failures = FailureSet::sample_connected(pf.graph(), 0.05, 9);
    /// let degraded = pf.with_faults(FaultSchedule::from_failures(&failures)).unwrap();
    /// assert_eq!(degraded.name(), "PF(q=7,p=4)!f4.9%");
    ///
    /// // A blip: healthy at cycle 0, down for [100, 400).
    /// let (u, v) = pf.graph().edges().next().unwrap();
    /// let blip = FaultSchedule::new().link_fault(u, v, 100, 400);
    /// let transient = pf.with_faults(blip).unwrap();
    /// assert_eq!(transient.name(), "PF(q=7,p=4)~transient×1");
    ///
    /// // A schedule that cuts router 0 off is refused.
    /// let mut cut = FaultSchedule::new();
    /// for &w in pf.graph().neighbors(0) {
    ///     cut = cut.link_fault(0, w, 50, 150);
    /// }
    /// assert!(pf.with_faults(cut).is_err());
    /// ```
    pub fn with_faults(&self, schedule: FaultSchedule) -> Result<Topology, TopoError> {
        assert!(
            self.faults().is_empty(),
            "{} already carries a fault schedule",
            self.name()
        );
        let g = self.graph();
        schedule.validate(g).map_err(|cause| TopoError {
            network: self.name().to_owned(),
            cause,
        })?;
        let name = if schedule.is_static(g) {
            let ratio = schedule.active_at(g, 0).ratio(g);
            format!("{}!f{:.1}%", self.name(), 100.0 * ratio)
        } else {
            format!("{}~transient×{}", self.name(), schedule.len())
        };
        Ok(self.faulted(name, schedule))
    }
}

/// A fault schedule [`Topology::with_faults`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoError {
    /// The network the schedule was meant for.
    pub network: String,
    /// What is wrong with the schedule.
    pub cause: ScheduleError,
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.network, self.cause)
    }
}

impl std::error::Error for TopoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolarFlyTopo;
    use pf_graph::FailureSet;

    #[test]
    fn transient_preserves_structure_and_advertises_schedule() {
        let pf = PolarFlyTopo::new(7, 4).unwrap();
        let s = FaultSchedule::sample_connected_links(pf.graph(), 0.08, 300, 200, 5);
        assert!(!s.is_empty());
        let t = pf.with_faults(s.clone()).unwrap();
        assert_eq!(t.router_count(), 57);
        assert_eq!(t.total_endpoints(), 57 * 4);
        assert_eq!(t.graph().edge_count(), pf.graph().edge_count());
        assert!(t.polarfly().is_some());
        assert_eq!(t.faults(), &s);
        assert!(t.name().contains("PF(q=7,p=4)~transient"));
    }

    /// A static failure set — windows open at cycle 0, never repaired —
    /// keeps the physical graph and the algebra, and is named by its
    /// failure ratio.
    #[test]
    fn degraded_preserves_structure_and_hint() {
        let pf = PolarFlyTopo::new(7, 4).unwrap();
        let g = pf.graph();
        let f = FailureSet::sample_connected(g, 0.1, 9);
        assert!(!f.is_empty());
        let d = pf.with_faults(FaultSchedule::from_failures(&f)).unwrap();
        assert_eq!(d.router_count(), 57);
        assert_eq!(d.total_endpoints(), 57 * 4);
        assert_eq!(d.graph().edge_count(), g.edge_count());
        assert_eq!(f.residual(g).edge_count(), g.edge_count() - f.len());
        assert!(d.name().starts_with("PF(q=7,p=4)!f"), "{}", d.name());
        assert!(d.polarfly().is_some());
        assert!(d.faults().is_static(g));
        assert_eq!(d.faults().active_at(g, 0), f);
        assert_eq!(d.faults().horizon(), FaultSchedule::NEVER);
    }

    #[test]
    fn initial_state_matches_cycle_zero() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        let g = pf.graph();
        let (u, v) = g.edges().nth(3).unwrap();
        // One link already down at cycle 0, another failing later.
        let (a, b) = g.edges().nth(10).unwrap();
        let s = FaultSchedule::new()
            .link_fault(u, v, 0, 500)
            .link_fault(a, b, 200, 400);
        let t = pf.with_faults(s).unwrap();
        let init = t.faults().active_at(g, 0);
        assert_eq!(init.len(), 1);
        assert!(init.contains(u, v));
        assert!(!init.contains(a, b));
        // A schedule that starts healthy has no initial failures.
        let s2 = FaultSchedule::new().link_fault(u, v, 100, 200);
        let t2 = pf.with_faults(s2).unwrap();
        assert!(t2.faults().active_at(g, 0).is_empty());
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
        let mut healthy = g.edges().filter(|&(u, v)| !static_failures.contains(u, v));
        let ((u, v), (a, b)) = (healthy.next().unwrap(), healthy.next().unwrap());
        let s = FaultSchedule::from_failures(&static_failures)
            .link_fault(u, v, 0, 100)
            .link_fault(a, b, 200, 400);
        let t = pf.with_faults(s).unwrap();
        assert!(t.name().contains("~transient×"), "{}", t.name());
        // Cycle-0 state = static failures ∪ scheduled cycle-0 faults.
        let init = t.faults().active_at(g, 0);
        assert_eq!(init.len(), static_failures.len() + 1);
        assert!(init.contains(u, v) && !init.contains(a, b));
        for &(x, y) in static_failures.edges() {
            assert!(init.contains(x, y), "static failure {x}-{y} dropped");
        }
        assert_eq!(
            t.faults().active_at(g, 300).len(),
            static_failures.len() + 1
        );
        assert_eq!(t.faults().active_at(g, 400), static_failures);
    }

    #[test]
    fn rejects_nonexistent_links() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        let g = pf.graph();
        let v = (1..g.vertex_count() as u32)
            .find(|&v| !g.has_edge(0, v))
            .unwrap();
        let err = pf
            .with_faults(FaultSchedule::from_failures(&FailureSet::from_edges(&[(
                0, v,
            )])))
            .err()
            .unwrap();
        assert_eq!(err.cause, ScheduleError::NotAnEdge(0, v));
        assert!(err.to_string().contains("not an edge"), "{err}");
    }

    #[test]
    fn rejects_schedules_that_disconnect() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        // Cut vertex 0 off entirely for [50, 150).
        let mut s = FaultSchedule::new();
        for &w in pf.graph().neighbors(0) {
            s = s.link_fault(0, w, 50, 150);
        }
        let err = pf.with_faults(s).err().unwrap();
        let k = pf.graph().degree(0);
        assert_eq!(
            err.cause,
            ScheduleError::Disconnects {
                cycle: 50,
                links_down: k
            }
        );
        let text = format!(
            "PF(q=5,p=2): fault state at cycle 50 disconnects the network ({k} links down)"
        );
        assert!(err.to_string().starts_with(&text), "{err}");
    }

    #[test]
    fn rejects_disconnecting_failures() {
        let pf = PolarFlyTopo::new(5, 2).unwrap();
        // Cut vertex 0 off entirely, for good.
        let cut: Vec<(u32, u32)> = pf.graph().neighbors(0).iter().map(|&v| (0, v)).collect();
        let err = pf
            .with_faults(FaultSchedule::from_failures(&FailureSet::from_edges(&cut)))
            .err()
            .unwrap();
        assert!(
            matches!(err.cause, ScheduleError::Disconnects { cycle: 0, .. }),
            "{err}"
        );
    }
}
