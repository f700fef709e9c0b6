//! Offered-load sweeps — the workhorses behind
//! the latency-vs-load figures (Figs. 8–11) and the resilience sweeps.
//! Tables and traffic patterns are resolved once per (topology, pattern)
//! and shared across the Rayon-parallel per-load runs. Topologies with
//! links down at cycle 0 ([`initial_failures`]) get tables routed on the
//! residual graph (indexed by the physical rows) and traffic resolved
//! on it, automatically.

use crate::engine::{simulate, SimConfig};
use crate::stats::SimResult;
use crate::tables::{initial_failures, RouteTables};
use crate::traffic::{resolve, TrafficPattern};
use crate::Routing;
use pf_topo::Topology;
use rayon::prelude::*;

/// Tables + destination map for one (topology, pattern, seed) triple.
/// The pattern is resolved on the graph the tables route on — the
/// residual graph when links are down at cycle 0
/// ([`RouteTables::build_for`]), so hop-exact permutation patterns
/// respect surviving distances too.
pub(crate) fn resolve_run(
    topo: &Topology,
    pattern: TrafficPattern,
    seed: u64,
) -> (RouteTables, crate::traffic::DestMap) {
    let tables = RouteTables::build_for(topo, seed);
    let residual = initial_failures(topo).residual(topo.graph());
    let dests = resolve(pattern, &residual, &topo.host_routers(), seed);
    (tables, dests)
}

/// One latency-vs-load curve.
#[derive(Debug, Clone)]
pub struct LoadCurve {
    /// Topology instance name.
    pub topology: String,
    /// Routing algorithm label.
    pub routing: &'static str,
    /// Traffic pattern label.
    pub pattern: &'static str,
    /// Results per offered-load point, ascending.
    pub points: Vec<SimResult>,
}

impl LoadCurve {
    /// The highest accepted load observed — the saturation throughput.
    pub fn saturation_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.accepted_load)
            .fold(0.0, f64::max)
    }

    /// Average latency at the lowest offered load (≈ zero-load latency).
    pub fn zero_load_latency(&self) -> f64 {
        self.points.first().map_or(0.0, |p| p.avg_latency)
    }
}

/// Runs a full latency-vs-load curve (Rayon-parallel across loads).
///
/// # Examples
///
/// ```
/// use pf_sim::{load_curve, Routing, SimConfig, TrafficPattern};
/// use pf_topo::PolarFlyTopo;
///
/// let topo = PolarFlyTopo::new(5, 2).unwrap();
/// let curve = load_curve(&topo, Routing::Min, TrafficPattern::Uniform,
///                        &[0.1, 0.3], &SimConfig::quick());
/// assert_eq!(curve.points.len(), 2);
/// assert!(curve.points[0].avg_latency > 0.0);
/// ```
pub fn load_curve(
    topo: &Topology,
    routing: Routing,
    pattern: TrafficPattern,
    loads: &[f64],
    cfg: &SimConfig,
) -> LoadCurve {
    let (tables, dests) = resolve_run(topo, pattern, cfg.seed);
    let points: Vec<SimResult> = loads
        .par_iter()
        .map(|&load| simulate(topo, &tables, &dests, routing, load, cfg.clone()))
        .collect();
    LoadCurve {
        topology: topo.name().to_owned(),
        routing: routing.label(),
        pattern: pattern.label(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_topo::PolarFlyTopo;

    #[test]
    fn curve_latency_monotone_under_uniform_min() {
        let topo = PolarFlyTopo::new(5, 2).unwrap();
        let cfg = SimConfig::quick();
        let curve = load_curve(
            &topo,
            Routing::Min,
            TrafficPattern::Uniform,
            &[0.1, 0.4, 0.7],
            &cfg,
        );
        assert_eq!(curve.points.len(), 3);
        assert!(curve.points[0].avg_latency <= curve.points[2].avg_latency);
        assert!(curve.zero_load_latency() > 0.0);
        assert!(curve.saturation_throughput() > 0.5);
    }
}
