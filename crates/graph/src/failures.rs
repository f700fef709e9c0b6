//! Random link-failure experiments (Fig. 14), the [`FailureSet`]
//! sampler behind live fault injection, and the [`FaultSchedule`] of
//! timestamped fail/repair windows behind every simulated fault.
//!
//! §IX-B of the paper: simulate random link failures until the network
//! disconnects; over 100 trials report the *median* disconnection ratio,
//! then plot diameter and average shortest path length versus failure
//! ratio for a median run. (Mean/σ are unusable because diameter becomes
//! infinite at disconnection — the paper makes the same observation.)
//!
//! [`FailureSet`] packages one seeded failure draw as a reusable value.
//!
//! Every random draw removes links in one seeded order, and asks of it
//! how far down links can fail before the survivors split. Deleting
//! links in order is inserting them in reverse, so one backward
//! union-find pass answers both forms of the question: the prefix at
//! which the network disconnects (Fig. 14, [`failure_trial`]) and the
//! spanning forest whose links a connected draw must keep
//! ([`FailureSet::sample_connected`]).
//!
//! [`FaultSchedule`] is the simulator's one fault model: each fault is a
//! half-open `[fail, repair)` window on a link — the failure unit of
//! §IX-B. A static failure set is the schedule whose windows open at
//! cycle 0 and never repair ([`FaultSchedule::from_failures`]). The
//! simulator (`pf_topo::Topology::with_faults` + the engine's fault event
//! queue), after [`FaultSchedule::validate`] has accepted the schedule,
//! masks the cycle-0 state in the route tables it reads every minimal hop
//! from (`pf_sim::RouteTables::port`) and in adaptive congestion
//! decisions, then flips its per-port masks at the scheduled cycles and
//! re-converges its route tables after each event.

use crate::bfs::DistanceHistogram;
use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A set of failed (removed) links, stored as the canonical (`u < v`)
/// sorted edge list — the live-fault-injection counterpart of
/// [`failure_trial`]'s static prefix removal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSet {
    removed: Vec<(u32, u32)>,
}

impl FailureSet {
    /// No failures (the healthy network).
    pub fn empty() -> FailureSet {
        FailureSet::default()
    }

    /// Builds from an explicit edge list (canonicalized, deduplicated).
    pub fn from_edges(edges: &[(u32, u32)]) -> FailureSet {
        let mut removed: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        removed.sort_unstable();
        removed.dedup();
        FailureSet { removed }
    }

    /// Samples `round(ratio · m)` failed links as a seeded shuffle prefix
    /// — the exact failure model of [`failure_trial`]. The residual graph
    /// may be disconnected at high ratios; use
    /// [`FailureSet::sample_connected`] when the consumer (e.g. the cycle
    /// simulator) requires every router pair to stay routable.
    pub fn sample(g: &Csr, ratio: f64, seed: u64) -> FailureSet {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "failure ratio must be in [0, 1]"
        );
        let mut order = shuffled_edges(g, seed);
        let k = ((ratio * order.len() as f64).round() as usize).min(order.len());
        order.truncate(k);
        FailureSet::from_edges(&order)
    }

    /// Samples like [`FailureSet::sample`] but keeps the residual graph
    /// connected: the failed links are the first `round(ratio · m)` links
    /// of the same seeded order that lie outside the spanning forest of
    /// the reversed order — the links that walking the order and skipping
    /// each link that is a bridge at its turn removes. On a connected `g`
    /// that is `min(round(ratio · m), m − n + 1)` links; on a
    /// disconnected `g` it is the empty set.
    pub fn sample_connected(g: &Csr, ratio: f64, seed: u64) -> FailureSet {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "failure ratio must be in [0, 1]"
        );
        let order = shuffled_edges(g, seed);
        let (prefix, forest) = reverse_pass(g, &order);
        if prefix == 0 {
            return FailureSet::empty(); // no draw keeps a split `g` connected
        }
        let target = ((ratio * order.len() as f64).round() as usize).min(order.len());
        let chosen: Vec<(u32, u32)> = order
            .iter()
            .zip(&forest)
            .filter(|&(_, &kept)| !kept)
            .map(|(&e, _)| e)
            .take(target)
            .collect();
        FailureSet::from_edges(&chosen)
    }

    /// Number of failed links.
    pub fn len(&self) -> usize {
        self.removed.len()
    }

    /// Whether no links failed.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
    }

    /// Whether `{u, v}` is failed (order-insensitive).
    pub fn contains(&self, u: u32, v: u32) -> bool {
        let e = if u < v { (u, v) } else { (v, u) };
        self.removed.binary_search(&e).is_ok()
    }

    /// The failed links in canonical order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.removed
    }

    /// Fraction of `g`'s links that are failed.
    pub fn ratio(&self, g: &Csr) -> f64 {
        if g.edge_count() == 0 {
            0.0
        } else {
            self.removed.len() as f64 / g.edge_count() as f64
        }
    }

    /// The residual graph: `g` minus the failed links (same vertex ids).
    pub fn residual(&self, g: &Csr) -> Csr {
        g.without_edges(&self.removed)
    }
}

/// What a [`FaultEvent`] does to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// Link `{u, v}` (canonical `u < v`) goes down.
    LinkDown(u32, u32),
    /// Link `{u, v}` comes back up.
    LinkUp(u32, u32),
}

/// One timestamped fault transition, as consumed by the simulator's
/// event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the transition takes effect.
    pub cycle: u32,
    /// The transition.
    pub kind: FaultEventKind,
}

/// Why a [`FaultSchedule`] cannot drive a simulation of a graph
/// ([`FaultSchedule::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A scheduled link `{u, v}` is not an edge of the graph.
    NotAnEdge(u32, u32),
    /// The fault state at `cycle` splits the routers: some pair of them
    /// has no path over live links, so packets between them could never
    /// drain.
    Disconnects {
        /// First cycle of the disconnecting state.
        cycle: u32,
        /// Links down in that state.
        links_down: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NotAnEdge(u, v) => write!(f, "scheduled link {u}-{v} is not an edge"),
            ScheduleError::Disconnects { cycle, links_down } => write!(
                f,
                "fault state at cycle {cycle} disconnects the network \
                 ({links_down} links down); sample with \
                 FaultSchedule::sample_connected_links"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A schedule of link faults: fail/repair windows per link. A window
/// repairing at [`FaultSchedule::NEVER`] is a permanent failure.
///
/// Every window is half-open: the link is down at cycle `fail` and up
/// again at cycle `repair`. Overlapping or *touching* windows on the same
/// link merge — a repair scheduled at the same cycle as the next failure
/// yields one continuous down interval, which fixes the semantics of a
/// simultaneous fail + repair: the link stays down, and the resolved
/// event stream contains no zero-length blip.
///
/// # Examples
///
/// ```
/// use pf_graph::{FaultSchedule, GraphBuilder};
///
/// let mut b = GraphBuilder::new(4);
/// for i in 0..4u32 {
///     b.add_edge(i, (i + 1) % 4);
/// }
/// let g = b.build();
///
/// // Link 0-1 down for [100, 300); touching windows merge.
/// let s = FaultSchedule::new()
///     .link_fault(1, 0, 100, 200)
///     .link_fault(0, 1, 200, 300);
/// assert!(s.active_at(&g, 100).contains(0, 1));
/// assert!(s.active_at(&g, 200).contains(0, 1)); // merged across the seam
/// assert!(!s.active_at(&g, 300).contains(0, 1)); // repair cycle is "up"
/// assert_eq!(s.resolved_events(&g).len(), 2); // one down + one up
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// `(u, v, fail, repair)` with canonical `u < v`.
    link_windows: Vec<(u32, u32, u32, u32)>,
}

impl FaultSchedule {
    /// The repair cycle of a fault that never repairs: a window
    /// `[fail, NEVER)` resolves to a down event and no up event.
    pub const NEVER: u32 = u32::MAX;

    /// An empty schedule (no faults: the healthy network).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// A static failure set as a schedule: every failed link is down
    /// from cycle 0 and never repairs.
    pub fn from_failures(failures: &FailureSet) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        for &(u, v) in failures.edges() {
            s = s.link_fault(u, v, 0, FaultSchedule::NEVER);
        }
        s
    }

    /// Whether the fault state never changes after cycle 0: every
    /// resolved event fires at cycle 0 (the empty schedule included).
    /// Panics like [`FaultSchedule::resolved_events`].
    pub fn is_static(&self, g: &Csr) -> bool {
        self.resolved_events(g).iter().all(|e| e.cycle == 0)
    }

    /// Adds a link fault window: `{u, v}` is down for `[fail, repair)`.
    /// Panics unless `fail < repair` — a repair scheduled at or before its
    /// failure is a schedule bug, not a zero-length outage.
    #[must_use]
    pub fn link_fault(mut self, u: u32, v: u32, fail: u32, repair: u32) -> FaultSchedule {
        assert!(
            fail < repair,
            "link {u}-{v}: repair cycle {repair} must come after fail cycle {fail}"
        );
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        self.link_windows.push((u, v, fail, repair));
        self
    }

    /// Whether the schedule contains no fault windows.
    pub fn is_empty(&self) -> bool {
        self.link_windows.is_empty()
    }

    /// Number of fault windows (before merging).
    pub fn len(&self) -> usize {
        self.link_windows.len()
    }

    /// First cycle at which every scheduled fault has been repaired
    /// ([`FaultSchedule::NEVER`] if some fault never repairs).
    pub fn horizon(&self) -> u32 {
        self.link_windows.iter().map(|w| w.3).max().unwrap_or(0)
    }

    /// Samples a *connectivity-safe* transient schedule: the failed links
    /// are a [`FailureSet::sample_connected`] draw, each assigned a fail
    /// cycle uniform in `[0, fail_window)` and a repair `repair_cycles`
    /// later. No drawn link lies on the order's spanning forest, so every
    /// fault state — each a subset of the draw — keeps that forest up and
    /// the routers of a connected `g` connected, which is what
    /// [`FaultSchedule::validate`] asks.
    pub fn sample_connected_links(
        g: &Csr,
        ratio: f64,
        fail_window: u32,
        repair_cycles: u32,
        seed: u64,
    ) -> FaultSchedule {
        assert!(fail_window > 0, "fail window must be positive");
        assert!(repair_cycles > 0, "repair time must be positive");
        let links = FailureSet::sample_connected(g, ratio, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_5EED_5EED);
        let mut s = FaultSchedule::new();
        for &(u, v) in links.edges() {
            let fail = rng.gen_range(0..fail_window);
            s = s.link_fault(u, v, fail, fail.saturating_add(repair_cycles));
        }
        s
    }

    /// The links down at `cycle` as a [`FailureSet`]: the links of the
    /// windows containing `cycle`. Panics if a scheduled link is not an
    /// edge of `g`.
    pub fn active_at(&self, g: &Csr, cycle: u32) -> FailureSet {
        let edges: Vec<(u32, u32)> = self
            .link_windows
            .iter()
            .filter(|&&(_, _, fail, repair)| fail <= cycle && cycle < repair)
            .map(|&(u, v, _, _)| {
                assert!(g.has_edge(u, v), "scheduled link {u}-{v} is not an edge");
                (u, v)
            })
            .collect();
        FailureSet::from_edges(&edges)
    }

    /// Checks what a cycle simulation of `g` needs from the schedule:
    /// every scheduled link is an edge, and every fault state — the state
    /// after each event cycle of [`FaultSchedule::resolved_events`] —
    /// keeps the routers connected over live links. Draw safe schedules
    /// with [`FailureSet::sample_connected`] or
    /// [`FaultSchedule::sample_connected_links`].
    pub fn validate(&self, g: &Csr) -> Result<(), ScheduleError> {
        if let Some(&(u, v, ..)) = self.link_windows.iter().find(|w| !g.has_edge(w.0, w.1)) {
            return Err(ScheduleError::NotAnEdge(u, v));
        }
        let mut cycles: Vec<u32> = self.resolved_events(g).iter().map(|e| e.cycle).collect();
        cycles.dedup();
        for cycle in cycles {
            let links = self.active_at(g, cycle);
            let live = g.edges().filter(|&(u, v)| !links.contains(u, v));
            if components(g.vertex_count(), live) > 1 {
                return Err(ScheduleError::Disconnects {
                    cycle,
                    links_down: links.len(),
                });
            }
        }
        Ok(())
    }

    /// Flattens the schedule into the event stream the simulator
    /// consumes: each link's windows are merged so no link ever goes down
    /// twice without coming up in between, then emitted sorted by cycle
    /// with repairs *before* failures at the same cycle. An interval
    /// ending at [`FaultSchedule::NEVER`] emits no repair. Panics if a
    /// scheduled link is not an edge of `g`.
    pub fn resolved_events(&self, g: &Csr) -> Vec<FaultEvent> {
        use std::collections::BTreeMap;
        let mut per_link: BTreeMap<(u32, u32), Vec<(u32, u32)>> = BTreeMap::new();
        for &(u, v, fail, repair) in &self.link_windows {
            assert!(g.has_edge(u, v), "scheduled link {u}-{v} is not an edge");
            per_link.entry((u, v)).or_default().push((fail, repair));
        }

        let mut events = Vec::new();
        for (&(u, v), windows) in per_link.iter_mut() {
            for (fail, repair) in merge_windows(windows) {
                events.push(FaultEvent {
                    cycle: fail,
                    kind: FaultEventKind::LinkDown(u, v),
                });
                if repair != FaultSchedule::NEVER {
                    events.push(FaultEvent {
                        cycle: repair,
                        kind: FaultEventKind::LinkUp(u, v),
                    });
                }
            }
        }
        // Repairs first at a shared cycle: a link handed from one fault
        // window to another (already merged away for the same link) or
        // between *different* links never sees a spurious double-down
        // state.
        events.sort_by_key(|e| (e.cycle, matches!(e.kind, FaultEventKind::LinkDown(..))));
        events
    }
}

/// Merges half-open windows in place: overlapping or touching intervals
/// coalesce into maximal down intervals, returned sorted by start.
fn merge_windows(windows: &mut [(u32, u32)]) -> Vec<(u32, u32)> {
    windows.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(windows.len());
    for &(fail, repair) in windows.iter() {
        match merged.last_mut() {
            Some(last) if fail <= last.1 => last.1 = last.1.max(repair),
            _ => merged.push((fail, repair)),
        }
    }
    merged
}

/// `g`'s edges in a seeded random order — the removal order of every
/// random link-failure draw ([`FailureSet::sample`], [`failure_trial`],
/// [`median_failure_trial`]).
fn shuffled_edges(g: &Csr, seed: u64) -> Vec<(u32, u32)> {
    let mut order: Vec<(u32, u32)> = g.edges().collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Number of connected components of the `n`-vertex graph on `edges`
/// (union-find).
fn components(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> usize {
    let mut uf = UnionFind::new(n);
    for (u, v) in edges {
        uf.union(u, v);
    }
    uf.components
}

/// Network state at one failure checkpoint.
#[derive(Debug, Clone)]
pub struct FailurePoint {
    /// Fraction of links removed.
    pub failure_ratio: f64,
    /// Diameter over *reachable* pairs (the curve the paper plots keeps
    /// growing until disconnection).
    pub diameter: u32,
    /// Average shortest path length over reachable pairs.
    pub aspl: f64,
    /// Whether the residual network is still connected.
    pub connected: bool,
}

/// One seeded failure trial.
#[derive(Debug, Clone)]
pub struct FailureTrial {
    /// Smallest failure ratio at which the network disconnects: 0 if it
    /// is disconnected before any link fails or has no links.
    pub disconnect_ratio: f64,
    /// Metrics at each requested checkpoint.
    pub curve: Vec<FailurePoint>,
}

/// Weighted quick-union with path halving.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            self.parent[v as usize] = self.parent[self.parent[v as usize] as usize];
            v = self.parent[v as usize];
        }
        v
    }

    /// Joins the components of `a` and `b`; reports whether they were
    /// apart.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }
}

/// Answers both questions a removal order is asked in one backward
/// union-find pass: deleting links in `order` (all of `g`'s edges) is
/// inserting them in reverse. Returns `(prefix, forest)`:
///
/// - `prefix` is the number of removals at which `g` first disconnects:
///   `j + 1` for the link `order[j]` whose union first connects the
///   suffix `order[j..]`; 0 if no suffix connects `g` — it is split
///   before any removal, or has no links.
/// - `forest[j]` says whether `order[j]` merged two components. These
///   links are the spanning forest of the reversed order: exactly the
///   links that walking `order` and skipping each bridge at its turn
///   keeps.
fn reverse_pass(g: &Csr, order: &[(u32, u32)]) -> (usize, Vec<bool>) {
    let mut uf = UnionFind::new(g.vertex_count());
    let mut prefix = 0;
    let mut forest = vec![false; order.len()];
    for (j, &(u, v)) in order.iter().enumerate().rev() {
        forest[j] = uf.union(u, v);
        if forest[j] && uf.components == 1 {
            prefix = j + 1;
        }
    }
    (prefix, forest)
}

/// The disconnect prefix of [`reverse_pass`] as a fraction of the edge
/// count; 0 for a graph with no edges.
fn disconnect_ratio(g: &Csr, order: &[(u32, u32)]) -> f64 {
    reverse_pass(g, order).0 as f64 / order.len().max(1) as f64
}

/// Runs one failure trial: removes a random prefix of links (seeded
/// shuffle) and reports metrics at each checkpoint ratio, plus the exact
/// disconnection ratio.
pub fn failure_trial(g: &Csr, checkpoints: &[f64], seed: u64) -> FailureTrial {
    let order = shuffled_edges(g, seed);

    let m = order.len();
    let disconnect_ratio = disconnect_ratio(g, &order);

    let curve = checkpoints
        .iter()
        .map(|&ratio| {
            let k = ((ratio * m as f64).round() as usize).min(m);
            // One histogram per checkpoint: no N² matrix, no rescans.
            let hist = DistanceHistogram::build(&g.without_edges(&order[..k]));
            FailurePoint {
                failure_ratio: ratio,
                diameter: hist.diameter_reachable(),
                aspl: hist.average_shortest_path(),
                connected: hist.connected(),
            }
        })
        .collect();

    FailureTrial {
        disconnect_ratio,
        curve,
    }
}

/// Runs `trials` seeded failure experiments (Rayon-parallel), returning
/// `(median disconnect ratio, the trial realizing the median)`.
/// `checkpoints` are evaluated only for the median trial — evaluating the
/// full metric curve for all 100 trials would dominate runtime without
/// changing the reported figure.
pub fn median_failure_trial(
    g: &Csr,
    trials: usize,
    checkpoints: &[f64],
    seed: u64,
) -> (f64, FailureTrial) {
    assert!(trials >= 1);
    let mut ratios: Vec<(f64, u64)> = (0..trials as u64)
        .into_par_iter()
        .map(|t| {
            let s = seed.wrapping_add(t.wrapping_mul(0xA24B_AED4_963E_E407));
            (disconnect_ratio(g, &shuffled_edges(g, s)), s)
        })
        .collect();
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (median_ratio, median_seed) = ratios[trials / 2];
    let trial = failure_trial(g, checkpoints, median_seed);
    (median_ratio, trial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn ring_with_chords(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
            b.add_edge(i, (i + 2) % n as u32);
        }
        b.build()
    }

    #[test]
    fn disconnect_prefix_on_tree_is_one() {
        // Any single edge removal disconnects a tree.
        let mut b = GraphBuilder::new(5);
        for i in 1..5u32 {
            b.add_edge(0, i);
        }
        let g = b.build();
        let order: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(reverse_pass(&g, &order).0, 1);
    }

    #[test]
    fn an_already_disconnected_graph_disconnects_at_ratio_zero() {
        // Two disjoint triangles: disconnected before any link fails.
        let mut b = GraphBuilder::new(6);
        for t in [0u32, 3] {
            b.add_edge(t, t + 1);
            b.add_edge(t + 1, t + 2);
            b.add_edge(t, t + 2);
        }
        let g = b.build();
        assert_eq!(failure_trial(&g, &[0.5], 1).disconnect_ratio, 0.0);
        assert_eq!(median_failure_trial(&g, 5, &[0.5], 1).0, 0.0);
    }

    #[test]
    fn an_edge_free_graph_has_ratio_zero_not_nan() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(failure_trial(&g, &[0.5], 1).disconnect_ratio, 0.0);
        assert_eq!(median_failure_trial(&g, 5, &[0.5], 1).0, 0.0);
    }

    #[test]
    fn trial_curve_monotonicity() {
        let g = ring_with_chords(24);
        let t = failure_trial(&g, &[0.0, 0.2, 0.4], 3);
        assert_eq!(t.curve.len(), 3);
        assert!(t.curve[0].connected);
        assert_eq!(t.curve[0].diameter, 6); // circulant C24(1,2) diameter
                                            // ASPL can only grow (or stay) as links fail, while connected.
        let connected: Vec<&FailurePoint> = t.curve.iter().filter(|p| p.connected).collect();
        for w in connected.windows(2) {
            assert!(w[1].aspl >= w[0].aspl - 1e-12);
        }
        assert!(t.disconnect_ratio > 0.0 && t.disconnect_ratio <= 1.0);
    }

    #[test]
    fn median_is_deterministic() {
        let g = ring_with_chords(16);
        let (m1, _) = median_failure_trial(&g, 9, &[0.1], 7);
        let (m2, _) = median_failure_trial(&g, 9, &[0.1], 7);
        assert_eq!(m1, m2);
    }

    #[test]
    fn failure_set_sample_is_seeded_and_sized() {
        let g = ring_with_chords(20);
        let a = FailureSet::sample(&g, 0.25, 5);
        let b = FailureSet::sample(&g, 0.25, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), (0.25 * g.edge_count() as f64).round() as usize);
        assert!((a.ratio(&g) - 0.25).abs() < 0.05);
        for &(u, v) in a.edges() {
            assert!(u < v);
            assert!(g.has_edge(u, v));
            assert!(a.contains(u, v));
            assert!(a.contains(v, u));
        }
        let r = a.residual(&g);
        assert_eq!(r.edge_count(), g.edge_count() - a.len());
        assert_eq!(r.vertex_count(), g.vertex_count());
    }

    #[test]
    fn sample_connected_preserves_connectivity_even_past_disconnect() {
        // On a tree-ish sparse graph the plain prefix disconnects almost
        // immediately; the connected sampler must skip every bridge.
        let g = ring_with_chords(24);
        for ratio in [0.1, 0.3, 0.5] {
            let f = FailureSet::sample_connected(&g, ratio, 11);
            assert!(f.residual(&g).is_connected(), "ratio {ratio}");
        }
        // A ring of 8: removing any 1 link keeps it connected; a second
        // can disconnect. At 50% the sampler must stop at the spanning
        // tree (exactly 1 removable link).
        let mut b = GraphBuilder::new(8);
        for i in 0..8u32 {
            b.add_edge(i, (i + 1) % 8);
        }
        let ring = b.build();
        let f = FailureSet::sample_connected(&ring, 0.5, 3);
        assert_eq!(f.len(), 1, "a cycle has exactly one non-bridge margin");
        assert!(f.residual(&ring).is_connected());
    }

    #[test]
    fn empty_and_from_edges_round_trip() {
        let g = ring_with_chords(10);
        assert!(FailureSet::empty().is_empty());
        assert_eq!(FailureSet::empty().ratio(&g), 0.0);
        let f = FailureSet::from_edges(&[(3, 1), (1, 3), (2, 4)]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.edges(), &[(1, 3), (2, 4)]);
    }

    /// The binary search [`reverse_pass`]'s prefix replaced: about
    /// log₂ m union-find rebuilds of the suffix a removal prefix leaves.
    fn disconnect_prefix_oracle(g: &Csr, order: &[(u32, u32)]) -> usize {
        let m = order.len();
        let connected_with_prefix_removed =
            |k: usize| components(g.vertex_count(), order[k..].iter().copied()) == 1;
        let (mut lo, mut hi) = (0usize, m + 1); // the answer lies in lo..=hi
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if connected_with_prefix_removed(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(m)
    }

    /// Connectivity of `g` restricted to the `edges` whose flag is unset.
    fn connected_without(g: &Csr, edges: &[(u32, u32)], removed: &[bool]) -> bool {
        let live = edges.iter().zip(removed).filter(|(_, &gone)| !gone);
        components(g.vertex_count(), live.map(|(&e, _)| e)) == 1
    }

    /// The sampler [`FailureSet::sample_connected`] replaced: the plain
    /// prefix if it stays connected, else a re-walk of the index order
    /// that rebuilds a union-find per candidate to skip bridges.
    fn sample_connected_oracle(g: &Csr, ratio: f64, seed: u64) -> FailureSet {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let m = edges.len();
        let target = ((ratio * m as f64).round() as usize).min(m);
        let mut order: Vec<usize> = (0..m).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));

        let mut removed_flags = vec![false; m];
        // Fast path: the plain prefix.
        for &e in &order[..target] {
            removed_flags[e] = true;
        }
        if connected_without(g, &edges, &removed_flags) {
            let prefix: Vec<(u32, u32)> = order[..target].iter().map(|&e| edges[e]).collect();
            return FailureSet::from_edges(&prefix);
        }
        removed_flags.iter_mut().for_each(|f| *f = false);
        let mut chosen = Vec::with_capacity(target);
        for &e in &order {
            if chosen.len() == target {
                break;
            }
            removed_flags[e] = true;
            if connected_without(g, &edges, &removed_flags) {
                chosen.push(edges[e]);
            } else {
                removed_flags[e] = false;
            }
        }
        FailureSet::from_edges(&chosen)
    }

    /// The one reverse pass gives both old answers, on random graphs
    /// with isolated vertices, several components, no vertices at all,
    /// and on connected ones.
    #[test]
    fn reverse_pass_matches_the_oracles_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(54);
        let (mut connected, mut split) = (0, 0);
        for trial in 0..240u64 {
            let n = rng.gen_range(0..=40u32);
            let density = [0.05, 0.1, 0.2, 0.5][rng.gen_range(0..4usize)];
            let mut b = GraphBuilder::new(n as usize);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(density) {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            let is_connected = g.vertex_count() >= 2 && g.is_connected();
            if is_connected {
                connected += 1;
            } else {
                split += 1;
            }
            let order = shuffled_edges(&g, trial);
            assert_eq!(
                reverse_pass(&g, &order).0,
                disconnect_prefix_oracle(&g, &order),
                "trial {trial}: n = {n}"
            );
            for ratio in [0.0, 0.1, 0.5, 1.0] {
                let got = FailureSet::sample_connected(&g, ratio, trial);
                assert_eq!(
                    got,
                    sample_connected_oracle(&g, ratio, trial),
                    "trial {trial}: n = {n}, ratio {ratio}"
                );
                if is_connected {
                    let target = (ratio * g.edge_count() as f64).round() as usize;
                    let spare = g.edge_count() + 1 - g.vertex_count();
                    assert_eq!(got.len(), target.min(spare));
                }
            }
        }
        assert!(connected > 40 && split > 40, "{connected} / {split}");
    }

    // ---- FaultSchedule edge cases -------------------------------------

    #[test]
    #[should_panic(expected = "repair cycle 10 must come after fail cycle 10")]
    fn schedule_rejects_repair_at_or_before_fail() {
        let _ = FaultSchedule::new().link_fault(0, 1, 10, 10);
    }

    #[test]
    fn simultaneous_fail_and_repair_merge_into_one_outage() {
        // Two windows on the same link share cycle 200 as repair/fail:
        // the link must stay down across the seam, with no zero-length
        // up blip in the event stream.
        let g = ring_with_chords(8);
        let s = FaultSchedule::new()
            .link_fault(0, 1, 100, 200)
            .link_fault(0, 1, 200, 300);
        assert!(s.active_at(&g, 199).contains(0, 1));
        assert!(s.active_at(&g, 200).contains(0, 1));
        assert!(s.active_at(&g, 299).contains(0, 1));
        assert!(!s.active_at(&g, 300).contains(0, 1));
        let events = s.resolved_events(&g);
        assert_eq!(
            events,
            vec![
                FaultEvent {
                    cycle: 100,
                    kind: FaultEventKind::LinkDown(0, 1)
                },
                FaultEvent {
                    cycle: 300,
                    kind: FaultEventKind::LinkUp(0, 1)
                },
            ]
        );
    }

    #[test]
    fn repairs_sort_before_fails_at_a_shared_cycle() {
        let g = ring_with_chords(8);
        let s = FaultSchedule::new()
            .link_fault(0, 1, 50, 150)
            .link_fault(2, 3, 150, 250);
        let at_150: Vec<FaultEvent> = s
            .resolved_events(&g)
            .into_iter()
            .filter(|e| e.cycle == 150)
            .collect();
        assert_eq!(at_150[0].kind, FaultEventKind::LinkUp(0, 1));
        assert_eq!(at_150[1].kind, FaultEventKind::LinkDown(2, 3));
    }

    #[test]
    fn schedule_sampling_is_seed_deterministic() {
        let g = ring_with_chords(20);
        let ca = FaultSchedule::sample_connected_links(&g, 0.2, 300, 100, 3);
        let cb = FaultSchedule::sample_connected_links(&g, 0.2, 300, 100, 3);
        assert_eq!(ca, cb);
        let cc = FaultSchedule::sample_connected_links(&g, 0.2, 300, 100, 4);
        assert_ne!(ca, cc, "different seeds must draw different schedules");
        // Union of all windows keeps the residual connected, so every
        // intermediate state does too (down sets are subsets).
        let peak = ca.active_at(&g, 0).len().max(ca.len());
        assert!(peak > 0);
        let union = FailureSet::sample_connected(&g, 0.2, 3);
        assert!(union.residual(&g).is_connected());
        for &(u, v, fail, _) in &ca.link_windows {
            assert!(union.contains(u, v));
            assert!(fail < 300);
        }
    }

    #[test]
    fn a_failure_set_is_a_never_repaired_static_schedule() {
        let g = ring_with_chords(12);
        let f = FailureSet::sample_connected(&g, 0.25, 4);
        let s = FaultSchedule::from_failures(&f);
        assert_eq!(s.len(), f.len());
        assert_eq!(s.active_at(&g, 0), f);
        assert_eq!(s.active_at(&g, 1 << 30), f);
        assert_eq!(s.horizon(), FaultSchedule::NEVER);
        let events = s.resolved_events(&g);
        assert_eq!(events.len(), f.len(), "no repair events");
        assert!(events
            .iter()
            .all(|e| e.cycle == 0 && matches!(e.kind, FaultEventKind::LinkDown(..))));
        assert!(s.is_static(&g));
        assert!(FaultSchedule::new().is_static(&g));
        // Any event after cycle 0 is transient.
        let (u, v) = g.edges().next().unwrap();
        assert!(!s.clone().link_fault(u, v, 5, 9).is_static(&g));
        assert!(!FaultSchedule::new().link_fault(u, v, 0, 9).is_static(&g));
        // Touching windows that merge into one never-repaired outage
        // opening at cycle 0 fire nothing later.
        assert!(FaultSchedule::new()
            .link_fault(u, v, 0, 9)
            .link_fault(u, v, 9, FaultSchedule::NEVER)
            .is_static(&g));
    }

    #[test]
    fn empty_schedule_has_no_events() {
        let g = ring_with_chords(6);
        let s = FaultSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.horizon(), 0);
        assert!(s.resolved_events(&g).is_empty());
        assert!(s.active_at(&g, 123).is_empty());
    }

    /// The replay `validate` replaced: apply each cycle's resolved events
    /// to a set of down links, then union the live edges. Returns the
    /// first disconnecting state as `(cycle, links)`.
    fn replay_oracle(s: &FaultSchedule, g: &Csr) -> Option<(u32, usize)> {
        use std::collections::BTreeSet;
        let events = s.resolved_events(g);
        let mut links = BTreeSet::new();
        let mut i = 0;
        while i < events.len() {
            let cycle = events[i].cycle;
            while i < events.len() && events[i].cycle == cycle {
                match events[i].kind {
                    FaultEventKind::LinkDown(u, v) => links.insert((u, v)),
                    FaultEventKind::LinkUp(u, v) => links.remove(&(u, v)),
                };
                i += 1;
            }
            let mut parent: Vec<u32> = (0..g.vertex_count() as u32).collect();
            fn find(parent: &mut [u32], mut v: u32) -> u32 {
                while parent[v as usize] != v {
                    v = parent[v as usize];
                }
                v
            }
            for (u, v) in g.edges() {
                if !links.contains(&(u, v)) {
                    let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                    parent[ru as usize] = rv;
                }
            }
            let mut roots = (0..g.vertex_count() as u32).map(|v| find(&mut parent, v));
            let first = roots.next();
            if roots.any(|r| Some(r) != first) {
                return Some((cycle, links.len()));
            }
        }
        None
    }

    /// `validate` rejects exactly the schedules the event replay
    /// rejects, at the same state, over random link windows.
    #[test]
    fn validate_matches_the_event_replay() {
        // A 12-ring with two chords: two cuts often split it, one rarely.
        let mut b = GraphBuilder::new(12);
        for i in 0..12u32 {
            b.add_edge(i, (i + 1) % 12);
        }
        b.add_edge(0, 6);
        b.add_edge(3, 9);
        let g = b.build();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut rng = StdRng::seed_from_u64(17);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..400 {
            let mut s = FaultSchedule::new();
            for _ in 0..rng.gen_range(1..7) {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                let fail = rng.gen_range(0..40);
                let repair = if rng.gen_bool(0.2) {
                    FaultSchedule::NEVER
                } else {
                    fail + rng.gen_range(1..30u32)
                };
                s = s.link_fault(u, v, fail, repair);
            }
            let got = match s.validate(&g) {
                Ok(()) => None,
                Err(ScheduleError::Disconnects { cycle, links_down }) => Some((cycle, links_down)),
                Err(e) => panic!("valid elements rejected: {e}"),
            };
            assert_eq!(got, replay_oracle(&s, &g), "{s:?}");
            if got.is_some() {
                rejected += 1;
            } else {
                accepted += 1;
            }
        }
        assert!(accepted > 50 && rejected > 50, "{accepted} / {rejected}");
    }
}
