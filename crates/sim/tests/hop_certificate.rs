//! The hop-bound certificate: every path a [`Routing`] variant may take
//! fits the hop-indexed VC classes it declares ([`Routing::max_hops`]),
//! and the engine's routing decisions stay inside those paths.
//!
//! The path sets are written down from BFS distances alone, sharing no
//! code with `Routing`, as §VII defines them:
//!
//! * MIN and NCA: any shortest path;
//! * Valiant: a shortest path to any intermediate, then a shortest path
//!   to the destination;
//! * Compact Valiant: the same through a neighbor of the source, except
//!   that adjacent pairs go minimally;
//! * UGAL: the minimal path or the Valiant form;
//! * UGAL-PF: the minimal path or its detour form, which is Compact
//!   Valiant's, or Valiant's for adjacent pairs (Fig. 9b's 4-hop
//!   detours).
//!
//! Each set is enumerated exhaustively on PolarFly q ∈ {3, 4, 5, 7, 8, 9}
//! (odd and even q), Slim Fly q = 5, the smallest Dragonfly, and every
//! single-link-failure residual of PolarFly q = 5. The pinned
//! fast-reroute paths of transient runs are not covered here.

use pf_graph::{bfs, Csr, DistanceHistogram};
use pf_sim::router::PortMap;
use pf_sim::tables::RouteTables;
use pf_sim::{HopContext, NetState, Port, RoutePlan, Routing, SimConfig};
use pf_topo::{Dragonfly, PolarFlyTopo, SlimFly, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A network to certify: a physical topology, optionally with one link
/// down from cycle 0.
struct Case<'t> {
    name: String,
    topo: &'t Topology,
    failed: Option<(u32, u32)>,
}

/// What the routes of a [`Case`] are computed on: the live (residual)
/// graph and its distances (`dist[u][v]`, from the scalar queue BFS).
struct Routed {
    graph: Csr,
    dist: Vec<Vec<u8>>,
    diameter: u32,
}

impl Case<'_> {
    fn routed(&self) -> Routed {
        let graph = self.topo.graph().without_edges(self.failed.as_slice());
        let dist = (0..graph.vertex_count() as u32)
            .map(|s| bfs::bfs_distances(&graph, s))
            .collect();
        let diameter = DistanceHistogram::build(&graph)
            .diameter()
            .expect("connected residual");
        Routed {
            graph,
            dist,
            diameter,
        }
    }
}

impl Routed {
    fn d(&self, u: u32, v: u32) -> usize {
        usize::from(self.dist[u as usize][v as usize])
    }

    /// The intermediates of the paths `routing` may take from `s` to
    /// `d`; `None` is the minimal path.
    fn forms(&self, routing: Routing, s: u32, d: u32) -> Vec<Option<u32>> {
        let n = self.graph.vertex_count() as u32;
        let valiant = (0..n).filter(|&m| m != s && m != d).map(Some);
        let neighbor = self.graph.neighbors(s).iter().map(|&m| Some(m));
        let adjacent = self.d(s, d) <= 1;
        let mut forms = vec![None];
        match routing {
            Routing::Min | Routing::MinAdaptive => {}
            Routing::Valiant => forms = valiant.collect(),
            Routing::CompactValiant if adjacent => {}
            Routing::CompactValiant => forms = neighbor.collect(),
            Routing::Ugal => forms.extend(valiant),
            Routing::UgalPf if adjacent => forms.extend(valiant),
            Routing::UgalPf => forms.extend(neighbor),
        }
        forms
    }

    /// Calls `visit` on every path that goes shortest from the end of
    /// `path` through each of `targets` in turn.
    fn each_path(&self, path: &mut Vec<u32>, targets: &[u32], visit: &mut impl FnMut(&[u32])) {
        let Some((&t, rest)) = targets.split_first() else {
            return visit(path);
        };
        let cur = path[path.len() - 1];
        if cur == t {
            return self.each_path(path, rest, visit);
        }
        for &v in self.graph.neighbors(cur) {
            if self.d(v, t) + 1 == self.d(cur, t) {
                path.push(v);
                self.each_path(path, targets, visit);
                path.pop();
            }
        }
    }

    /// Whether `path` goes shortest through each of `targets` in turn.
    fn follows(&self, path: &[u32], targets: &[u32]) -> bool {
        let mut at = 0;
        for &t in targets {
            for _ in 0..self.d(path[at], t) {
                let Some(&v) = path.get(at + 1) else {
                    return false;
                };
                let u = path[at];
                if !self.graph.has_edge(u, v) || self.d(v, t) + 1 != self.d(u, t) {
                    return false;
                }
                at += 1;
            }
        }
        at + 1 == path.len()
    }
}

/// The waypoints of a form: the intermediate, if any, then `d`.
fn targets(mid: Option<u32>, d: u32) -> Vec<u32> {
    mid.into_iter().chain([d]).collect()
}

/// The channel-dependency graph over (directed link, VC class), where
/// hop `h` of a path rides class `min(h, classes − 1)` as in the engine.
struct Cdg {
    /// First directed-link id of each router's neighbor list.
    base: Vec<usize>,
    classes: usize,
    succ: Vec<Vec<usize>>,
}

impl Cdg {
    fn new(g: &Csr, classes: usize) -> Cdg {
        let mut base = vec![0];
        for u in 0..g.vertex_count() as u32 {
            base.push(base[base.len() - 1] + g.degree(u));
        }
        let links = base[base.len() - 1];
        Cdg {
            base,
            classes,
            succ: vec![Vec::new(); links * classes],
        }
    }

    fn channel(&self, g: &Csr, u: u32, v: u32, hop: usize) -> usize {
        let i = g
            .neighbors(u)
            .binary_search(&v)
            .expect("path follows edges");
        (self.base[u as usize] + i) * self.classes + hop.min(self.classes - 1)
    }

    /// Adds the dependencies between consecutive hops of `path`.
    fn add(&mut self, g: &Csr, path: &[u32]) {
        for h in 1..path.len().saturating_sub(1) {
            let from = self.channel(g, path[h - 1], path[h], h - 1);
            let to = self.channel(g, path[h], path[h + 1], h);
            if !self.succ[from].contains(&to) {
                self.succ[from].push(to);
            }
        }
    }

    /// Kahn's algorithm: every channel can be ordered before its
    /// dependents.
    fn acyclic(&self) -> bool {
        let mut indeg = vec![0u32; self.succ.len()];
        for s in self.succ.iter().flatten() {
            indeg[*s] += 1;
        }
        let mut ready: Vec<usize> = (0..indeg.len()).filter(|&c| indeg[c] == 0).collect();
        let mut ordered = 0;
        while let Some(c) = ready.pop() {
            ordered += 1;
            for &s in &self.succ[c] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        ordered == indeg.len()
    }
}

/// Every topology the certificate covers, healthy.
fn topologies() -> Vec<(String, Topology)> {
    let mut topos: Vec<(String, Topology)> = [3, 4, 5, 7, 8, 9]
        .into_iter()
        .map(|q| (format!("PF q={q}"), PolarFlyTopo::new(q, 1).unwrap()))
        .collect();
    topos.push(("SF q=5".into(), SlimFly::new(5, 1).unwrap()));
    topos.push(("DF(2,1,1)".into(), Dragonfly::new(2, 1, 1)));
    topos
}

/// Runs `check` on every healthy topology and on every single-link
/// failure of PolarFly q = 5.
fn for_each_case(mut check: impl FnMut(&Case)) {
    let topos = topologies();
    for (name, topo) in &topos {
        check(&Case {
            name: name.clone(),
            topo,
            failed: None,
        });
    }
    let pf5 = PolarFlyTopo::new(5, 1).unwrap();
    for (u, v) in pf5.graph().edges() {
        check(&Case {
            name: format!("PF q=5 without {u}-{v}"),
            topo: &pf5,
            failed: Some((u, v)),
        });
    }
}

/// Over every path set: the longest path fits `max_hops(diameter)`, and
/// the channel-dependency graph is acyclic — Dally–Seitz's condition
/// for deadlock freedom. With hop-indexed classes every dependency
/// climbs one class unless a hop clamps into the top class, so the
/// graph is acyclic whenever no path clamps; a clamped hop adds the
/// only same-class dependencies that could close a cycle.
#[test]
fn every_path_fits_the_declared_hop_bound() {
    for_each_case(|case| {
        let r = case.routed();
        let n = r.graph.vertex_count() as u32;
        for routing in Routing::all() {
            let classes = routing.max_hops(r.diameter) as usize;
            let mut cdg = Cdg::new(&r.graph, classes);
            let mut longest = 0;
            let mut path = Vec::new();
            for s in 0..n {
                for d in (0..n).filter(|&d| d != s) {
                    for mid in r.forms(routing, s, d) {
                        path.clear();
                        path.push(s);
                        r.each_path(&mut path, &targets(mid, d), &mut |p| {
                            longest = longest.max(p.len() - 1);
                            cdg.add(&r.graph, p);
                        });
                    }
                }
            }
            let label = format!("{} {}", case.name, routing.label());
            assert!(
                longest <= classes,
                "{label}: a {longest}-hop path outruns max_hops({}) = {classes}",
                r.diameter
            );
            assert!(cdg.acyclic(), "{label}: cyclic channel dependencies");
        }
    });
}

/// The engine's choices stay inside the sets: on every (src, dst) pair,
/// with three seeds (table tie-breaks, random buffer occupancy and
/// source backlog, so the UGALs take both forms), each variant's `plan`
/// and the hops `next_output` then walks form a path of its set, over
/// live links only.
#[test]
fn engine_choices_stay_inside_the_path_sets() {
    for_each_case(|case| {
        let r = case.routed();
        let g = case.topo.graph();
        let cfg = SimConfig::default();
        let geom = PortMap::build(g);
        let mut link_up = vec![true; geom.num_ports()];
        for &(u, v) in case.failed.as_slice() {
            for (a, b) in [(u, v), (v, u)] {
                let i = g.neighbors(a).binary_search(&b).unwrap();
                link_up[geom.tx(a, i) as usize] = false;
            }
        }
        let n = g.vertex_count() as u32;
        let mut detours = 0;
        for seed in 1..=3 {
            let tables = RouteTables::build_without(g, case.failed.as_slice(), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let cap = cfg.cap_per_vc();
            let credits: Vec<u16> = (0..geom.num_ports() * cfg.vcs())
                .map(|_| rng.gen_range(0..=cap) as u16)
                .collect();
            let inj_wait: Vec<u32> = (0..geom.num_ports()).map(|_| rng.gen_range(0..4)).collect();
            let net = NetState {
                tables: &tables,
                graph: g,
                geom: &geom,
                link_up: &link_up,
                degraded: case.failed.is_some(),
                credits: &credits,
                inj_wait: &inj_wait,
                vcs: cfg.vcs(),
                per_class: usize::from(cfg.vcs_per_class),
                cap_per_vc: cap,
                packet_flits: cfg.packet_flits,
                ugal_pf_threshold: cfg.ugal_pf_threshold,
            };
            for s in 0..n {
                for d in (0..n).filter(|&d| d != s) {
                    for routing in Routing::all() {
                        let label = format!("{} {} {s}->{d}", case.name, routing.label());
                        // As at injection: a detour naming an endpoint
                        // is the minimal path.
                        let mid = match routing.plan(&net, s, d, &mut rng) {
                            RoutePlan::Detour(m) if m != s && m != d => Some(m),
                            _ => None,
                        };
                        detours += usize::from(mid.is_some());
                        let mut path = vec![s];
                        for t in targets(mid, d) {
                            while path[path.len() - 1] != t {
                                let router = path[path.len() - 1];
                                let hop = HopContext { router, target: t };
                                let i = routing.next_output(&net, hop, &mut rng);
                                assert!(
                                    i != Port::MAX && net.link_ok(router, i as usize),
                                    "{label}: no live output at {router}"
                                );
                                path.push(g.neighbors(router)[i as usize]);
                                assert!(path.len() <= 2 * n as usize, "{label}: {path:?} loops");
                            }
                        }
                        assert!(
                            r.forms(routing, s, d)
                                .into_iter()
                                .any(|m| r.follows(&path, &targets(m, d))),
                            "{label}: {path:?} is outside the path set"
                        );
                    }
                }
            }
        }
        assert!(detours > 0, "{}: no detour sampled", case.name);
    });
}
