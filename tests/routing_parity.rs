//! Routing parity on `ER_31` (the paper's Table V PolarFly): the port the
//! seeded `RouteTables` store — the engine's one minimal-hop source — must
//! name the O(1) algebraic cross-product's hop and descend the BFS
//! distances, every `Routing` variant must route that port, and each plan
//! must pick the detour §VII describes (the walked paths are checked in
//! `pf_sim::routing`'s unit tests).

use pf_graph::{bfs, Csr};
use pf_sim::router::PortMap;
use pf_sim::tables::RouteTables;
use pf_sim::{NetState, RoutePlan, Routing, SimConfig};
use pf_topo::{PolarFlyTopo, Topology};
use polarfly::routing::next_hop_minimal;
use polarfly::PolarFly;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All-pairs distances (`[s][d]`) from the scalar queue BFS, which
/// shares no code with the word-parallel kernel `RouteTables` is filled
/// from.
fn scalar_distances(g: &Csr) -> Vec<Vec<u8>> {
    (0..g.vertex_count() as u32)
        .map(|s| bfs::bfs_distances(g, s))
        .collect()
}

/// A congestion-free `NetState` over freshly built geometry (every
/// credit full, no source backlog) — deterministic algorithms must not
/// depend on it, and adaptive ones see an all-ties landscape.
struct ParityHarness {
    tables: RouteTables,
    geom: PortMap,
    link_up: Vec<bool>,
    credits: Vec<u16>,
    inj_wait: Vec<u32>,
    cfg: SimConfig,
}

impl ParityHarness {
    fn new(topo: &Topology, seed: u64) -> ParityHarness {
        let cfg = SimConfig::default();
        let geom = PortMap::build(topo.graph());
        let ports = geom.num_ports();
        ParityHarness {
            tables: RouteTables::build(topo.graph(), seed),
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

#[test]
fn er31_trait_table_algebraic_and_bfs_agree() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let pf: &PolarFly = topo.polarfly().unwrap();
    let h = ParityHarness::new(&topo, 7);
    let net = h.net(&topo);
    let dist = scalar_distances(topo.graph());
    let n = topo.router_count() as u32;

    // Every algorithm but NCA routes the table's port toward a plain
    // destination target.
    let algos = [
        Routing::Min,
        Routing::Valiant,
        Routing::CompactValiant,
        Routing::Ugal,
        Routing::UgalPf,
    ];
    let mut rng = StdRng::seed_from_u64(1);

    for s in 0..n {
        let nbrs = topo.graph().neighbors(s);
        for d in 0..n {
            if s == d {
                continue;
            }
            let port = h.tables.port(s, d).expect("connected");
            let algebraic = next_hop_minimal(pf, s, d);
            // ER_q minimal paths are unique ⇒ the seeded table tie-break
            // had exactly one candidate and must equal the algebra.
            assert_eq!(
                nbrs[port], algebraic,
                "table port vs algebraic divergence at {s}->{d}"
            );
            assert_eq!(
                h.tables.next_hop(s, d),
                algebraic,
                "next_hop diverges at {s}->{d}"
            );
            // Both must descend the BFS distance field.
            let ds = u32::from(dist[s as usize][d as usize]);
            assert_eq!(
                u32::from(dist[algebraic as usize][d as usize]),
                ds - 1,
                "next hop does not approach destination at {s}->{d}"
            );
            // Every algorithm routes the same minimal hop (sampled
            // sources: 5 algorithms × ~1M pairs is debug-build poison,
            // and they share the one table port checked above).
            if s % 7 == 0 {
                let hop = pf_sim::HopContext {
                    router: s,
                    target: d,
                };
                for algo in &algos {
                    let port = algo.next_output(&net, hop, &mut rng);
                    assert_eq!(
                        nbrs[port as usize],
                        algebraic,
                        "{} next_output diverges at {s}->{d}",
                        algo.label()
                    );
                }
            }
        }
    }
}

#[test]
fn er31_adaptive_min_picks_a_minimal_hop() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let h = ParityHarness::new(&topo, 7);
    let net = h.net(&topo);
    let dist = scalar_distances(topo.graph());
    let nca = Routing::MinAdaptive;
    let mut rng = StdRng::seed_from_u64(2);
    let n = topo.router_count() as u32;
    // Sampled pairs (the full product is covered by the deterministic
    // test above; NCA only needs the "stays minimal" guarantee).
    for s in (0..n).step_by(13) {
        for d in 0..n {
            if s == d {
                continue;
            }
            let port = nca.next_output(
                &net,
                pf_sim::HopContext {
                    router: s,
                    target: d,
                },
                &mut rng,
            );
            let next = topo.graph().neighbors(s)[port as usize];
            assert_eq!(
                u32::from(dist[next as usize][d as usize]),
                u32::from(dist[s as usize][d as usize]) - 1,
                "NCA left the minimal set at {s}->{d}"
            );
        }
    }
}

#[test]
fn plans_match_paper_semantics_on_er31() {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let h = ParityHarness::new(&topo, 7);
    let net = h.net(&topo);
    let mut rng = StdRng::seed_from_u64(3);
    let n = topo.router_count() as u32;

    for s in (0..n).step_by(17) {
        for d in (0..n).step_by(5) {
            if s == d {
                continue;
            }
            assert_eq!(Routing::Min.plan(&net, s, d, &mut rng), RoutePlan::Minimal);
            // Valiant always detours through a proper intermediate.
            match Routing::Valiant.plan(&net, s, d, &mut rng) {
                RoutePlan::Detour(m) => assert!(m != s && m != d),
                RoutePlan::Minimal => panic!("valiant must always detour"),
            }
            // Compact Valiant: adjacent pairs go minimal, others detour
            // through a neighbor of the source.
            let adjacent = h.tables.dist(s, d) <= 1;
            match Routing::CompactValiant.plan(&net, s, d, &mut rng) {
                RoutePlan::Minimal => assert!(adjacent, "CVAL skipped detour at {s}->{d}"),
                RoutePlan::Detour(m) => {
                    assert!(!adjacent);
                    assert!(topo.graph().has_edge(s, m), "CVAL mid not a neighbor");
                }
            }
            // UGAL-PF under zero congestion always goes minimal.
            assert_eq!(
                Routing::UgalPf.plan(&net, s, d, &mut rng),
                RoutePlan::Minimal,
                "UGAL-PF must stay minimal with empty buffers at {s}->{d}"
            );
        }
    }
}
