//! Incremental expansion without rewiring (paper §VI, Table IV).
//!
//! Both methods replicate a cluster of the layout (Definition VI.1): the
//! replica copies the cluster's intra-cluster edges among the new routers
//! and re-creates every inter-cluster edge toward the *existing* network —
//! no existing link is moved.
//!
//! * **Quadric replication** (§VI-A) copies `C0` and additionally joins
//!   each quadric with all of its replicas (a clique per quadric). Adds
//!   `q + 1` routers per step, keeps diameter 2, but only quadrics and V1
//!   gain links (degree non-uniformity grows).
//! * **Non-quadric replication** (§VI-B) copies clusters `C1, C2, …` in
//!   round-robin order. Each step adds `q` routers; one extra link per
//!   existing cluster (replica of `u′(i,j)` → center of `C_j`) keeps the
//!   degree distribution near-uniform. Diameter grows to 3, but only the
//!   ≤ `q − 1` pairs between a cluster and its own replica are at distance
//!   3, so the average path length stays below 2.

use crate::er::PolarFly;
use crate::layout::Layout;
use pf_graph::{Csr, GraphBuilder};

/// Which §VI method produced an [`Expanded`] network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpansionMethod {
    /// §VI-A: replicate the quadrics cluster `C0`.
    Quadric,
    /// §VI-B: replicate non-quadric clusters round-robin.
    NonQuadric,
}

/// An incrementally expanded PolarFly.
pub struct Expanded {
    /// The expanded network graph. Routers `0..base_n` are the original
    /// PolarFly; replicas follow in replication order.
    pub graph: Csr,
    /// Expansion method used.
    pub method: ExpansionMethod,
    /// Number of replication steps applied.
    pub steps: usize,
    /// Router count of the base PolarFly.
    pub base_n: usize,
    /// Cluster id for every router. Original clusters keep their layout
    /// ids `0..=q`; the replica created at step `s` (1-based) gets id
    /// `q + s`.
    pub cluster_of: Vec<u32>,
    /// For each replica router, the original router it copies.
    /// `original_of[v - base_n]` for `v ≥ base_n`.
    pub original_of: Vec<u32>,
}

impl Expanded {
    /// Total router count after expansion.
    pub fn router_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Fractional size increase over the base network.
    pub fn growth(&self) -> f64 {
        (self.router_count() - self.base_n) as f64 / self.base_n as f64
    }
}

/// Replicates the quadrics cluster `steps` times (§VI-A).
pub fn replicate_quadric(pf: &PolarFly, layout: &Layout, steps: usize) -> Expanded {
    let base_n = pf.router_count();
    let q1 = pf.quadrics().len(); // q + 1
    let n = base_n + steps * q1;
    let mut b = GraphBuilder::new(n);
    for (u, v) in pf.graph().edges() {
        b.add_edge(u, v);
    }
    let mut cluster_of: Vec<u32> = (0..base_n as u32).map(|v| layout.cluster_of(v)).collect();
    let mut original_of = Vec::with_capacity(steps * q1);
    let replica_cluster_base = layout.cluster_count() as u32; // q + 1

    for step in 0..steps {
        for (qi, &w) in pf.quadrics().iter().enumerate() {
            let replica = (base_n + step * q1 + qi) as u32;
            original_of.push(w);
            cluster_of.push(replica_cluster_base + step as u32);
            // Inter-cluster edges of C0 all go to V1 routers of the base.
            for &u in pf.graph().neighbors(w) {
                b.add_edge(replica, u);
            }
            // Clique among {w, replicas of w created so far}.
            b.add_edge(replica, w);
            for prev in 0..step {
                b.add_edge(replica, (base_n + prev * q1 + qi) as u32);
            }
        }
    }

    Expanded {
        graph: b.build(),
        method: ExpansionMethod::Quadric,
        steps,
        base_n,
        cluster_of,
        original_of,
    }
}

/// Replicates non-quadric clusters `C1, …, C_steps` (round-robin order,
/// `steps ≤ q`) per §VI-B, including the degree-uniformity fix-up links.
pub fn replicate_non_quadric(pf: &PolarFly, layout: &Layout, steps: usize) -> Expanded {
    let q = pf.q() as usize;
    assert!(
        steps <= q,
        "at most q non-quadric replications (got {steps} > {q})"
    );
    let base_n = pf.router_count();
    let n = base_n + steps * q;

    // Growing edge list; cluster membership for every router so far.
    let mut edges: Vec<(u32, u32)> = pf.graph().edges().collect();
    let mut cluster_of: Vec<u32> = (0..base_n as u32).map(|v| layout.cluster_of(v)).collect();
    let mut original_of: Vec<u32> = Vec::with_capacity(steps * q);
    // Centers per cluster id (index 0 unused placeholder = starter).
    let mut centers: Vec<u32> = (0..layout.cluster_count() as u32)
        .map(|i| layout.center(i))
        .collect();
    // Members per cluster id, replicas appended as they are created.
    let mut members: Vec<Vec<u32>> = (0..layout.cluster_count() as u32)
        .map(|i| layout.cluster(i).to_vec())
        .collect();

    // Adjacency sets are rebuilt per step — steps ≤ q ≤ 127 keeps this cheap
    // relative to simulation, and it keeps the logic auditable.
    for step in 1..=steps {
        let src_cluster = step as u32; // replicate C_step
        let replica_cluster = (q + step) as u32;
        let graph_so_far = Csr::from_edges(base_n + (step - 1) * q, edges.clone());

        // Replica ids parallel the source cluster's member order
        // (center first, mirroring Layout::cluster).
        let src_members = members[src_cluster as usize].clone();
        debug_assert_eq!(src_members.len(), q);
        let id_base = (base_n + (step - 1) * q) as u32;
        let replica_id = |pos: usize| id_base + pos as u32;

        for (pos, &u) in src_members.iter().enumerate() {
            let u_rep = replica_id(pos);
            original_of.push(u);
            cluster_of.push(replica_cluster);
            for &w in graph_so_far.neighbors(u) {
                if cluster_of[w as usize] == src_cluster {
                    // Intra-cluster edge: connect replicas of both ends.
                    let wpos = src_members.iter().position(|&m| m == w).unwrap();
                    if wpos > pos {
                        edges.push((u_rep, replica_id(wpos)));
                    }
                } else {
                    // Inter-cluster edge: replica connects to the original
                    // other endpoint (Definition VI.1).
                    edges.push((u_rep, w));
                }
            }
        }
        centers.push(replica_id(0));
        members.push((0..q).map(replica_id).collect());

        // Degree-uniformity fix-up: for every other non-quadric cluster D
        // (original or replica), the unique non-center source-cluster
        // vertex with no edge into D gets its replica joined to D's center.
        for d in 1..replica_cluster {
            if d == src_cluster {
                continue;
            }
            let center = centers[src_cluster as usize];
            let mut missing = None;
            for (pos, &u) in src_members.iter().enumerate() {
                if u == center {
                    continue;
                }
                let touches = graph_so_far
                    .neighbors(u)
                    .iter()
                    .any(|&w| cluster_of[w as usize] == d);
                if !touches {
                    debug_assert!(missing.is_none(), "u'(i,j) must be unique");
                    missing = Some(pos);
                }
            }
            let pos = missing.expect("Proposition V.4.3 guarantees a missing vertex");
            edges.push((replica_id(pos), centers[d as usize]));
        }
    }

    Expanded {
        graph: Csr::from_edges(n, edges),
        method: ExpansionMethod::NonQuadric,
        steps,
        base_n,
        cluster_of,
        original_of,
    }
}

/// Characteristics summarized in Table IV, measured on an expanded network.
#[derive(Debug, Clone)]
pub struct ExpansionStats {
    /// Routers gained per unit increase of the maximum degree.
    pub scalability: f64,
    /// Min and max router degree after expansion.
    pub degree_range: (usize, usize),
    /// Network diameter after expansion.
    pub diameter: u32,
    /// Average shortest path length after expansion.
    pub aspl: f64,
    /// Links whose both endpoints predate the expansion but which did not
    /// exist before — must be 0 (“no rewiring”).
    pub rewired_links: usize,
}

/// Measures Table IV characteristics for an expanded network against its base.
pub fn stats(pf: &PolarFly, ex: &Expanded) -> ExpansionStats {
    let hist = pf_graph::DistanceHistogram::build(&ex.graph);
    let base_max = pf.graph().max_degree();
    let added = ex.router_count() - ex.base_n;
    let new_max = ex.graph.max_degree();
    let scalability = if new_max > base_max {
        added as f64 / (new_max - base_max) as f64
    } else {
        f64::INFINITY
    };
    let rewired = ex
        .graph
        .edges()
        .filter(|&(u, v)| {
            (u as usize) < ex.base_n && (v as usize) < ex.base_n && !pf.graph().has_edge(u, v)
        })
        .count();
    ExpansionStats {
        scalability,
        degree_range: (ex.graph.min_degree(), new_max),
        diameter: hist
            .diameter()
            .expect("expanded network must stay connected"),
        aspl: hist.average_shortest_path(),
        rewired_links: rewired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(q: u64) -> (PolarFly, Layout) {
        let pf = PolarFly::new(q).unwrap();
        let l = Layout::new(&pf);
        (pf, l)
    }

    #[test]
    fn quadric_replication_invariants() {
        for q in [5u64, 7, 11] {
            let (pf, l) = setup(q);
            for steps in 1..=3usize {
                let ex = replicate_quadric(&pf, &l, steps);
                // §VI-A.1: +q+1 routers per step, diameter stays 2.
                assert_eq!(
                    ex.router_count(),
                    pf.router_count() + steps * (q as usize + 1)
                );
                let st = stats(&pf, &ex);
                assert_eq!(st.diameter, 2, "q={q} steps={steps}");
                assert_eq!(st.rewired_links, 0, "expansion must not rewire");
                // §VI-A.2: quadrics gain 1, V1 gains 2 per step.
                for &w in pf.quadrics() {
                    assert_eq!(ex.graph.degree(w), q as usize + steps);
                }
                for v in 0..pf.router_count() as u32 {
                    let d = ex.graph.degree(v);
                    match pf.class(v) {
                        crate::VertexClass::Quadric => assert_eq!(d, q as usize + steps),
                        crate::VertexClass::V1 => assert_eq!(d, (q + 1) as usize + 2 * steps),
                        crate::VertexClass::V2 => assert_eq!(d, (q + 1) as usize),
                    }
                }
            }
        }
    }

    #[test]
    fn quadric_replication_inter_cluster_links() {
        // §VI-A.3: q+1 links between each replica cluster and every other
        // cluster... verified as: replica cluster has q+1 links to each
        // non-quadric cluster (same as C0 per Prop V.3.2).
        let (pf, l) = setup(7);
        let ex = replicate_quadric(&pf, &l, 1);
        let q = 7u32;
        for cluster in 1..=q {
            let mut count = 0;
            for v in 0..ex.router_count() as u32 {
                if ex.cluster_of[v as usize] != q + 1 {
                    continue; // only replica routers
                }
                for &w in ex.graph.neighbors(v) {
                    if ex.cluster_of[w as usize] == cluster {
                        count += 1;
                    }
                }
            }
            assert_eq!(count, q + 1);
        }
    }

    #[test]
    fn non_quadric_replication_invariants() {
        for q in [5u64, 7] {
            let (pf, l) = setup(q);
            for steps in 1..=3usize {
                let ex = replicate_non_quadric(&pf, &l, steps);
                // §VI-B.1: +q routers per step.
                assert_eq!(ex.router_count(), pf.router_count() + steps * q as usize);
                let st = stats(&pf, &ex);
                // §VI-B.2: max degree increases by steps + 1.
                assert_eq!(
                    st.degree_range.1,
                    (q + 1) as usize + steps + 1,
                    "q={q} steps={steps}"
                );
                // §VI-B.3: diameter becomes 3, ASPL stays below 2.
                assert_eq!(st.diameter, 3, "q={q} steps={steps}");
                assert!(st.aspl < 2.0, "q={q} steps={steps} aspl={}", st.aspl);
                assert_eq!(st.rewired_links, 0);
            }
        }
    }

    #[test]
    fn non_quadric_distance_3_pairs_are_cluster_vs_replica() {
        // §VI-B.3: for u ∈ C_i, the ≥3-distance partners (at most q−1 of
        // them) all lie in the replica C_{q+i}, and vice versa.
        let (pf, l) = setup(5);
        let ex = replicate_non_quadric(&pf, &l, 2);
        let q = 5u32;
        for u in 0..ex.router_count() as u32 {
            let cu = ex.cluster_of[u as usize];
            let from_u = pf_graph::bfs::bfs_distances(&ex.graph, u);
            let far: Vec<u32> = (0..ex.router_count() as u32)
                .filter(|&v| from_u[v as usize] >= 3)
                .collect();
            assert!(
                (far.len() as u32) < q,
                "router {u} has too many 3-hop partners"
            );
            for v in far {
                let cv = ex.cluster_of[v as usize];
                let related = (cv == cu + q && cu >= 1) || (cu == cv + q && cv >= 1);
                assert!(
                    related,
                    "3-distance pair {u}(c{cu}) {v}(c{cv}) not cluster/replica"
                );
            }
        }
    }

    #[test]
    fn scalability_matches_table_iv() {
        let (pf, l) = setup(11);
        let q = 11f64;
        // Quadric: (q+1)/2 routers per unit radix.
        let ex = replicate_quadric(&pf, &l, 4);
        let st = stats(&pf, &ex);
        assert!((st.scalability - (q + 1.0) / 2.0).abs() < 1e-9);
        // Non-quadric: ≈ q routers per unit radix (qn nodes, n+1 degree).
        let ex = replicate_non_quadric(&pf, &l, 4);
        let st = stats(&pf, &ex);
        assert!((st.scalability - 4.0 * q / 5.0).abs() < 1e-9);
    }
}
