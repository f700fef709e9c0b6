//! The bipartite incidence graph `B(q)` and the polarity quotient
//! (paper §IV-E): the formal route from finite geometry to `ER_q`.
//!
//! `B(q)` has the `q² + q + 1` points of `PG(2, q)` on one side and its
//! `q² + q + 1` lines on the other, with an edge when the point lies on
//! the line: `2(q² + q + 1)` vertices, degree `q + 1`, diameter 3. Gluing
//! each point to its polar line (the paper's polarity map) halves the
//! vertex count and — because the polarity exchanges incidence — drops the
//! diameter to 2, producing exactly `ER_q`.
//!
//! The module exists to *verify* that general claim computationally: the
//! quotient construction is independent of [`crate::er`]'s direct
//! orthogonality construction, and tests pin the two graphs equal edge for
//! edge. It also measures the `B(q)` side of the story (the
//! Parhami–Rakov "perfect difference network" of §XI): same degree, twice
//! the routers, diameter 3.

use crate::er::PolarFly;
use pf_galois::{line_points, Gf, GfError, ProjectivePoints};
use pf_graph::{Csr, GraphBuilder};

/// The bipartite point–line incidence graph `B(q)`.
///
/// Vertices `0..N` are points, `N..2N` are lines (both in the canonical
/// projective index order, `N = q² + q + 1`).
pub struct IncidenceGraph {
    side_count: usize,
    graph: Csr,
}

impl IncidenceGraph {
    /// Builds `B(q)`: point `x` is joined to line `l` when `l · x = 0`.
    pub fn new(q: u64) -> Result<Self, GfError> {
        let f = Gf::new(q)?;
        let points = ProjectivePoints::new(f.order());
        let n = points.count();
        let mut b = GraphBuilder::new(2 * n);
        for (line_idx, line) in points.iter().enumerate() {
            for x in line_points(&line, &f) {
                b.add_edge(points.index(&x) as u32, (n + line_idx) as u32);
            }
        }
        Ok(IncidenceGraph {
            side_count: n,
            graph: b.build(),
        })
    }

    /// The incidence graph (`2(q² + q + 1)` vertices).
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of points (= lines), `q² + q + 1`.
    pub fn side_count(&self) -> usize {
        self.side_count
    }

    /// Applies the polarity quotient: glue point `i` with line `i` (the
    /// dot-product polarity is coordinate-identical), keeping every
    /// incidence edge. Self-incidences (absolute points) become the
    /// quadrics' implicit self-loops and are dropped from the simple graph.
    pub fn polarity_quotient(&self) -> Csr {
        let n = self.side_count();
        let mut edges = Vec::with_capacity(self.graph.edge_count());
        for (u, v) in self.graph.edges() {
            // u is a point, v = n + line index.
            let (p, l) = (u, v - n as u32);
            if p != l {
                edges.push((p.min(l), p.max(l)));
            }
        }
        Csr::from_edges(n, edges)
    }
}

/// Verifies the §IV-E claim end-to-end for one `q`: the polarity quotient
/// of `B(q)` is exactly the `ER_q` built by direct orthogonality.
pub fn quotient_equals_er(q: u64) -> Result<bool, GfError> {
    let bq = IncidenceGraph::new(q)?;
    let quotient = bq.polarity_quotient();
    let er = PolarFly::new(q)?;
    Ok(quotient.edges().eq(er.graph().edges()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn incidence_graph_shape() {
        for q in [2u64, 3, 4, 5, 7, 9] {
            let bq = IncidenceGraph::new(q).unwrap();
            let n = (q * q + q + 1) as usize;
            assert_eq!(bq.graph().vertex_count(), 2 * n);
            assert!(bq.graph().is_regular((q + 1) as usize), "q={q}");
            // B(q) is the paper's diameter-3 bipartite network.
            assert_eq!(bfs::diameter(bq.graph()), Some(3), "q={q}");
        }
    }

    #[test]
    fn incidence_graph_is_bipartite() {
        let bq = IncidenceGraph::new(5).unwrap();
        let n = bq.side_count() as u32;
        for (u, v) in bq.graph().edges() {
            assert!(u < n && v >= n, "edge {u}-{v} not across the partition");
        }
    }

    #[test]
    fn polarity_quotient_reproduces_er_exactly() {
        for q in [3u64, 4, 5, 7, 8, 9, 11, 13] {
            assert!(quotient_equals_er(q).unwrap(), "quotient != ER for q={q}");
        }
    }

    #[test]
    fn quotient_halves_vertices_and_drops_diameter() {
        let q = 7u64;
        let bq = IncidenceGraph::new(q).unwrap();
        let quotient = bq.polarity_quotient();
        assert_eq!(quotient.vertex_count() * 2, bq.graph().vertex_count());
        assert_eq!(bfs::diameter(&quotient), Some(2));
        // Degree is preserved except at the q+1 absolute points (their
        // self-incidence becomes a dropped self-loop).
        let er = PolarFly::new(q).unwrap();
        let absolute = er.quadrics();
        assert_eq!(absolute.len() as u64, q + 1);
        for v in 0..quotient.vertex_count() as u32 {
            let expect = if absolute.contains(&v) { q } else { q + 1 };
            assert_eq!(quotient.degree(v) as u64, expect);
        }
    }
}
