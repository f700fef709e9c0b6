//! Triangle counting and enumeration.
//!
//! The triangle census is central to the PolarFly layout analysis: Props.
//! V.5/V.6 count `C(q+1, 3)` triangles split into intra-cluster fans and
//! inter-cluster triples, Table II classifies inter-cluster triangles by
//! their V1/V2 membership, and Theorem V.7 states every non-quadric cluster
//! triplet carries exactly one triangle. Enumeration uses the standard
//! ordered-neighbor intersection, O(Σ deg²).

use crate::csr::Csr;

/// Enumerates all triangles `(a, b, c)` with `a < b < c`.
pub fn enumerate(g: &Csr) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    for_each(g, |a, b, c| out.push((a, b, c)));
    out
}

/// Calls `f` for every triangle `(a, b, c)`, `a < b < c`.
pub fn for_each<F: FnMut(u32, u32, u32)>(g: &Csr, mut f: F) {
    for (a, b) in g.edges() {
        // Neighbor lists are sorted: intersect the suffixes above b.
        let na = g.neighbors(a);
        let nb = g.neighbors(b);
        let (mut i, mut j) = (0usize, 0usize);
        while i < na.len() && j < nb.len() {
            let (x, y) = (na[i], nb[j]);
            if x <= b {
                i += 1;
                continue;
            }
            if y <= b {
                j += 1;
                continue;
            }
            if x == y {
                f(a, b, x);
                i += 1;
                j += 1;
            } else if x < y {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
}

/// Number of triangles in `g`.
pub fn count(g: &Csr) -> u64 {
    let mut n = 0u64;
    for_each(g, |_, _, _| n += 1);
    n
}

/// Number of triangles containing the edge `{u, v}` (sorted-list
/// intersection of the two neighborhoods).
pub fn edge_support(g: &Csr, u: u32, v: u32) -> usize {
    let (na, nb) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < na.len() && j < nb.len() {
        match na[i].cmp(&nb[j]) {
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn complete(n: u32) -> Csr {
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn complete_graph_triangle_count() {
        // K_n has C(n,3) triangles.
        for n in 3..9u32 {
            let expect = u64::from(n * (n - 1) * (n - 2) / 6);
            assert_eq!(count(&complete(n)), expect);
        }
    }

    #[test]
    fn cycle_has_no_triangles() {
        let mut b = GraphBuilder::new(6);
        for i in 0..6u32 {
            b.add_edge(i, (i + 1) % 6);
        }
        assert_eq!(count(&b.build()), 0);
    }

    #[test]
    fn enumeration_is_sorted_and_unique() {
        let g = complete(6);
        let tris = enumerate(&g);
        assert_eq!(tris.len(), 20);
        for &(a, b, c) in &tris {
            assert!(a < b && b < c);
        }
        let mut dedup = tris.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), tris.len());
    }

    #[test]
    fn edge_support_counts() {
        // Two triangles sharing edge 0-1: vertices 2 and 3 complete them.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        let g = b.build();
        assert_eq!(edge_support(&g, 0, 1), 2);
        assert_eq!(edge_support(&g, 0, 2), 1);
        assert_eq!(count(&g), 2);
    }
}
