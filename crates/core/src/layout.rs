//! The PolarFly rack layout — Algorithm 1 and Propositions V.2–V.4.
//!
//! For odd `q`, the `q² + q + 1` routers decompose into `q + 1` clusters
//! (racks): cluster `C0` holds the `q + 1` quadrics (which form an
//! independent set), and each of the `q` non-quadric clusters is a *fan* of
//! `(q−1)/2` triangles sharing a center vertex. The decomposition is
//! generated by an arbitrary *starter* quadric: the starter's `q` neighbors
//! become cluster centers, and each center's non-quadric neighbors complete
//! its cluster.
//!
//! The inter-rack structure is nearly balanced all-to-all: `q − 2`
//! independent links between every pair of non-quadric racks, `q + 1` links
//! between `C0` and every non-quadric rack.

use crate::er::PolarFly;

/// A cluster (rack) decomposition of a PolarFly instance.
#[derive(Debug, Clone)]
pub struct Layout {
    starter: u32,
    /// Cluster id per router; `0` is the quadrics cluster.
    cluster_of: Vec<u32>,
    /// Members per cluster; `clusters[0]` is sorted quadrics, each
    /// non-quadric cluster lists its center first.
    clusters: Vec<Vec<u32>>,
    /// `centers[i]` for `i ≥ 1` is the center of `C_i`; `centers[0]` is the
    /// starter quadric (by convention — `C0` has no center).
    centers: Vec<u32>,
}

impl Layout {
    /// Runs Algorithm 1 with the first quadric as starter. Panics for even
    /// `q` (the paper's layout analysis, like ours, targets odd `q`; even
    /// prime powers are sparse and their quadrics form a line, breaking
    /// Property 1).
    pub fn new(pf: &PolarFly) -> Layout {
        Layout::with_starter(pf, pf.quadrics()[0])
    }

    /// Runs Algorithm 1 from the given starter quadric.
    pub fn with_starter(pf: &PolarFly, starter: u32) -> Layout {
        assert!(
            pf.q() % 2 == 1,
            "the PolarFly layout is defined for odd q (got q = {})",
            pf.q()
        );
        assert!(
            pf.is_quadric(starter),
            "layout starter must be a quadric router"
        );
        let n = pf.router_count();
        let unassigned = u32::MAX;
        let mut cluster_of = vec![unassigned; n];
        let mut clusters: Vec<Vec<u32>> = vec![pf.quadrics().to_vec()];
        let mut centers = vec![starter];
        for &w in pf.quadrics() {
            cluster_of[w as usize] = 0;
        }
        // Each neighbor of the starter (all in V1, q of them) seeds a cluster.
        for &center in pf.graph().neighbors(starter) {
            let id = clusters.len() as u32;
            let mut members = vec![center];
            debug_assert_eq!(cluster_of[center as usize], unassigned);
            cluster_of[center as usize] = id;
            for &u in pf.graph().neighbors(center) {
                if !pf.is_quadric(u) {
                    debug_assert_eq!(
                        cluster_of[u as usize], unassigned,
                        "Algorithm 1 assigned a router twice — Property 1.5 violated?"
                    );
                    cluster_of[u as usize] = id;
                    members.push(u);
                }
            }
            centers.push(center);
            clusters.push(members);
        }
        assert!(
            cluster_of.iter().all(|&c| c != unassigned),
            "Algorithm 1 left routers unassigned (Proposition V.1 violated)"
        );
        Layout {
            starter,
            cluster_of,
            clusters,
            centers,
        }
    }

    /// The starter quadric that generated this layout.
    #[inline]
    pub fn starter(&self) -> u32 {
        self.starter
    }

    /// Number of clusters, `q + 1`.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster id of router `v` (`0` = quadrics rack).
    #[inline]
    pub fn cluster_of(&self, v: u32) -> u32 {
        self.cluster_of[v as usize]
    }

    /// Members of cluster `i`. For `i ≥ 1` the center is listed first.
    #[inline]
    pub fn cluster(&self, i: u32) -> &[u32] {
        &self.clusters[i as usize]
    }

    /// Center of non-quadric cluster `i ≥ 1` (the starter for `i = 0`).
    #[inline]
    pub fn center(&self, i: u32) -> u32 {
        self.centers[i as usize]
    }

    /// All cluster centers, index `1..=q`.
    pub fn centers(&self) -> &[u32] {
        &self.centers[1..]
    }

    /// Edges between clusters `i` and `j` (unordered router pairs).
    pub fn inter_cluster_edges(&self, pf: &PolarFly, i: u32, j: u32) -> Vec<(u32, u32)> {
        assert_ne!(i, j);
        let mut out = Vec::new();
        for &u in self.cluster(i) {
            for &w in pf.graph().neighbors(u) {
                if self.cluster_of(w) == j {
                    out.push((u, w));
                }
            }
        }
        out
    }

    /// The unique non-center vertex of cluster `i ≥ 1` with no neighbor in
    /// cluster `j ≥ 1` (`u′` of Proposition V.4.3); used by the
    /// non-quadric expansion method to restore degree uniformity.
    pub fn unconnected_vertex(&self, pf: &PolarFly, i: u32, j: u32) -> u32 {
        assert!(i >= 1 && j >= 1 && i != j);
        let center = self.center(i);
        let mut found = None;
        for &u in self.cluster(i) {
            if u == center {
                continue;
            }
            let touches_j = pf
                .graph()
                .neighbors(u)
                .iter()
                .any(|&w| self.cluster_of(w) == j);
            if !touches_j {
                assert!(found.is_none(), "Proposition V.4.3: u' must be unique");
                found = Some(u);
            }
        }
        found.expect("Proposition V.4.3 guarantees u' exists")
    }

    /// Intra-cluster triangle fan of cluster `i ≥ 1`: the `(q−1)/2`
    /// triangles, each returned as `(center, a, b)`.
    pub fn fan_blades(&self, pf: &PolarFly, i: u32) -> Vec<(u32, u32, u32)> {
        let center = self.center(i);
        let members = self.cluster(i);
        let mut blades = Vec::new();
        for (ai, &a) in members.iter().enumerate() {
            if a == center {
                continue;
            }
            for &b in members.iter().skip(ai + 1) {
                if b == center {
                    continue;
                }
                if pf.graph().has_edge(a, b) {
                    blades.push((center, a, b));
                }
            }
        }
        blades
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts(q: u64) -> (PolarFly, Layout) {
        let pf = PolarFly::new(q).unwrap();
        let l = Layout::new(&pf);
        (pf, l)
    }

    #[test]
    fn proposition_v1_partition() {
        for q in [3u64, 5, 7, 9, 11, 13] {
            let (pf, l) = layouts(q);
            assert_eq!(l.cluster_count() as u64, q + 1);
            // C0 = quadrics, each non-quadric cluster has q members.
            assert_eq!(l.cluster(0).len() as u64, q + 1);
            let mut seen = vec![false; pf.router_count()];
            for i in 0..l.cluster_count() as u32 {
                if i > 0 {
                    assert_eq!(l.cluster(i).len() as u64, q, "q={q} cluster {i}");
                }
                for &v in l.cluster(i) {
                    assert!(!seen[v as usize], "router {v} in two clusters");
                    seen[v as usize] = true;
                    assert_eq!(l.cluster_of(v), i);
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn quadric_cluster_is_independent_set() {
        let (pf, l) = layouts(11);
        for (ai, &a) in l.cluster(0).iter().enumerate() {
            for &b in l.cluster(0).iter().skip(ai + 1) {
                assert!(!pf.graph().has_edge(a, b), "Property 1.1 violated");
            }
        }
    }

    #[test]
    fn proposition_v2_fan_of_triangles() {
        for q in [5u64, 7, 9, 11, 13] {
            let (pf, l) = layouts(q);
            for i in 1..=q as u32 {
                let blades = l.fan_blades(&pf, i);
                assert_eq!(blades.len() as u64, (q - 1) / 2, "q={q} cluster {i}");
                // Triangles share only the center: non-center vertices
                // appear in exactly one blade.
                let mut used = std::collections::BTreeSet::new();
                for &(c, a, b) in &blades {
                    assert_eq!(c, l.center(i));
                    assert!(pf.graph().has_edge(c, a) && pf.graph().has_edge(c, b));
                    assert!(used.insert(a), "blade vertices overlap");
                    assert!(used.insert(b), "blade vertices overlap");
                }
                assert_eq!(used.len() as u64, q - 1);
            }
        }
    }

    #[test]
    fn proposition_v3_quadric_rack_links() {
        for q in [5u64, 7, 11] {
            let (pf, l) = layouts(q);
            for i in 1..=q as u32 {
                let edges = l.inter_cluster_edges(&pf, i, 0);
                // V.3.2: exactly q + 1 links between C_i and C0.
                assert_eq!(edges.len() as u64, q + 1, "q={q} cluster {i}");
                // V.3.3: each quadric is adjacent to exactly one router of C_i.
                let mut per_quadric = std::collections::BTreeMap::new();
                for &(_, w) in &edges {
                    *per_quadric.entry(w).or_insert(0u32) += 1;
                }
                assert_eq!(per_quadric.len() as u64, q + 1);
                assert!(per_quadric.values().all(|&c| c == 1));
                // V.3.1: each V1 member of C_i touches exactly two quadrics.
                for &u in l.cluster(i) {
                    if pf.class(u) == crate::VertexClass::V1 {
                        let cnt = edges.iter().filter(|&&(a, _)| a == u).count();
                        assert_eq!(cnt, 2);
                    }
                }
            }
        }
    }

    #[test]
    fn proposition_v4_inter_rack_links() {
        for q in [5u64, 7, 11] {
            let (pf, l) = layouts(q);
            for i in 1..=q as u32 {
                for j in 1..=q as u32 {
                    if i == j {
                        continue;
                    }
                    let edges = l.inter_cluster_edges(&pf, i, j);
                    // V.4.2: q − 2 independent edges.
                    assert_eq!(edges.len() as u64, q - 2, "q={q} {i}->{j}");
                    let mut left = std::collections::BTreeSet::new();
                    let mut right = std::collections::BTreeSet::new();
                    for &(u, w) in &edges {
                        assert!(left.insert(u), "edges not independent");
                        assert!(right.insert(w), "edges not independent");
                    }
                    // V.4.1: every V2 member of C_i has exactly one edge to C_j.
                    for &u in l.cluster(i) {
                        if pf.class(u) == crate::VertexClass::V2 {
                            assert!(left.contains(&u));
                        }
                    }
                    // Center never appears; exactly one non-center V1 member
                    // is missing (Proposition V.4.3).
                    assert!(!left.contains(&l.center(i)));
                    let u_prime = l.unconnected_vertex(&pf, i, j);
                    assert!(!left.contains(&u_prime));
                    assert_eq!(pf.class(u_prime), crate::VertexClass::V1);
                }
            }
        }
    }

    #[test]
    fn all_starters_give_valid_layouts() {
        let pf = PolarFly::new(7).unwrap();
        for &w in pf.quadrics() {
            let l = Layout::with_starter(&pf, w);
            assert_eq!(l.starter(), w);
            assert_eq!(l.cluster_count(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "odd q")]
    fn rejects_even_q() {
        let pf = PolarFly::new(4).unwrap();
        let _ = Layout::new(&pf);
    }
}
