//! Compressed-sparse-row undirected graphs.
//!
//! All topologies in the workspace are materialized as [`Csr`] graphs:
//! vertices are `u32` indices, adjacency is stored twice (once per
//! direction, and nowhere else) in a flat neighbor array for BFS. Builders
//! deduplicate edges and reject self-loops, so structural invariants
//! (degree counts, edge counts) are exact; a generator that already has
//! sorted rows skips the edge list via [`Csr::from_sorted_rows`], which
//! checks the same invariants instead of establishing them.

use std::fmt;

/// Incremental edge-list builder for [`Csr`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`. Panics on out-of-range vertices
    /// or self-loops (no topology in this workspace has them; quadric
    /// "self-loops" in `ER_q` are modelled structurally, not as edges).
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.edges.push(canonical(self.n, u, v));
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Finalizes into a [`Csr`], deduplicating edges.
    pub fn build(mut self) -> Csr {
        self.edges.sort_unstable();
        self.edges.dedup();
        let (n, edges) = (self.n, &self.edges);
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; edges.len() * 2];
        for &(u, v) in edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency run so neighbor lookups can binary-search.
        for i in 0..n {
            let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
            neighbors[s..e].sort_unstable();
        }
        Csr { offsets, neighbors }
    }
}

/// `{u, v}` as `(min, max)`, after [`GraphBuilder::add_edge`]'s checks.
fn canonical(n: usize, u: u32, v: u32) -> (u32, u32) {
    assert!(u != v, "self-loop {u}-{v} rejected");
    assert!(
        (u as usize) < n && (v as usize) < n,
        "edge {u}-{v} out of range"
    );
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// An undirected graph in CSR form: `offsets` (n + 1 row starts) and
/// ascending `neighbors` rows are all it stores; [`Csr::edges`] reads them.
///
/// # Examples
///
/// ```
/// use pf_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 3);
/// let g = b.build();
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.edges().eq([(0, 1), (1, 2), (2, 3)]));
/// assert_eq!(g.resident_bytes(), 4 * (4 + 1) + 8 * 3);
/// assert!(g.is_connected());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("n", &self.vertex_count())
            .field("m", &self.edge_count())
            .finish()
    }
}

impl Csr {
    /// Adopts a finished adjacency structure: row `u` is
    /// `neighbors[offsets[u]..offsets[u + 1]]`. For generators that emit
    /// each vertex's neighbourhood already in ascending order (closed-form
    /// constructions such as `ER_q`), so no edge list is built or sorted.
    ///
    /// Everything [`GraphBuilder`] guarantees by construction is checked
    /// here instead, in one O(E) pass whose only allocation is a cursor
    /// per row: `offsets` starts at 0, never decreases and ends at
    /// `neighbors.len()`; every row is in range, strictly ascending (so
    /// sorted and duplicate-free) and free of self-loops; and the
    /// adjacency is symmetric. Symmetry uses one cursor per row: walking
    /// `u` upwards, the mirror of each entry `v > u` must be the next
    /// unconsumed entry of row `v`, and by the time row `u` is reached its
    /// entries below `u` must all have been consumed that way.
    ///
    /// # Panics
    /// On any violation, naming the offending row.
    pub fn from_sorted_rows(offsets: Vec<u32>, neighbors: Vec<u32>) -> Csr {
        assert!(
            u32::try_from(neighbors.len()).is_ok(),
            "{} adjacency entries overflow the u32 offsets",
            neighbors.len()
        );
        assert!(offsets.first() == Some(&0), "row 0 must start at offset 0");
        for (u, w) in offsets.windows(2).enumerate() {
            assert!(
                w[0] <= w[1],
                "row {u}: offsets decrease ({} > {})",
                w[0],
                w[1]
            );
        }
        let n = offsets.len() - 1;
        assert!(
            offsets[n] as usize == neighbors.len(),
            "row {}: offsets end at {} but there are {} adjacency entries",
            n.saturating_sub(1),
            offsets[n],
            neighbors.len()
        );
        // cursor[v]: the first entry of row v not yet matched as a mirror.
        let mut cursor = offsets[..n].to_vec();
        for u in 0..n as u32 {
            // Entries before the cursor each equal some u' < u (matched when
            // row u' was walked), so every remaining one must lie above u.
            let above = cursor[u as usize] as usize..offsets[u as usize + 1] as usize;
            let mut prev = None;
            for &v in &neighbors[above] {
                assert!((v as usize) < n, "row {u}: neighbour {v} out of range");
                assert!(v != u, "row {u}: self-loop");
                assert!(
                    prev < Some(v),
                    "row {u}: neighbour {v} breaks strictly ascending order"
                );
                assert!(v > u, "row {u}: neighbour {v} has no mirror in row {v}");
                prev = Some(v);
                let c = &mut cursor[v as usize];
                assert!(
                    *c < offsets[v as usize + 1] && neighbors[*c as usize] == u,
                    "row {v}: next neighbour is not {u}, though row {u} lists {v} \
                     (rows must be symmetric and ascending)"
                );
                *c += 1;
            }
        }
        Csr { offsets, neighbors }
    }

    /// Builds directly from an arbitrary edge list (deduplicated here).
    pub fn from_edges(n: usize, mut edges: Vec<(u32, u32)>) -> Csr {
        for e in &mut edges {
            *e = canonical(n, e.0, e.1);
        }
        GraphBuilder { n, edges }.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.vertex_count() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all vertices.
    pub fn min_degree(&self) -> usize {
        (0..self.vertex_count() as u32)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Whether `{u, v}` is an edge (binary search).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The canonical edges (`u < v`) in ascending order: each row's
    /// entries above its own vertex. Collect it for random access.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
        (0..self.vertex_count() as u32).flat_map(move |u| {
            let row = self.neighbors(u).iter();
            row.skip_while(move |&&v| v < u).map(move |&v| (u, v))
        })
    }

    /// Bytes the two arrays have allocated: 4 per offset and 4 per
    /// adjacency entry, so 4·(n + 1) + 8·E when built exactly.
    pub fn resident_bytes(&self) -> usize {
        (self.offsets.capacity() + self.neighbors.capacity()) * std::mem::size_of::<u32>()
    }

    /// A copy of the graph without the given edges (either orientation;
    /// duplicates, self-pairs, out-of-range ids and other pairs that are
    /// not edges are ignored), its rows filtered in order. Each removed
    /// edge marks its two adjacency slots, found by binary search in its
    /// endpoints' rows, so the cost is O(E + |removed| · log degree).
    pub fn without_edges(&self, removed: &[(u32, u32)]) -> Csr {
        let n = self.vertex_count();
        let mut keep = vec![true; self.neighbors.len()];
        for &(u, v) in removed {
            if (u as usize) < n && (v as usize) < n {
                let (row_u, row_v) = (self.neighbors(u), self.neighbors(v));
                if let (Ok(i), Ok(j)) = (row_u.binary_search(&v), row_v.binary_search(&u)) {
                    keep[self.offsets[u as usize] as usize + i] = false;
                    keep[self.offsets[v as usize] as usize + j] = false;
                }
            }
        }
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut neighbors = Vec::with_capacity(self.neighbors.len());
        offsets.push(0);
        for row in self.offsets.windows(2) {
            let slots = row[0] as usize..row[1] as usize;
            let kept = self.neighbors[slots.clone()].iter().zip(&keep[slots]);
            neighbors.extend(kept.filter(|&(_, &k)| k).map(|(&v, _)| v));
            offsets.push(neighbors.len() as u32);
        }
        neighbors.shrink_to_fit();
        Csr { offsets, neighbors }
    }

    /// Whether the graph is connected (BFS from vertex 0).
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            for &w in self.neighbors(u) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    visited += 1;
                    queue.push_back(w);
                }
            }
        }
        visited == n
    }

    /// Whether the graph is `k`-regular.
    pub fn is_regular(&self, k: usize) -> bool {
        (0..self.vertex_count() as u32).all(|v| self.degree(v) == k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build()
    }

    #[test]
    fn builds_cycle() {
        let g = cycle(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.is_regular(2));
        assert!(g.is_connected());
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn deduplicates_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    fn edge_removal() {
        let g = cycle(6);
        let g2 = g.without_edges(&[(1, 0)]); // non-canonical order accepted
        assert_eq!(g2.edge_count(), 5);
        assert!(!g2.has_edge(0, 1));
        assert!(g2.is_connected()); // a 6-path is still connected
        let g3 = g2.without_edges(&[(2, 3)]);
        assert_eq!(g3.edge_count(), 4);
        assert!(!g3.is_connected());
    }

    fn clique(n: u32) -> Csr {
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn complete_graph_properties() {
        let g = clique(8);
        assert_eq!(g.edge_count(), 28);
        assert!(g.is_regular(7));
        assert_eq!(g.max_degree(), 7);
        assert_eq!(g.min_degree(), 7);
    }

    #[test]
    fn sorted_rows_round_trip_builder_graphs() {
        // Two triangles joined by a bridge, plus an isolated vertex.
        let dumbbell = Csr::from_edges(
            7,
            vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
        );
        let petersen = Csr::from_edges(
            10,
            (0..5)
                .flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)])
                .collect(),
        );
        assert!(petersen.is_regular(3));
        let empty = GraphBuilder::new(0).build();
        for g in [cycle(9), clique(6), dumbbell, petersen, empty] {
            let back = Csr::from_sorted_rows(g.offsets.clone(), g.neighbors.clone());
            assert!(back.edges().eq(g.edges()));
            assert_eq!(back, g);
        }
    }

    /// Checks `edges()` against the canonical pairs found by asking
    /// `has_edge` of every `u < v` (a walk that shares nothing with the row
    /// scan), `edge_count()` against their number, and the footprint
    /// against the two exact arrays.
    fn assert_edges_are_the_canonical_pairs(g: &Csr) {
        let n = g.vertex_count() as u32;
        let pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|&(u, v)| g.has_edge(u, v))
            .collect();
        assert!(g.edges().eq(pairs.iter().copied()), "{g:?}");
        assert_eq!(g.edge_count(), pairs.len());
        assert_eq!(g.resident_bytes(), 4 * (n as usize + 1) + 8 * pairs.len());
    }

    #[test]
    fn edges_are_the_canonical_pairs_of_random_graphs_and_residuals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let n = rng.gen_range(1..40u32);
            let p = f64::from(rng.gen_range(0..101u32)) / 100.0;
            let mut b = GraphBuilder::new(n as usize);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(p) {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            assert_edges_are_the_canonical_pairs(&g);
            // Remove about a third of the edges, in either orientation,
            // plus a pair that may not be an edge at all.
            let mut removed = Vec::new();
            for (u, v) in g.edges() {
                if rng.gen_bool(0.3) {
                    removed.push(if rng.gen_bool(0.5) { (v, u) } else { (u, v) });
                }
            }
            let gone = removed.len();
            let stray = (0, n - 1);
            if n > 1 && !g.has_edge(stray.0, stray.1) {
                removed.push(stray);
            }
            // Pairs that remove nothing more: about half the removed edges
            // again, in either orientation; self-pairs; ids past the last
            // vertex.
            let again: Vec<(u32, u32)> = removed[..gone]
                .iter()
                .filter_map(|&(u, v)| match rng.gen_range(0..4) {
                    0 => Some((u, v)),
                    1 => Some((v, u)),
                    _ => None,
                })
                .collect();
            removed.extend(again);
            let v = rng.gen_range(0..n);
            removed.extend([(v, v), (n - 1, n - 1), (v, n), (n + 3, v), (u32::MAX, 0)]);
            let r = g.without_edges(&removed);
            assert_edges_are_the_canonical_pairs(&r);
            assert_eq!(r.edge_count(), g.edge_count() - gone);
            let kept = g
                .edges()
                .filter(|&(u, v)| !removed.contains(&(u, v)) && !removed.contains(&(v, u)));
            assert_eq!(r, Csr::from_edges(n as usize, kept.collect()));
        }
    }

    /// The path 0 – 1 – 2 – 3 as rows, for the rejection tests to corrupt.
    fn path_rows() -> (Vec<u32>, Vec<u32>) {
        (vec![0, 1, 3, 5, 6], vec![1, 0, 2, 1, 3, 2])
    }

    #[test]
    fn sorted_rows_accepts_the_uncorrupted_path() {
        let (offsets, neighbors) = path_rows();
        let g = Csr::from_sorted_rows(offsets, neighbors);
        assert!(g.edges().eq([(0, 1), (1, 2), (2, 3)]));
    }

    #[test]
    #[should_panic(expected = "row 3: next neighbour is not 0, though row 0 lists 3")]
    fn sorted_rows_reject_an_entry_without_its_mirror() {
        // 0 lists 3, 3 does not list 0.
        Csr::from_sorted_rows(vec![0, 2, 4, 6, 7], vec![1, 3, 0, 2, 1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "row 3: neighbour 2 has no mirror in row 2")]
    fn sorted_rows_reject_an_unmirrored_entry_below_the_diagonal() {
        // The path 0 – 1 – 2, and 3 lists 2 unanswered.
        Csr::from_sorted_rows(vec![0, 1, 3, 4, 5], vec![1, 0, 2, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "row 1: next neighbour is not 0, though row 0 lists 1")]
    fn sorted_rows_reject_a_row_unsorted_below_the_diagonal() {
        let (offsets, mut neighbors) = path_rows();
        neighbors.swap(1, 2); // row 1 becomes [2, 0]
        Csr::from_sorted_rows(offsets, neighbors);
    }

    #[test]
    #[should_panic(expected = "row 0: neighbour 1 breaks strictly ascending order")]
    fn sorted_rows_reject_a_row_unsorted_above_the_diagonal() {
        // A triangle whose row 0 reads [2, 1].
        Csr::from_sorted_rows(vec![0, 2, 4, 6], vec![2, 1, 0, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "row 0: neighbour 1 breaks strictly ascending order")]
    fn sorted_rows_reject_a_duplicate_entry() {
        Csr::from_sorted_rows(vec![0, 2, 4], vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "row 1: self-loop")]
    fn sorted_rows_reject_a_self_loop() {
        Csr::from_sorted_rows(vec![0, 1, 3], vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "row 2: neighbour 4 out of range")]
    fn sorted_rows_reject_an_out_of_range_vertex() {
        let (offsets, mut neighbors) = path_rows();
        neighbors[4] = 4; // row 2 becomes [1, 4]
        Csr::from_sorted_rows(offsets, neighbors);
    }

    #[test]
    #[should_panic(expected = "row 1: offsets decrease (3 > 2)")]
    fn sorted_rows_reject_decreasing_offsets() {
        let (_, neighbors) = path_rows();
        Csr::from_sorted_rows(vec![0, 3, 2, 5, 6], neighbors);
    }

    #[test]
    #[should_panic(expected = "row 3: offsets end at 5 but there are 6 adjacency entries")]
    fn sorted_rows_reject_offsets_of_the_wrong_length() {
        let (_, neighbors) = path_rows();
        Csr::from_sorted_rows(vec![0, 1, 3, 5, 5], neighbors);
    }

    #[test]
    #[should_panic(expected = "row 0 must start at offset 0")]
    fn sorted_rows_reject_a_nonzero_first_offset() {
        let (mut offsets, neighbors) = path_rows();
        offsets[0] = 1;
        Csr::from_sorted_rows(offsets, neighbors);
    }
}
