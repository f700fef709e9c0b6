//! Breadth-first search, distance histograms, diameter, and average
//! shortest path length.
//!
//! The interconnect graphs in this workspace are small (≤ ~20 000 vertices)
//! and unweighted. All-pairs work runs on one level-synchronous,
//! word-parallel kernel ([`for_each_level`]): 64 sources share a `u64`
//! frontier word per vertex, a level is
//! `next[v] = (OR of frontier[u] over N(v)) & !seen[v]`, and a per-level
//! sink either scatters `u8` distances into 64 rows at a time
//! ([`for_each_row_batch`]) or only popcounts them
//! ([`DistanceHistogram::build`]). Batches of 64 sources are the unit of
//! the Rayon fan-out. [`bfs_distances`] is the scalar single-source entry
//! point and the oracle the kernel is tested against.
//!
//! No N² distance matrix is kept: diameter, ASPL and connectivity all
//! follow from the histogram, and a consumer of rows reads them one
//! 64-row block at a time.
//!
//! Distances are stored as `u8` with `UNREACHABLE = 255`, so the largest
//! representable finite distance is [`MAX_DISTANCE`] = 254 hops; both BFS
//! paths panic with a message naming that ceiling instead of wrapping.

use crate::csr::Csr;
use rayon::prelude::*;
use std::collections::VecDeque;

/// Sentinel distance for unreachable vertex pairs.
pub const UNREACHABLE: u8 = u8::MAX;

/// Largest finite distance a `u8` entry can hold.
pub const MAX_DISTANCE: u8 = UNREACHABLE - 1;

/// Sources per kernel batch: one bit of a frontier word each.
pub const LANES: usize = u64::BITS as usize;

/// Panics when a BFS is about to label a vertex beyond [`MAX_DISTANCE`].
#[inline]
fn assert_within_ceiling(level: u8) {
    assert!(
        level < MAX_DISTANCE,
        "finite distance exceeds the 254-hop ceiling of u8 distance entries"
    );
}

/// Single-source BFS distances (`UNREACHABLE` where not reachable).
/// Panics if a finite distance would exceed [`MAX_DISTANCE`].
pub fn bfs_distances(g: &Csr, src: u32) -> Vec<u8> {
    let n = g.vertex_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::with_capacity(n);
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                assert_within_ceiling(du);
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The word-parallel kernel: one level-synchronous BFS from the sources
/// `first .. first + lanes` (`1 ≤ lanes ≤` [`LANES`]) at once. Calls
/// `sink(level, words)` once per non-empty level, starting at level 0,
/// so the last call's `level` is the deepest distance any lane reaches;
/// bit `b` of `words[v]` is set iff `dist(first + b, v) == level`. Each
/// level costs one word OR per directed edge, i.e. O(E · n / 64) word
/// operations per level over a whole all-pairs run.
///
/// # Panics
/// If the lanes are empty, wider than [`LANES`] or past the last vertex,
/// or if a finite distance would exceed [`MAX_DISTANCE`].
pub fn for_each_level(g: &Csr, first: usize, lanes: usize, mut sink: impl FnMut(u8, &[u64])) {
    let n = g.vertex_count();
    assert!(
        (1..=LANES).contains(&lanes) && first + lanes <= n,
        "BFS lanes {first}..{} outside 1..={LANES} sources of {n} vertices",
        first + lanes
    );
    let full = u64::MAX >> (LANES - lanes);
    let mut frontier = vec![0u64; n];
    for (b, word) in frontier[first..first + lanes].iter_mut().enumerate() {
        *word = 1 << b;
    }
    let mut seen = frontier.clone();
    let mut next = vec![0u64; n];
    let mut level = 0u8;
    loop {
        sink(level, &frontier);
        let mut any = 0u64;
        for (v, (next_v, seen_v)) in next.iter_mut().zip(&mut seen).enumerate() {
            // A vertex every lane has reached can gain nothing more.
            *next_v = if *seen_v == full {
                0
            } else {
                g.neighbors(v as u32)
                    .iter()
                    .fold(0, |acc, &u| acc | frontier[u as usize])
                    & !*seen_v
            };
            *seen_v |= *next_v;
            any |= *next_v;
        }
        if any == 0 {
            return;
        }
        assert_within_ceiling(level);
        level += 1;
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// Source batches of an `n`-vertex graph: `(first, lanes)` pairs.
fn batches(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(LANES)
        .map(move |first| (first, LANES.min(n - first)))
}

/// Streams the all-pairs distances 64 source rows at a time, in ascending
/// source order: `visit(first, rows)` sees the rows of the sources
/// `first ..` as one `lanes × n` row-major block. For consumers that read
/// each row once and do not want all N² distances resident.
pub fn for_each_row_batch(g: &Csr, mut visit: impl FnMut(u32, &[u8])) {
    let n = g.vertex_count();
    let mut rows = vec![UNREACHABLE; LANES.min(n) * n];
    for (first, lanes) in batches(n) {
        let rows = &mut rows[..lanes * n];
        rows.fill(UNREACHABLE);
        // The scatter sink: one store per set bit.
        for_each_level(g, first, lanes, |level, words| {
            for (v, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    rows[bits.trailing_zeros() as usize * n + v] = level;
                    bits &= bits - 1;
                }
            }
        });
        visit(first as u32, rows);
    }
}

/// Distance histogram of a graph — the kernel's popcount sink. Diameter,
/// ASPL and connectivity all follow from it, without an N² matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceHistogram {
    n: usize,
    counts: Vec<u64>,
}

impl DistanceHistogram {
    /// Counts the ordered pairs `u ≠ v` at each finite distance, parallel
    /// over batches of 64 sources. Panics if a finite distance would
    /// exceed [`MAX_DISTANCE`].
    pub fn build(g: &Csr) -> DistanceHistogram {
        let n = g.vertex_count();
        let per_batch = batches(n)
            .into_par_iter()
            .map(|(first, lanes)| {
                let mut counts = Vec::new();
                for_each_level(g, first, lanes, |_, words| {
                    counts.push(words.iter().map(|w| u64::from(w.count_ones())).sum());
                });
                counts
            })
            .collect::<Vec<Vec<u64>>>();
        // `per_batch[b][d]`: pairs at distance `d` from batch `b`'s
        // sources, level 0 included.
        let mut counts = Vec::new();
        for batch in per_batch {
            if counts.len() < batch.len() {
                counts.resize(batch.len(), 0);
            }
            for (total, pairs) in counts.iter_mut().zip(batch) {
                *total += pairs;
            }
        }
        // Level 0 is the `u = v` diagonal, not a pair; without it a graph
        // with no edges has no entries at all.
        if let Some(diagonal) = counts.first_mut() {
            *diagonal = 0;
        }
        if counts.len() == 1 {
            counts.clear();
        }
        DistanceHistogram { n, counts }
    }

    /// Number of vertices of the graph counted.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// `counts()[d]` = ordered pairs `u ≠ v` at distance `d` (entry 0 is
    /// 0, the last entry is non-zero, unreachable pairs are not counted).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `true` iff every pair is reachable.
    pub fn connected(&self) -> bool {
        let n = self.n as u64;
        self.counts.iter().sum::<u64>() == n * n.saturating_sub(1)
    }

    /// Graph diameter, or `None` if disconnected.
    pub fn diameter(&self) -> Option<u32> {
        self.connected().then(|| self.diameter_reachable())
    }

    /// Diameter over reachable pairs only (the "observed" diameter reported
    /// for partially failed networks before disconnection is detected).
    pub fn diameter_reachable(&self) -> u32 {
        self.counts.len().saturating_sub(1) as u32
    }

    /// Average shortest path length over ordered reachable pairs `u ≠ v`
    /// (0 when there are none).
    pub fn average_shortest_path(&self) -> f64 {
        let pairs: u64 = self.counts.iter().sum();
        let hops: u64 = self.counts.iter().zip(0u64..).map(|(&c, d)| c * d).sum();
        if pairs == 0 {
            0.0
        } else {
            hops as f64 / pairs as f64
        }
    }
}

/// The name `benchmark/src/workloads.rs` builds its diameter and ASPL
/// from (`build`, `diameter`, `average_shortest_path`, `vertex_count`):
/// the histogram answers all four, so no matrix is built behind it.
#[doc(hidden)]
pub type DistanceMatrix = DistanceHistogram;

/// Convenience: diameter of `g`, `None` if disconnected.
pub fn diameter(g: &Csr) -> Option<u32> {
    DistanceHistogram::build(g).diameter()
}

/// Convenience: average shortest path length of `g` over reachable pairs.
pub fn average_shortest_path(g: &Csr) -> f64 {
    DistanceHistogram::build(g).average_shortest_path()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn path(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 - 1 {
            b.add_edge(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn path_metrics() {
        let g = path(4);
        let h = DistanceHistogram::build(&g);
        assert_eq!(h.diameter(), Some(3));
        // ordered pairs: distances 1,2,3,1,1,2,2,1,1,3,2,1 → sum 20 / 12
        assert!((h.average_shortest_path() - 20.0 / 12.0).abs() < 1e-12);
        assert_eq!(h.counts(), [0, 6, 4, 2]);
    }

    #[test]
    fn disconnected_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let h = DistanceHistogram::build(&g);
        assert_eq!(h.diameter(), None);
        assert!(!h.connected());
        assert_eq!(h.diameter_reachable(), 1);
        assert_eq!(bfs_distances(&g, 0)[2], UNREACHABLE);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let n = 6u32;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        let h = DistanceHistogram::build(&b.build());
        assert_eq!(h.diameter(), Some(1));
        assert!((h.average_shortest_path() - 1.0).abs() < 1e-12);
    }

    /// Every row the scatter sink streams, concatenated in source order
    /// (row-major, `n × n`).
    fn streamed_rows(g: &Csr) -> Vec<u8> {
        let n = g.vertex_count();
        let mut rows = Vec::with_capacity(n * n);
        for_each_row_batch(g, |first, batch| {
            assert_eq!(first as usize * n, rows.len(), "batches out of order");
            rows.extend_from_slice(batch);
        });
        rows
    }

    #[test]
    fn distance_matrix_rows_match_single_source() {
        let g = path(6);
        let rows = streamed_rows(&g);
        for s in 0..6usize {
            assert_eq!(&rows[s * 6..][..6], bfs_distances(&g, s as u32).as_slice());
        }
        // The summary `benchmark/src/workloads.rs` reads through the
        // `DistanceMatrix` name.
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.vertex_count(), 6);
        assert_eq!(m.diameter(), Some(5));
        assert!((m.average_shortest_path() - 70.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_sums_to_ordered_pairs() {
        let g = path(5);
        let hist = DistanceHistogram::build(&g);
        let total: u64 = hist.counts().iter().sum();
        assert_eq!(total, 5 * 4); // all ordered pairs reachable
        assert_eq!(hist.counts()[0], 0);
    }

    /// `n` vertices, `m` seeded random edge draws (duplicates collapse),
    /// the last `isolated` vertices left without edges.
    fn random_graph(n: usize, m: usize, isolated: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let live = n.saturating_sub(isolated) as u32;
        let mut b = GraphBuilder::new(n);
        for _ in 0..if live >= 2 { m } else { 0 } {
            let (u, v) = (rng.gen_range(0..live), rng.gen_range(0..live));
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// The kernel's two sinks against the scalar oracle: the scattered
    /// rows equal `bfs_distances` row for row, and the popcounted
    /// histogram equals the count of their off-diagonal finite entries.
    fn assert_kernel_matches_oracle(g: &Csr, label: &str) {
        let n = g.vertex_count();
        let rows = streamed_rows(g);
        assert_eq!(rows.len(), n * n, "{label}");
        for s in 0..n {
            assert_eq!(
                &rows[s * n..][..n],
                bfs_distances(g, s as u32).as_slice(),
                "{label} row {s}"
            );
        }
        let hist = DistanceHistogram::build(g);
        assert_eq!(hist.vertex_count(), n, "{label}");
        let mut entries = vec![0u64; usize::from(UNREACHABLE)];
        for (i, &d) in rows.iter().enumerate() {
            if d != UNREACHABLE && i % (n + 1) != 0 {
                entries[usize::from(d)] += 1;
            }
        }
        let counts = hist.counts();
        assert_eq!(&entries[..counts.len()], counts, "{label}");
        assert!(entries[counts.len()..].iter().all(|&c| c == 0), "{label}");
    }

    #[test]
    fn kernel_matches_oracle_on_random_graphs() {
        // Sizes straddle the 64-lane batch boundary; edge budgets run from
        // shattered (many components) to dense.
        for (i, &n) in [0usize, 1, 2, 63, 64, 65, 130, 200].iter().enumerate() {
            for (j, m) in [0, n / 2, n, 3 * n].into_iter().enumerate() {
                for isolated in [0, n / 5] {
                    let seed = (i * 16 + j * 2) as u64 + u64::from(isolated > 0);
                    let g = random_graph(n, m, isolated, seed);
                    assert_kernel_matches_oracle(&g, &format!("n={n} m={m} iso={isolated}"));
                }
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_across_components() {
        // Two paths and a triangle, plus isolated vertices, spread over
        // two batches so lanes of one word sit in different components.
        let mut b = GraphBuilder::new(100);
        for i in 0..40u32 {
            b.add_edge(i, i + 1);
        }
        for i in 50..90u32 {
            b.add_edge(i, i + 1);
        }
        b.add_edge(95, 96);
        b.add_edge(96, 97);
        b.add_edge(95, 97);
        let g = b.build();
        assert_kernel_matches_oracle(&g, "components");
        let rows = streamed_rows(&g);
        assert_eq!(rows[40], 40);
        assert_eq!(rows[50], UNREACHABLE);
        assert_eq!(rows[99 * 100 + 99], 0);
        assert_eq!(rows[99 * 100 + 98], UNREACHABLE);
    }

    #[test]
    fn histogram_of_edgeless_graphs_is_empty() {
        for n in [0, 1, 70] {
            let g = GraphBuilder::new(n).build();
            assert!(DistanceHistogram::build(&g).counts().is_empty(), "n={n}");
            // The scatter sink stores nothing but the diagonal.
            let rows = streamed_rows(&g);
            let finite = rows.iter().filter(|&&d| d != UNREACHABLE).count();
            assert_eq!(finite, n, "n={n}");
        }
    }

    #[test]
    fn a_254_hop_path_is_the_largest_representable() {
        let g = path(255);
        assert_eq!(bfs_distances(&g, 0)[254], MAX_DISTANCE);
        assert_eq!(DistanceHistogram::build(&g).diameter(), Some(254));
        assert_eq!(streamed_rows(&g)[254 * 255], 254);
        assert_kernel_matches_oracle(&g, "path(255)");
    }

    #[test]
    #[should_panic(expected = "254-hop ceiling")]
    fn scalar_bfs_rejects_distances_past_the_ceiling() {
        bfs_distances(&path(300), 0);
    }

    #[test]
    #[should_panic(expected = "254-hop ceiling")]
    fn distance_matrix_rejects_distances_past_the_ceiling() {
        // The scatter sink hits the same ceiling.
        for_each_row_batch(&path(300), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "254-hop ceiling")]
    fn distance_histogram_rejects_distances_past_the_ceiling() {
        DistanceHistogram::build(&path(300));
    }

    #[test]
    fn petersen_diameter_two() {
        // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i—i+5.
        let mut b = GraphBuilder::new(10);
        for i in 0..5u32 {
            b.add_edge(i, (i + 1) % 5);
            b.add_edge(i + 5, (i + 2) % 5 + 5);
            b.add_edge(i, i + 5);
        }
        let g = b.build();
        assert!(g.is_regular(3));
        assert_eq!(diameter(&g), Some(2));
    }
}
