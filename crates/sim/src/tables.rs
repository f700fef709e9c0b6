//! Routing tables: a deterministic minimal next-hop table with seeded
//! random tie-breaking (as BookSim's table-based routing does, avoiding
//! the systematic hotspots a lowest-id tie-break would create on
//! topologies with equal-cost path multiplicity).
//!
//! The table is filled `STRIPE` = 64 destinations at a time, one batch
//! of the word-parallel kernel [`bfs::for_each_level`]: distances are
//! symmetric, so a BFS *from* the stripe's destinations yields every
//! vertex's distance *to* them, and each level's frontier words fold
//! straight into per-vertex distance-residue bitsets. Next hops are picked
//! source-major from those bitsets, with one RNG stream per destination so
//! the tie-breaks do not depend on how the work is split. No distance
//! matrix is ever built.
//!
//! A next hop is stored as one byte — its position in the source's
//! neighbor list — so the tables cost n² bytes plus the O(E) adjacency
//! that turns the position back into a router id
//! ([`RouteTables::resident_bytes`]).
//!
//! Distances are walked, not stored: [`RouteTables::dist`] follows next
//! hops from `s` until it reaches `d`. That is exact because every table
//! hop is minimal — `dist(next_hop(s, d), d) == dist(s, d) − 1`, so
//! minimal next hops strictly decrease the distance — hence the walk
//! takes exactly `dist(s, d)` steps, never more than the largest finite
//! distance, and an unreachable pair stops at its first (absent) hop.
//!
//! Fault awareness: [`RouteTables::build_for`] builds the tables on the
//! *residual* graph of the topology's cycle-0 fault state
//! ([`initial_failures`]), so every table next hop (and every UGAL
//! distance term) already routes around the links down at the start.

use pf_graph::{bfs, Csr, FailureSet};
use pf_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Destinations per work item of [`RouteTables::build`], the unit of the
/// Rayon fan-out: one batch of the BFS kernel, whose 64 lanes are the
/// stripe's destinations. The table does not depend on it.
const STRIPE: usize = bfs::LANES;

/// The links down when a run of `topo` starts: its fault schedule's
/// state at cycle 0 (`active_at(graph, 0)`), empty on a healthy
/// topology. The one source of the cycle-0 state — the engine's link
/// masks, [`RouteTables::build_for`] and traffic resolution all read it.
pub fn initial_failures(topo: &Topology) -> FailureSet {
    topo.faults().active_at(topo.graph(), 0)
}

/// Largest router degree the byte-wide next-hop table can index;
/// [`RouteTables::build`] panics above it.
pub const MAX_DEGREE: usize = 254;

/// Next-hop entry of a pair with no hop to take (`s == d` or `d`
/// unreachable): [`RouteTables::next_hop`] answers `s`.
const STAY: u8 = u8::MAX;

/// Dense minimal next-hop table for one topology; distances are walked
/// along it.
#[derive(Clone)]
pub struct RouteTables {
    /// The graph the tables were built on: `next` indexes its neighbor
    /// lists.
    graph: Csr,
    /// `next[s·N + d]`: position in `graph.neighbors(s)` of the hop
    /// toward `d`, or [`STAY`].
    next: Vec<u8>,
    /// The deepest BFS level any stripe reached: the largest finite
    /// distance.
    max_dist: u8,
}

impl RouteTables {
    /// Builds the tables: the hop from `s` toward `d` is a minimal next
    /// hop chosen uniformly (seeded) among the equal-cost candidates
    /// (`s` itself when `d` is `s` or unreachable).
    ///
    /// Destination `d` owns one RNG stream seeded from `(seed, d)` that
    /// advances in `(s ascending, neighbor ascending)` candidate order, so
    /// the table is a function of `(g, seed)` alone — not of `STRIPE` or
    /// the thread count.
    ///
    /// # Panics
    /// If a router has more than [`MAX_DEGREE`] neighbors, or a finite
    /// distance exceeds [`bfs::MAX_DISTANCE`].
    pub fn build(g: &Csr, seed: u64) -> RouteTables {
        let n = g.vertex_count();
        assert!(
            g.max_degree() <= MAX_DEGREE,
            "router degree {} exceeds the {MAX_DEGREE}-neighbor ceiling of the byte-wide next-hop table",
            g.max_degree()
        );
        let mut next = vec![STAY; n * n];
        // Column stripes of the row-major table: stripe k borrows columns
        // `k·STRIPE ..` of every row, so workers write disjoint memory.
        let mut stripes: Vec<(usize, Vec<&mut [u8]>)> = (0..n)
            .step_by(STRIPE)
            .map(|d0| (d0, Vec::with_capacity(n)))
            .collect();
        for row in next.chunks_mut(n.max(1)) {
            for (stripe, piece) in stripes.iter_mut().zip(row.chunks_mut(STRIPE)) {
                stripe.1.push(piece);
            }
        }
        let max_dist = stripes
            .into_par_iter()
            .map(|(d0, rows)| fill_stripe(g, seed, d0, rows))
            .max_by_key(|&deepest| deepest)
            .unwrap_or(0);
        RouteTables {
            graph: g.clone(),
            next,
            max_dist,
        }
    }

    /// Builds the tables a `topo` run needs: on the full graph for healthy
    /// topologies, on the residual graph when links are down at cycle 0
    /// ([`initial_failures`]) — same router ids either way, so the
    /// engine's geometry is unaffected. [`RouteTables::graph`] returns
    /// the graph chosen.
    pub fn build_for(topo: &Topology, seed: u64) -> RouteTables {
        let failures = initial_failures(topo);
        if failures.is_empty() {
            RouteTables::build(topo.graph(), seed)
        } else {
            RouteTables::build(&failures.residual(topo.graph()), seed)
        }
    }

    /// The graph the tables were built on — the residual graph when
    /// [`RouteTables::build_for`] saw links down at cycle 0.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of routers.
    #[inline]
    pub fn router_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// The `next` entry of the pair `(s, d)`.
    #[inline]
    fn entry(&self, s: u32, d: u32) -> u8 {
        self.next[s as usize * self.router_count() + d as usize]
    }

    /// Hop distance from `s` to `d` (`bfs::UNREACHABLE` = 255 when `d`
    /// is unreachable), walked along the next hops in at most
    /// [`RouteTables::max_finite_dist`] steps.
    #[inline]
    pub fn dist(&self, s: u32, d: u32) -> u32 {
        self.dist_within(s, d, u32::from(self.max_dist))
            .unwrap_or(u32::from(bfs::UNREACHABLE))
    }

    /// `Some(dist(s, d))` when it is at most `limit`, `None` otherwise
    /// (unreachable pairs included) — a walk of at most `limit` next
    /// hops, so a caller that only needs "is it exactly `k`" stops after
    /// `k`.
    #[inline]
    pub(crate) fn dist_within(&self, s: u32, d: u32, limit: u32) -> Option<u32> {
        let mut at = s;
        let mut hops = 0;
        while at != d {
            if hops == limit {
                return None;
            }
            match self.entry(at, d) {
                STAY => return None,
                i => at = self.graph.neighbors(at)[usize::from(i)],
            }
            hops += 1;
        }
        Some(hops)
    }

    /// Largest finite table distance — the diameter of the (residual)
    /// graph the tables were built on, when it is connected.
    pub fn max_finite_dist(&self) -> u32 {
        u32::from(self.max_dist)
    }

    /// Whether `d` is reachable from `s` in the graph the tables were
    /// built on (always true on a connected residual; checked by the
    /// transient engine before routing toward a repaired router whose
    /// tables have not re-converged yet).
    #[inline]
    pub fn reachable(&self, s: u32, d: u32) -> bool {
        s == d || self.entry(s, d) != STAY
    }

    /// The table's minimal next hop from `s` toward `d` (`s` if `s == d`
    /// or `d` is unreachable).
    #[inline]
    pub fn next_hop(&self, s: u32, d: u32) -> u32 {
        match self.entry(s, d) {
            STAY => s,
            i => self.graph.neighbors(s)[usize::from(i)],
        }
    }

    /// Bytes the tables have allocated: the n² next-hop bytes plus the
    /// graph copy ([`Csr::resident_bytes`]). Diagnostic — pins that no
    /// distance matrix is kept.
    pub fn resident_bytes(&self) -> usize {
        self.next.capacity() + self.graph.resident_bytes()
    }
}

/// Destination `d`'s tie-break stream.
fn dest_rng(seed: u64, d: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fills the next-hop columns `d0 .. d0 + width` of every source row
/// (`rows[s]` is that window of row `s`, pre-filled with [`STAY`]) with
/// neighbor positions, and returns the deepest BFS level the stripe
/// reached — its largest finite distance. For each `s` and each neighbor
/// `w` in CSR order, the destinations `w` is a minimal next hop toward
/// are those with `dist(w, d) + 1 == dist(s, d)`.
///
/// One kernel batch from the stripe's destinations gives each vertex
/// three bitsets over the window: bit `i` of `res[v][r]` is set iff
/// `dist(v, d0 + i)` is finite and ≡ `r` (mod 3) — the level-`ℓ`
/// frontier word of `v` ORs into `res[v][ℓ mod 3]` (a BFS *from*
/// `d0 + i` measures the distance *to* it, by symmetry). Neighbors'
/// distances to any `d` differ by at most one, so among them "one less"
/// and "one less mod 3" are the same condition: the candidates of
/// `(s, w)` are the OR over `r` of `res[s][r] & res[w][r − 1]`, one word
/// at any diameter, and only set bits reach the reservoir draw.
/// Unreachable pairs are in no bitset.
fn fill_stripe(g: &Csr, seed: u64, d0: usize, rows: Vec<&mut [u8]>) -> u8 {
    let width = rows.first().map_or(0, |r| r.len());
    let mut rngs: Vec<StdRng> = (d0..d0 + width).map(|d| dest_rng(seed, d)).collect();
    // Reservoir sampling state: candidates seen so far per destination.
    let mut seen = vec![0u32; width];
    let mut res = vec![[0u64; 3]; rows.len()];
    let mut deepest = 0;
    bfs::for_each_level(g, d0, width, |level, words| {
        deepest = level;
        let r = usize::from(level % 3);
        for (sets, &word) in res.iter_mut().zip(words) {
            sets[r] |= word;
        }
    });
    for (s, out) in rows.into_iter().enumerate() {
        seen.fill(0);
        let of_s = res[s];
        for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
            let of_w = res[w as usize];
            let mut rest = (0..3).fold(0u64, |acc, r| acc | of_s[r] & of_w[(r + 2) % 3]);
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                seen[i] += 1;
                // Uniform among the candidates.
                if rngs[i].gen_range(0..seen[i]) == 0 {
                    out[i] = wi as u8;
                }
            }
        }
        debug_assert!(
            seen.iter().enumerate().all(|(i, &c)| {
                let reached = (of_s[0] | of_s[1] | of_s[2]) >> i & 1 != 0;
                (c == 0) == (s == d0 + i || !reached)
            }),
            "no minimal next hop found"
        );
    }
    deepest
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::{DistanceHistogram, FailureSet, GraphBuilder};
    use polarfly::PolarFly;

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build()
    }

    /// `n` vertices, `m` seeded random edge draws (duplicates collapse),
    /// the last `isolated` vertices left without edges — the BFS
    /// kernel's test corpus.
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

    /// All-pairs distances, row-major, from the scalar single-source BFS
    /// (no code shared with the word-parallel kernel).
    fn scalar_distances(g: &Csr) -> Vec<u8> {
        (0..g.vertex_count() as u32)
            .flat_map(|s| bfs::bfs_distances(g, s))
            .collect()
    }

    /// The fill [`fill_stripe`] replaced, kept as its oracle: a byte-wise
    /// compare of the two distance rows of every `(s, neighbor)` of the
    /// row-major matrix `dist` (unreachable pairs wrap to 0 ≠ 255 and
    /// never match), one stripe over every destination.
    fn fill_bytes(g: &Csr, dist: &[u8], seed: u64) -> Vec<u8> {
        let n = g.vertex_count();
        let mut next = vec![STAY; n * n];
        let mut rngs: Vec<StdRng> = (0..n).map(|d| dest_rng(seed, d)).collect();
        let mut seen = vec![0u32; n];
        for (s, out) in next.chunks_mut(n.max(1)).enumerate() {
            seen.fill(0);
            let from_s = &dist[s * n..][..n];
            for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
                let from_w = &dist[w as usize * n..][..n];
                for (i, (&dw, &ds)) in from_w.iter().zip(from_s).enumerate() {
                    if dw.wrapping_add(1) == ds {
                        seen[i] += 1;
                        if rngs[i].gen_range(0..seen[i]) == 0 {
                            out[i] = wi as u8;
                        }
                    }
                }
            }
        }
        next
    }

    /// Every output of [`RouteTables::build`] against an oracle: `next`
    /// against the byte-compare fill, `dist` and `reachable` against the
    /// scalar BFS, `max_finite_dist` against the distance histogram.
    fn assert_matches_oracles(g: &Csr, seed: u64, what: &str) {
        let n = g.vertex_count();
        let t = RouteTables::build(g, seed);
        let dist = scalar_distances(g);
        assert!(
            t.next == fill_bytes(g, &dist, seed),
            "{what}, seed {seed}: next-hop table differs"
        );
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let want = dist[s as usize * n + d as usize];
                assert_eq!(t.dist(s, d), u32::from(want), "{what}: dist({s}, {d})");
                assert_eq!(
                    t.reachable(s, d),
                    want != bfs::UNREACHABLE,
                    "{what}: reachable({s}, {d})"
                );
            }
        }
        assert_eq!(
            t.max_finite_dist(),
            DistanceHistogram::build(g).diameter_reachable(),
            "{what}: max_finite_dist"
        );
    }

    #[test]
    fn build_matches_oracles_on_random_graphs() {
        // Sizes straddle the 64-destination stripe; edge budgets run from
        // shattered (many components, isolated vertices) to dense.
        for (i, &n) in [0usize, 1, 2, 63, 64, 65, 130, 200].iter().enumerate() {
            for (j, m) in [0, n / 2, n, 3 * n].into_iter().enumerate() {
                for isolated in [0, n / 5] {
                    let seed = (i * 16 + j * 2) as u64 + u64::from(isolated > 0);
                    let g = random_graph(n, m, isolated, seed);
                    assert_matches_oracles(&g, seed, &format!("n={n} m={m} iso={isolated}"));
                }
            }
        }
    }

    #[test]
    fn residue_fill_equals_byte_compare_fill() {
        // Rings: diameter ≫ 2, so distances run through every residue many
        // times over and (on the even rings) antipodal pairs tie; 300 spans
        // five stripes.
        for n in [9usize, 64, 101, 300] {
            for seed in [1u64, 42] {
                assert_matches_oracles(&ring(n), seed, &format!("ring({n})"));
            }
        }
        // Two components: unreachable pairs stay STAY.
        let mut b = GraphBuilder::new(20);
        for i in 0..12u32 {
            b.add_edge(i, (i + 1) % 12);
        }
        for i in 12..19u32 {
            b.add_edge(i, i + 1);
        }
        assert_matches_oracles(&b.build(), 5, "ring(12) + path(8)");
        // ER_7 with 30 % of its links failed: irregular degrees, ties.
        let pf = PolarFly::new(7).unwrap();
        let residual = FailureSet::sample(pf.graph(), 0.30, 3).residual(pf.graph());
        for seed in [1u64, 7] {
            assert_matches_oracles(&residual, seed, "ER_7 -30%");
        }
        // The widest star the byte-wide table admits.
        let mut b = GraphBuilder::new(MAX_DEGREE + 1);
        for leaf in 1..=MAX_DEGREE as u32 {
            b.add_edge(0, leaf);
        }
        assert_matches_oracles(&b.build(), 1, "star");
    }

    #[test]
    fn next_hop_decreases_distance() {
        let g = ring(9);
        let t = RouteTables::build(&g, 1);
        for s in 0..9u32 {
            let from_s = bfs::bfs_distances(&g, s);
            for d in 0..9u32 {
                if s == d {
                    assert_eq!(t.next_hop(s, d), s);
                    continue;
                }
                let nh = t.next_hop(s, d);
                assert!(g.has_edge(s, nh));
                assert_eq!(
                    bfs::bfs_distances(&g, nh)[d as usize],
                    from_s[d as usize] - 1
                );
            }
        }
    }

    #[test]
    fn dist_within_stops_at_its_limit() {
        let t = RouteTables::build(&ring(9), 1);
        // dist(0, 4) = 4 on the 9-ring.
        assert_eq!(t.dist_within(0, 4, 4), Some(4));
        assert_eq!(t.dist_within(0, 4, 3), None);
        assert_eq!(t.dist_within(0, 4, 9), Some(4));
        assert_eq!(t.dist_within(3, 3, 0), Some(0));
    }

    /// The next-hop bytes and the graph copy are all the tables hold: on
    /// ER_31, n² = 986 049 bytes plus the CSR's 994 offsets, 31 744
    /// adjacency entries and 15 872 edges.
    #[test]
    fn tables_hold_n_squared_bytes_plus_the_graph() {
        let pf = PolarFly::new(31).unwrap();
        let t = RouteTables::build(pf.graph(), 1);
        let (n, e) = (993usize, 15_872usize);
        assert_eq!(pf.graph().edge_count(), e);
        let csr = 4 * (n + 1) + 4 * 2 * e + 8 * e;
        assert_eq!(t.resident_bytes(), n * n + csr);
        assert_eq!(t.resident_bytes(), 1_243_977);
    }

    #[test]
    #[should_panic(expected = "254-neighbor ceiling")]
    fn degree_above_the_byte_index_is_refused() {
        let mut b = GraphBuilder::new(MAX_DEGREE + 2);
        for leaf in 1..=MAX_DEGREE as u32 + 1 {
            b.add_edge(0, leaf);
        }
        RouteTables::build(&b.build(), 1);
    }

    #[test]
    fn widest_star_routes_through_its_hub() {
        let mut b = GraphBuilder::new(MAX_DEGREE + 1);
        for leaf in 1..=MAX_DEGREE as u32 {
            b.add_edge(0, leaf);
        }
        let t = RouteTables::build(&b.build(), 1);
        assert_eq!(t.next_hop(0, MAX_DEGREE as u32), MAX_DEGREE as u32);
        assert_eq!(t.next_hop(MAX_DEGREE as u32, 1), 0);
        assert_eq!(t.next_hop(7, 7), 7);
    }

    #[test]
    fn tie_break_is_seed_deterministic() {
        let g = ring(8);
        let a = RouteTables::build(&g, 42);
        let b = RouteTables::build(&g, 42);
        for s in 0..8u32 {
            for d in 0..8u32 {
                assert_eq!(a.next_hop(s, d), b.next_hop(s, d));
            }
        }
    }
}
