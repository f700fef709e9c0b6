//! Routing tables: all-pairs distances plus a deterministic minimal
//! next-hop table with seeded random tie-breaking (as BookSim's table-based
//! routing does, avoiding the systematic hotspots a lowest-id tie-break
//! would create on topologies with equal-cost path multiplicity).
//!
//! Distances come from [`DistanceMatrix::build`] (the word-parallel
//! all-pairs kernel of `pf_graph::bfs`); next hops are picked
//! source-major from per-vertex distance-residue bitsets, with one RNG
//! stream per destination so the tie-breaks do not depend on how the work
//! is split.
//! A next hop is stored as one byte — its position in the source's
//! neighbor list — so the tables cost 2·n² bytes (distance + hop) plus
//! the O(E) adjacency that turns the position back into a router id.
//!
//! Fault awareness: [`RouteTables::build_for`] builds the tables on the
//! *residual* graph of the topology's cycle-0 fault state
//! ([`initial_failures`]), so every table next hop (and every UGAL
//! distance term) already routes around the links down at the start.

use pf_graph::{bfs, Csr, DistanceMatrix, FailureSet};
use pf_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Destinations per work item of [`RouteTables::build`], the unit of the
/// Rayon fan-out: narrow enough that the 993-router tables still split
/// four ways, wide enough that the per-window set-up is noise (one stripe
/// over all of ER_47 is < 10 % faster).
const STRIPE: usize = 256;

/// The links down when a run of `topo` starts: its fault schedule's
/// state at cycle 0 (`active_at(graph, 0)`), empty on a healthy
/// topology. The one source of the cycle-0 state — the engine's link
/// masks, [`RouteTables::build_for`] and traffic resolution all read it.
pub fn initial_failures(topo: &dyn Topology) -> FailureSet {
    topo.fault_schedule()
        .map(|s| s.active_at(topo.graph(), 0))
        .unwrap_or_default()
}

/// The graph routing for `topo` must be computed on: `Some(residual)`
/// when links are down at cycle 0, `None` (use the full graph)
/// otherwise.
pub fn routing_graph(topo: &dyn Topology) -> Option<Csr> {
    let failures = initial_failures(topo);
    (!failures.is_empty()).then(|| failures.residual(topo.graph()))
}

/// Largest router degree the byte-wide next-hop table can index;
/// [`RouteTables::build`] panics above it.
pub const MAX_DEGREE: usize = 254;

/// Next-hop entry of a pair with no hop to take (`s == d` or `d`
/// unreachable): [`RouteTables::next_hop`] answers `s`.
const STAY: u8 = u8::MAX;

/// Dense distance + next-hop tables for one topology.
#[derive(Clone)]
pub struct RouteTables {
    dist: DistanceMatrix,
    /// The graph the tables were built on: `next` indexes its neighbor
    /// lists.
    graph: Csr,
    /// `next[s·N + d]`: position in `graph.neighbors(s)` of the hop
    /// toward `d`, or [`STAY`].
    next: Vec<u8>,
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
    /// If a router has more than [`MAX_DEGREE`] neighbors.
    pub fn build(g: &Csr, seed: u64) -> RouteTables {
        let n = g.vertex_count();
        assert!(
            g.max_degree() <= MAX_DEGREE,
            "router degree {} exceeds the {MAX_DEGREE}-neighbor ceiling of the byte-wide next-hop table",
            g.max_degree()
        );
        let dist = DistanceMatrix::build(g);
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
        stripes
            .into_par_iter()
            .for_each(|(d0, rows)| fill_stripe(g, &dist, seed, d0, rows));
        RouteTables {
            dist,
            graph: g.clone(),
            next,
        }
    }

    /// Builds the tables a `topo` run needs: on the full graph for healthy
    /// topologies, on the residual graph when links are down at cycle 0
    /// ([`routing_graph`]) — same router ids either way, so the engine's
    /// geometry is unaffected.
    pub fn build_for(topo: &dyn Topology, seed: u64) -> RouteTables {
        match routing_graph(topo) {
            Some(residual) => RouteTables::build(&residual, seed),
            None => RouteTables::build(topo.graph(), seed),
        }
    }

    /// Number of routers.
    #[inline]
    pub fn router_count(&self) -> usize {
        self.dist.vertex_count()
    }

    /// Hop distance from `s` to `d`.
    #[inline]
    pub fn dist(&self, s: u32, d: u32) -> u32 {
        u32::from(self.dist.get(s, d))
    }

    /// Largest finite table distance — the diameter of the (residual)
    /// graph the tables were built on, when it is connected.
    pub fn max_finite_dist(&self) -> u32 {
        self.dist.diameter_reachable()
    }

    /// Whether `d` is reachable from `s` in the graph the tables were
    /// built on (always true on a connected residual; finite-checked by
    /// the transient engine before routing toward a repaired router whose
    /// tables have not re-converged yet).
    #[inline]
    pub fn reachable(&self, s: u32, d: u32) -> bool {
        self.dist.get(s, d) != bfs::UNREACHABLE
    }

    /// The table's minimal next hop from `s` toward `d` (`s` if `s == d`).
    #[inline]
    pub fn next_hop(&self, s: u32, d: u32) -> u32 {
        match self.next[s as usize * self.dist.vertex_count() + d as usize] {
            STAY => s,
            i => self.graph.neighbors(s)[usize::from(i)],
        }
    }
}

/// Fills the next-hop columns `d0 .. d0 + width` of every source row
/// (`rows[s]` is that window of row `s`, pre-filled with [`STAY`]) with
/// neighbor positions. For each `s` and each neighbor `w` in CSR order, the
/// destinations `w` is a minimal next hop toward are those with
/// `dist(w, d) + 1 == dist(s, d)` (the matrix is symmetric, so row `w` is
/// also "distance *to* every `d`").
///
/// Candidates are sparse (one neighbor in `deg` on a diameter-2 graph), so
/// the rows are not compared byte by byte. Each vertex gets three bitsets
/// over the window: bit `i` of `res[v][r]` is set iff `dist(v, d0 + i)` is
/// finite and ≡ `r` (mod 3). Neighbors' distances to any `d` differ by at
/// most one, so among them "one less" and "one less mod 3" are the same
/// condition: the candidates of `(s, w)` are the OR over `r` of
/// `res[s][r] & res[w][r − 1]`, a few words at any diameter, and only set
/// bits reach the reservoir draw. Unreachable pairs are in no bitset.
fn fill_stripe(g: &Csr, dist: &DistanceMatrix, seed: u64, d0: usize, rows: Vec<&mut [u8]>) {
    let width = rows.first().map_or(0, |r| r.len());
    let window = d0..d0 + width;
    let mut rngs: Vec<StdRng> = window
        .clone()
        .map(|d| StdRng::seed_from_u64(seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    // Reservoir sampling state: candidates seen so far per destination.
    let mut seen = vec![0u32; width];
    let words = width.div_ceil(64);
    // `res[v·stride + r·words ..][.. words]` is the bitset `res[v][r]`.
    let stride = 3 * words;
    let mut res = vec![0u64; rows.len() * stride];
    for (v, sets) in res.chunks_exact_mut(stride).enumerate() {
        for (i, &dv) in dist.row(v as u32)[window.clone()].iter().enumerate() {
            if dv != bfs::UNREACHABLE {
                sets[usize::from(dv % 3) * words + i / 64] |= 1 << (i % 64);
            }
        }
    }
    for (s, out) in rows.into_iter().enumerate() {
        seen.fill(0);
        let of_s = &res[s * stride..][..stride];
        for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
            let of_w = &res[w as usize * stride..][..stride];
            for k in 0..words {
                let mut rest = (0..3).fold(0u64, |acc, r| {
                    acc | of_s[r * words + k] & of_w[(r + 2) % 3 * words + k]
                });
                while rest != 0 {
                    let i = k * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    seen[i] += 1;
                    // Uniform among the candidates.
                    if rngs[i].gen_range(0..seen[i]) == 0 {
                        out[i] = wi as u8;
                    }
                }
            }
        }
        debug_assert!(
            dist.row(s as u32)[window.clone()]
                .iter()
                .zip(&seen)
                .all(|(&ds, &c)| (c == 0) == (ds == 0 || ds == bfs::UNREACHABLE)),
            "no minimal next hop found"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::{FailureSet, GraphBuilder};
    use polarfly::PolarFly;

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build()
    }

    /// The fill [`fill_stripe`] replaced, kept as its oracle: a byte-wise
    /// compare of the two distance rows of every `(s, neighbor)`
    /// (unreachable pairs wrap to 0 ≠ 255 and never match).
    fn fill_stripe_bytes(
        g: &Csr,
        dist: &DistanceMatrix,
        seed: u64,
        d0: usize,
        rows: Vec<&mut [u8]>,
    ) {
        let width = rows.first().map_or(0, |r| r.len());
        let window = d0..d0 + width;
        let mut rngs: Vec<StdRng> = window
            .clone()
            .map(|d| {
                StdRng::seed_from_u64(seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        let mut seen = vec![0u32; width];
        for (s, out) in rows.into_iter().enumerate() {
            seen.fill(0);
            let from_s = &dist.row(s as u32)[window.clone()];
            for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
                let from_w = &dist.row(w)[window.clone()];
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
    }

    /// Whole `next` array of [`RouteTables::build`] against the oracle run
    /// as a single stripe over all destinations (the table does not depend
    /// on how the columns are striped).
    fn assert_fill_matches_oracle(g: &Csr, seed: u64, what: &str) {
        let n = g.vertex_count();
        let t = RouteTables::build(g, seed);
        let mut want = vec![STAY; n * n];
        fill_stripe_bytes(g, &t.dist, seed, 0, want.chunks_mut(n).collect());
        assert!(
            t.next == want,
            "{what}, seed {seed}: next-hop table differs"
        );
    }

    #[test]
    fn residue_fill_equals_byte_compare_fill() {
        // Rings: diameter ≫ 2, so distances run through every residue many
        // times over and (on the even ring) antipodal pairs tie; 300 spans
        // two stripes.
        for n in [9usize, 64, 101, 300] {
            for seed in [1u64, 42] {
                assert_fill_matches_oracle(&ring(n), seed, &format!("ring({n})"));
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
        assert_fill_matches_oracle(&b.build(), 5, "ring(12) + path(8)");
        // ER_7 with 30 % of its links failed: irregular degrees, ties.
        let pf = PolarFly::new(7).unwrap();
        let residual = FailureSet::sample(pf.graph(), 0.30, 3).residual(pf.graph());
        for seed in [1u64, 7] {
            assert_fill_matches_oracle(&residual, seed, "ER_7 -30%");
        }
        // The widest star the byte-wide table admits.
        let mut b = GraphBuilder::new(MAX_DEGREE + 1);
        for leaf in 1..=MAX_DEGREE as u32 {
            b.add_edge(0, leaf);
        }
        assert_fill_matches_oracle(&b.build(), 1, "star");
    }

    #[test]
    fn next_hop_decreases_distance() {
        let g = ring(9);
        let t = RouteTables::build(&g, 1);
        for s in 0..9u32 {
            for d in 0..9u32 {
                if s == d {
                    assert_eq!(t.next_hop(s, d), s);
                    continue;
                }
                let nh = t.next_hop(s, d);
                assert!(g.has_edge(s, nh));
                assert_eq!(t.dist(nh, d), t.dist(s, d) - 1);
            }
        }
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
