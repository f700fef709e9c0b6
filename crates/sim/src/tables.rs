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
//! the tie-breaks do not depend on how the work is split. The table is
//! stored destination-major, so a stripe is one contiguous block. No
//! distance matrix is ever built.
//!
//! Only ties draw. Healthy `ER_q` has one minimal next hop per pair (a
//! non-adjacent pair's one 2-hop path runs through their cross product),
//! so each stripe is first filled without an RNG, and only a stripe that
//! meets a pair with two candidates is refilled, whole, by the seeded
//! reservoir. The bytes are those of drawing everywhere: a pair with one
//! candidate draws `gen_range(0..1)`, which always keeps it, and a
//! destination's stream lives only inside its stripe.
//!
//! A next hop is stored as one byte — its position in the source's row
//! of the *physical* graph, which is the engine's output port — so the
//! tables cost n² bytes plus the O(E) adjacency that turns the position
//! into a router id ([`RouteTables::resident_bytes`]).
//!
//! Distances are walked, not stored: [`RouteTables::dist`] follows next
//! hops from `s` until it reaches `d`. That is exact because every table
//! hop is minimal — `dist(next_hop(s, d), d) == dist(s, d) − 1`, so
//! minimal next hops strictly decrease the distance — hence the walk
//! takes exactly `dist(s, d)` steps, never more than the largest finite
//! distance, and an unreachable pair stops at its first (absent) hop.
//!
//! Fault awareness: [`RouteTables::build_without`] routes on the
//! *residual* graph left by a set of down links but indexes the physical
//! rows, so a stored byte names the same port whatever is down;
//! [`RouteTables::build_for`] applies it to the topology's cycle-0 fault
//! state ([`initial_failures`]), so every table next hop (and every UGAL
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
    /// The physical graph: `next` indexes its neighbor lists, whichever
    /// links the routes avoid.
    graph: Csr,
    /// `next[d·N + s]`: position in `graph.neighbors(s)` of the hop
    /// toward `d` — `s`'s output port — or [`STAY`].
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
    /// A stripe draws only if it has a tie. Each is first filled
    /// draw-free, every pair's single candidate written directly; at the
    /// first pair with a second candidate that fill stops, and the
    /// reservoir refills the whole stripe, rewriting every reachable pair
    /// (self and unreachable pairs stay put). Either way the bytes are the
    /// same: a stripe without ties would draw only `gen_range(0..1)`,
    /// which always keeps the one candidate, and its destinations' streams
    /// are dropped with it. Healthy `ER_q` never draws.
    ///
    /// # Panics
    /// If a router has more than [`MAX_DEGREE`] neighbors, or a finite
    /// distance exceeds [`bfs::MAX_DISTANCE`].
    pub fn build(g: &Csr, seed: u64) -> RouteTables {
        RouteTables::build_without(g, &[], seed)
    }

    /// [`RouteTables::build`] on the residual graph `g.without_edges(down)`,
    /// with every stored hop remapped to its position in `g`'s row: the
    /// same routes, tie-breaks and distances as tables built on the
    /// residual, but a hop reads as `g`'s output port. The tables keep
    /// `g` ([`RouteTables::graph`]).
    ///
    /// # Panics
    /// As [`RouteTables::build`], for the degrees of `g`.
    pub fn build_without(g: &Csr, down: &[(u32, u32)], seed: u64) -> RouteTables {
        let n = g.vertex_count();
        assert!(
            g.max_degree() <= MAX_DEGREE,
            "router degree {} exceeds the {MAX_DEGREE}-neighbor ceiling of the byte-wide next-hop table",
            g.max_degree()
        );
        let residual = (!down.is_empty()).then(|| g.without_edges(down));
        let mut next = vec![STAY; n * n];
        // Destination-major, so stripe k (destinations `k·STRIPE ..`) is
        // one contiguous block and workers write disjoint memory.
        let max_dist = next
            .chunks_mut((STRIPE * n).max(1))
            .zip((0..n).step_by(STRIPE))
            .into_par_iter()
            .map(|(block, d0)| {
                let Some(residual) = &residual else {
                    return fill_stripe(g, seed, d0, block);
                };
                let deepest = fill_stripe(residual, seed, d0, block);
                remap_to_physical(g, residual, block);
                deepest
            })
            .max_by_key(|&deepest| deepest)
            .unwrap_or(0);
        RouteTables {
            graph: g.clone(),
            next,
            max_dist,
        }
    }

    /// Builds the tables a `topo` run needs: routed around the links down
    /// at cycle 0 ([`initial_failures`]) by [`RouteTables::build_without`],
    /// indexed by the physical graph's rows either way.
    pub fn build_for(topo: &Topology, seed: u64) -> RouteTables {
        RouteTables::build_without(topo.graph(), initial_failures(topo).edges(), seed)
    }

    /// The physical graph whose rows the hops index. Routes avoid the
    /// links [`RouteTables::build_without`] was given; this graph still
    /// lists them.
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
        self.next[d as usize * self.router_count() + s as usize]
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

    /// The table's minimal next hop from `s` toward `d` (`s` if `s == d`
    /// or `d` is unreachable).
    #[inline]
    pub fn next_hop(&self, s: u32, d: u32) -> u32 {
        self.port(s, d).map_or(s, |i| self.graph.neighbors(s)[i])
    }

    /// The output port (position in [`RouteTables::graph`]'s row of `s`)
    /// of the minimal next hop from `s` toward `d`, or `None` when
    /// `s == d` or `d` is unreachable.
    #[inline]
    pub fn port(&self, s: u32, d: u32) -> Option<usize> {
        match self.entry(s, d) {
            STAY => None,
            i => Some(usize::from(i)),
        }
    }

    /// Bytes the tables have allocated: the n² next-hop bytes plus the
    /// graph copy ([`Csr::resident_bytes`]). Diagnostic — pins that no
    /// distance matrix is kept.
    pub fn resident_bytes(&self) -> usize {
        self.next.capacity() + self.graph.resident_bytes()
    }
}

/// Rewrites a stripe block's positions in `residual`'s rows (rows of `n`
/// sources, as [`fill_stripe`] leaves them) as positions in `g`'s rows:
/// a residual row is `g`'s row with the down slots filtered out, in order.
fn remap_to_physical(g: &Csr, residual: &Csr, block: &mut [u8]) {
    let n = g.vertex_count();
    let mut physical = Vec::with_capacity(g.max_degree());
    for s in 0..n as u32 {
        let mut kept = residual.neighbors(s).iter().peekable();
        physical.clear();
        physical.extend(
            g.neighbors(s)
                .iter()
                .enumerate()
                .filter_map(|(i, w)| kept.next_if_eq(&w).map(|_| i as u8)),
        );
        for hop in block.iter_mut().skip(s as usize).step_by(n) {
            if *hop != STAY {
                *hop = physical[usize::from(*hop)];
            }
        }
    }
}

/// Destination `d`'s tie-break stream.
fn dest_rng(seed: u64, d: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fills the next-hop entries of the destinations `d0 .. d0 + width`
/// (`block[i·n + s]` is the pair `(s, d0 + i)`, pre-filled with [`STAY`])
/// with neighbor positions, and returns the deepest BFS level the stripe
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
/// at any diameter ([`candidates`]). Unreachable pairs are in no bitset.
///
/// The draw-free [`fill_unique`] runs first; only a stripe with a tied
/// pair falls back to the seeded reservoir of [`fill_drawn`], which
/// rewrites every reachable pair of the stripe.
fn fill_stripe(g: &Csr, seed: u64, d0: usize, block: &mut [u8]) -> u8 {
    let (res, deepest) = residues(g, d0, block.len() / g.vertex_count());
    if !fill_unique(g, &res, block) {
        fill_drawn(g, seed, d0, &res, block);
    }
    deepest
}

/// The residue bitsets `res[v][r]` of the destinations `d0 .. d0 + width`
/// (see [`fill_stripe`]) and the deepest BFS level they reach.
fn residues(g: &Csr, d0: usize, width: usize) -> (Vec<[u64; 3]>, u8) {
    let mut res = vec![[0u64; 3]; g.vertex_count()];
    let mut deepest = 0;
    bfs::for_each_level(g, d0, width, |level, words| {
        deepest = level;
        let r = usize::from(level % 3);
        for (sets, &word) in res.iter_mut().zip(words) {
            sets[r] |= word;
        }
    });
    (res, deepest)
}

/// The destinations (bits of the stripe) toward which `w` is a minimal
/// next hop from its neighbor `s`, from their residue bitsets.
#[inline]
fn candidates(of_s: &[u64; 3], of_w: &[u64; 3]) -> u64 {
    (0..3).fold(0, |acc, r| acc | of_s[r] & of_w[(r + 2) % 3])
}

/// The fill of a stripe in which every pair has at most one candidate —
/// every stripe of a healthy `ER_q`, whose non-adjacent pairs have one
/// common neighbor each. Each source's picks go to a position row that is
/// then copied into the stripe's rows; no RNG is drawn. Returns `false`,
/// leaving the block partly written, at the first candidate word that
/// overlaps the candidates already seen for its source: a pair with two
/// candidates, a tie only [`fill_drawn`] may break.
///
/// Where it returns `true` the block equals [`fill_drawn`]'s: with one
/// candidate per pair, every reservoir draw is `gen_range(0..1)`, which
/// always keeps the candidate, and the streams are dropped with the
/// stripe.
fn fill_unique(g: &Csr, res: &[[u64; 3]], block: &mut [u8]) -> bool {
    let n = res.len();
    // pos[i]: the pick toward stripe destination i; slot STRIPE absorbs
    // the two-at-a-time writes that run past a word's last bit.
    let mut pos = [STAY; STRIPE + 1];
    for (s, of_s) in res.iter().enumerate() {
        pos.fill(STAY);
        let mut taken = 0u64;
        for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
            let mut rest = candidates(of_s, &res[w as usize]);
            if rest & taken != 0 {
                return false;
            }
            taken |= rest;
            loop {
                pos[rest.trailing_zeros() as usize] = wi as u8;
                rest &= rest.wrapping_sub(1);
                pos[rest.trailing_zeros() as usize] = wi as u8;
                rest &= rest.wrapping_sub(1);
                if rest == 0 {
                    break;
                }
            }
        }
        for (row, &p) in block.chunks_exact_mut(n).zip(&pos) {
            row[s] = p;
        }
    }
    true
}

/// The tie-breaking fill: each pair's hop is drawn uniformly among its
/// candidates by reservoir sampling, destination `d`'s draws taken from
/// its own stream ([`dest_rng`]) in `(s, w)` order. Writes every pair
/// with a candidate, so it may follow a [`fill_unique`] that gave up.
fn fill_drawn(g: &Csr, seed: u64, d0: usize, res: &[[u64; 3]], block: &mut [u8]) {
    let n = res.len();
    let width = block.len() / n;
    let mut rngs: Vec<StdRng> = (d0..d0 + width).map(|d| dest_rng(seed, d)).collect();
    // Reservoir sampling state: candidates seen so far per destination.
    let mut seen = vec![0u32; width];
    for (s, of_s) in res.iter().enumerate() {
        seen.fill(0);
        for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
            let mut rest = candidates(of_s, &res[w as usize]);
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                seen[i] += 1;
                // Uniform among the candidates.
                if rngs[i].gen_range(0..seen[i]) == 0 {
                    block[i * n + s] = wi as u8;
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
    /// never match), one stripe over every destination. Returns the
    /// table in [`RouteTables`]' destination-major layout.
    fn fill_bytes(g: &Csr, dist: &[u8], seed: u64) -> Vec<u8> {
        let n = g.vertex_count();
        let mut next = vec![STAY; n * n];
        let mut rngs: Vec<StdRng> = (0..n).map(|d| dest_rng(seed, d)).collect();
        let mut seen = vec![0u32; n];
        for s in 0..n {
            seen.fill(0);
            let from_s = &dist[s * n..][..n];
            for (wi, &w) in g.neighbors(s as u32).iter().enumerate() {
                let from_w = &dist[w as usize * n..][..n];
                for (i, (&dw, &ds)) in from_w.iter().zip(from_s).enumerate() {
                    if dw.wrapping_add(1) == ds {
                        seen[i] += 1;
                        if rngs[i].gen_range(0..seen[i]) == 0 {
                            next[i * n + s] = wi as u8;
                        }
                    }
                }
            }
        }
        next
    }

    /// Every output of [`RouteTables::build`] against an oracle: `next`
    /// against the byte-compare fill, `dist` and `port`'s presence
    /// against the scalar BFS, `max_finite_dist` against the distance histogram.
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
                    t.port(s, d).is_some(),
                    s != d && want != bfs::UNREACHABLE,
                    "{what}: port({s}, {d})"
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
        // ER_13 (183 routers, three stripes). Healthy, every stripe is
        // filled draw-free. With one link down, one stripe still is, and
        // another meets a tie after writing part of its block, which the
        // reservoir must overwrite. With about 3 % of links down, every
        // stripe gives up at its first source.
        let pf = PolarFly::new(13).unwrap();
        let healthy = pf.graph();
        let one_down = healthy.without_edges(&[(0, healthy.neighbors(0)[0])]);
        let few_down = FailureSet::sample(healthy, 0.03, 5).residual(healthy);
        let outcomes = draw_free_outcomes(healthy);
        assert!(outcomes.len() == 3 && outcomes.iter().all(|&(filled, _)| filled));
        let outcomes = draw_free_outcomes(&one_down);
        assert!(outcomes.iter().any(|&(filled, _)| filled), "{outcomes:?}");
        assert!(
            outcomes
                .iter()
                .any(|&(filled, written)| !filled && written > 0),
            "{outcomes:?}"
        );
        let outcomes = draw_free_outcomes(&few_down);
        assert!(outcomes.iter().all(|&(filled, _)| !filled), "{outcomes:?}");
        for seed in [1u64, 42] {
            assert_matches_oracles(healthy, seed, "ER_13");
            assert_matches_oracles(&one_down, seed, "ER_13 -1 link");
            assert_matches_oracles(&few_down, seed, "ER_13 -3%");
        }
    }

    /// Per stripe of `g`: whether [`fill_unique`] fills it, and how many
    /// entries it had written when it returned.
    fn draw_free_outcomes(g: &Csr) -> Vec<(bool, usize)> {
        let n = g.vertex_count();
        (0..n)
            .step_by(STRIPE)
            .map(|d0| {
                let width = STRIPE.min(n - d0);
                let (res, _) = residues(g, d0, width);
                let mut block = vec![STAY; width * n];
                let filled = fill_unique(g, &res, &mut block);
                (filled, block.iter().filter(|&&hop| hop != STAY).count())
            })
            .collect()
    }

    /// [`RouteTables::build_without`] routes exactly as tables built on
    /// the residual graph, but its ports index the physical rows: PF
    /// q = 7 and 13, Slim Fly q = 5 and a random regular graph, each with
    /// a sampled 10 % of its links down (a residual that may disconnect).
    #[test]
    fn residual_tables_index_the_physical_rows() {
        let topos = [
            pf_topo::PolarFlyTopo::new(7, 1).unwrap(),
            pf_topo::PolarFlyTopo::new(13, 1).unwrap(),
            pf_topo::SlimFly::new(5, 1).unwrap(),
            pf_topo::Jellyfish::new(60, 5, 1, 9),
        ];
        for topo in &topos {
            let g = topo.graph();
            let n = g.vertex_count() as u32;
            for seed in 1..=3 {
                let what = format!("{}, seed {seed}", topo.name());
                let down = FailureSet::sample(g, 0.1, seed);
                assert!(!down.is_empty(), "{what}");
                let t = RouteTables::build_without(g, down.edges(), seed);
                let on_residual = RouteTables::build(&down.residual(g), seed);
                assert_eq!(t.router_count(), g.vertex_count(), "{what}");
                assert!(t.graph().edges().eq(g.edges()), "{what}: graph()");
                assert_eq!(t.max_finite_dist(), on_residual.max_finite_dist(), "{what}");
                for s in 0..n {
                    for d in 0..n {
                        let next = on_residual.next_hop(s, d);
                        assert_eq!(t.next_hop(s, d), next, "{what}: next_hop({s}, {d})");
                        assert_eq!(
                            t.dist(s, d),
                            on_residual.dist(s, d),
                            "{what}: dist({s}, {d})"
                        );
                        match t.port(s, d) {
                            Some(i) => {
                                assert_eq!(g.neighbors(s)[i], next, "{what}: port({s}, {d})")
                            }
                            None => assert_eq!(next, s, "{what}: port({s}, {d})"),
                        }
                    }
                }
            }
        }
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
    /// ER_31, n² = 986 049 bytes plus the CSR's 994 offsets and 31 744
    /// adjacency entries (15 872 edges, each listed from both ends).
    #[test]
    fn tables_hold_n_squared_bytes_plus_the_graph() {
        let pf = PolarFly::new(31).unwrap();
        let t = RouteTables::build(pf.graph(), 1);
        let (n, e) = (993usize, 15_872usize);
        assert_eq!(pf.graph().edge_count(), e);
        let csr = 4 * (n + 1) + 4 * 2 * e;
        assert_eq!(t.resident_bytes(), n * n + csr);
        assert_eq!(t.resident_bytes(), 1_117_001);
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
