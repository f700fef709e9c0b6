//! Balanced graph bisection — the METIS substitute for Fig. 12.
//!
//! The paper measures bisection bandwidth as the fraction of edges crossing
//! a balanced 2-way partition computed by METIS. METIS is an external C
//! library, so this module provides an equivalent-quality bisection:
//!
//! 1. **Spectral seeding** — the Fiedler vector of the graph Laplacian,
//!    computed by shifted power iteration with deflation of the constant
//!    eigenvector, split at its median value;
//! 2. **Fiduccia–Mattheyses refinement** — single-vertex moves taken from
//!    gain buckets in `(gain, vertex id)` max order, locking, and
//!    best-prefix rollback, iterated to a fixed point;
//! 3. **Random restarts** (Rayon-parallel) — FM from random balanced seeds;
//!    the best cut over all starts is reported.
//!
//! For the ≤ ~16 k-vertex graphs of the evaluation this reliably lands
//! within a few percent of METIS' recursive-bisection cuts, which is all
//! Fig. 12 needs (it compares cut *fractions* across topologies).

use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Result of a balanced bisection.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// Side assignment per vertex (`false` = part 0, `true` = part 1).
    pub side: Vec<bool>,
    /// Number of edges crossing the cut.
    pub cut_edges: usize,
    /// `cut_edges / edge_count` — the quantity plotted in Fig. 12.
    pub cut_fraction: f64,
}

/// Computes a balanced bisection of `g` (sides differ by at most one
/// vertex), minimizing the edge cut: spectral seed + FM refinement, plus
/// `restarts` extra random-seeded FM runs. Deterministic in `seed`.
pub fn bisect(g: &Csr, restarts: usize, seed: u64) -> Bisection {
    let n = g.vertex_count();
    assert!(n >= 2, "bisection needs at least two vertices");
    // The `true` side ends with between ⌊n/2⌋ and ⌈n/2⌉ vertices.
    let (t_lo, t_hi) = (n / 2, n / 2 + n % 2);
    let max_degree = g.max_degree();

    let spectral = {
        let mut side = spectral_seed(g, seed, t_lo, max_degree);
        let cut = fm_refine(g, &mut side, t_lo, t_hi, max_degree);
        (side, cut)
    };

    let best_random = (0..restarts as u64)
        .into_par_iter()
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed ^ (r + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut side = random_sides(n, t_lo, &mut rng);
            let cut = fm_refine(g, &mut side, t_lo, t_hi, max_degree);
            (side, cut)
        })
        .min_by_key(|&(_, cut)| cut);

    let (side, cut_edges) = match best_random {
        Some(r) if r.1 < spectral.1 => r,
        _ => spectral,
    };
    let cut_fraction = if g.edge_count() == 0 {
        0.0
    } else {
        cut_edges as f64 / g.edge_count() as f64
    };
    Bisection {
        side,
        cut_edges,
        cut_fraction,
    }
}

/// Convenience wrapper returning only the cut fraction.
pub fn bisection_cut_fraction(g: &Csr, restarts: usize, seed: u64) -> f64 {
    bisect(g, restarts, seed).cut_fraction
}

/// Number of edges crossing the given side assignment.
pub fn cut_size(g: &Csr, side: &[bool]) -> usize {
    g.edges()
        .filter(|&(u, v)| side[u as usize] != side[v as usize])
        .count()
}

fn random_sides(n: usize, ones: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut side = vec![false; n];
    for &v in order.iter().take(ones) {
        side[v as usize] = true;
    }
    side
}

/// Split of the Fiedler vector at rank `ones` (the median for a balanced
/// bisection), computed by power iteration on `σI − L` with the constant
/// eigenvector deflated.
fn spectral_seed(g: &Csr, seed: u64, ones: usize, max_degree: usize) -> Vec<bool> {
    let n = g.vertex_count();
    let sigma = 2.0 * max_degree as f64 + 1.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut y = vec![0.0f64; n];
    for _ in 0..200 {
        // y = (σI − L) x = (σ − deg(v))·x[v] + Σ_{w∈N(v)} x[w]
        for v in 0..n {
            let mut acc = (sigma - g.degree(v as u32) as f64) * x[v];
            for &w in g.neighbors(v as u32) {
                acc += x[w as usize];
            }
            y[v] = acc;
        }
        // Deflate the all-ones eigenvector, normalize.
        let mean = y.iter().sum::<f64>() / n as f64;
        for v in &mut y {
            *v -= mean;
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            // Degenerate (e.g. disconnected with symmetric halves); restart.
            for v in y.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
        } else {
            for v in y.iter_mut() {
                *v /= norm;
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| x[a as usize].partial_cmp(&x[b as usize]).unwrap());
    let mut side = vec![false; n];
    for &v in order.iter().take(ones) {
        side[v as usize] = true;
    }
    side
}

/// One-sided FM: repeats full passes until a pass yields no improvement.
/// Returns the final cut size; `side` is updated in place with its
/// `true`-side count inside `[t_lo, t_hi]`.
fn fm_refine(g: &Csr, side: &mut [bool], t_lo: usize, t_hi: usize, max_degree: usize) -> usize {
    let mut cut = cut_size(g, side);
    let mut scratch = FmScratch::new(g.vertex_count(), max_degree);
    loop {
        let improved = fm_pass(g, side, &mut cut, t_lo, t_hi, &mut scratch);
        if !improved {
            return cut;
        }
    }
}

/// Working arrays of one [`fm_refine`], allocated once and reset by every
/// pass.
struct FmScratch {
    /// `gain[v] = external(v) − internal(v)`: cut delta of moving `v`.
    gain: Vec<i32>,
    locked: Vec<bool>,
    moves: Vec<u32>,
    buckets: GainBuckets,
}

impl FmScratch {
    fn new(n: usize, max_degree: usize) -> FmScratch {
        FmScratch {
            gain: vec![0; n],
            locked: vec![false; n],
            moves: Vec::with_capacity(n),
            buckets: GainBuckets::new(n, max_degree),
        }
    }
}

/// The movable vertices of an FM pass keyed by gain: one vertex bitset per
/// gain value in `[-Δ, Δ]`. [`GainBuckets::pop`] takes the highest vertex
/// id of the highest non-empty bucket — the order in which a max-heap of
/// `(gain, vertex id)` pairs with lazily invalidated entries yields its
/// live ones — by reading a word or two behind two cursors, and a gain
/// change is two bit flips where the heap took a push.
struct GainBuckets {
    /// Largest degree Δ: gain `g` lives in row `g + Δ`.
    delta: i32,
    /// Words per row, `⌈n / 64⌉`.
    words: usize,
    /// A row is allocated by its first insert, so memory follows the gains
    /// that occur (a handful of rows on a star, not `2Δ + 1`).
    rows: Vec<Vec<u64>>,
    /// Members per row.
    len: Vec<u32>,
    /// Per row: no word above this index is non-zero.
    high_word: Vec<u32>,
    /// No row above this index has members.
    top: usize,
}

impl GainBuckets {
    fn new(n: usize, max_degree: usize) -> GainBuckets {
        let rows = 2 * max_degree + 1;
        GainBuckets {
            delta: i32::try_from(max_degree).expect("degree fits i32"),
            words: n.div_ceil(64),
            rows: vec![Vec::new(); rows],
            len: vec![0; rows],
            high_word: vec![0; rows],
            top: 0,
        }
    }

    fn row_of(&self, gain: i32) -> usize {
        (gain + self.delta) as usize
    }

    /// Adds `v`, absent from every row, to the row of `gain`.
    fn insert(&mut self, gain: i32, v: u32) {
        let r = self.row_of(gain);
        let row = &mut self.rows[r];
        if row.is_empty() {
            row.resize(self.words, 0);
        }
        let word = v / 64;
        row[word as usize] |= 1 << (v % 64);
        self.len[r] += 1;
        self.high_word[r] = self.high_word[r].max(word);
        self.top = self.top.max(r);
    }

    /// Takes `v` out of the row of `gain` if it is still there (a vertex
    /// [`GainBuckets::pop`] handed out is in no row).
    fn remove(&mut self, gain: i32, v: u32) {
        let r = self.row_of(gain);
        let word = &mut self.rows[r][(v / 64) as usize];
        let bit = 1 << (v % 64);
        self.len[r] -= u32::from(*word & bit != 0);
        *word &= !bit;
    }

    /// Removes and returns the member with the largest `(gain, id)`.
    fn pop(&mut self) -> Option<u32> {
        while self.len[self.top] == 0 {
            self.top = self.top.checked_sub(1)?;
        }
        let r = self.top;
        let row = &mut self.rows[r];
        let mut word = self.high_word[r] as usize;
        while row[word] == 0 {
            word -= 1;
        }
        self.high_word[r] = word as u32;
        let bit = row[word].ilog2();
        row[word] &= !(1 << bit);
        self.len[r] -= 1;
        Some(word as u32 * 64 + bit)
    }
}

/// A single FM pass: move every vertex once (max-gain first, highest id
/// among equal gains, balance respected), tracking the best prefix of
/// moves whose `true`-side count lands in `[t_lo, t_hi]`; roll back the
/// suffix. When the target is exact (`t_lo == t_hi`) each side gets one
/// vertex of transient slack — with an inexact target the interval itself
/// is the slack. With `t_lo = ⌊n/2⌋, t_hi = ⌈n/2⌉` both rules reduce to
/// the classic balanced-bisection pass (each side capped at `⌊n/2⌋ + 1`).
fn fm_pass(
    g: &Csr,
    side: &mut [bool],
    cut: &mut usize,
    t_lo: usize,
    t_hi: usize,
    scratch: &mut FmScratch,
) -> bool {
    let n = g.vertex_count();
    let FmScratch {
        gain,
        locked,
        moves,
        buckets,
    } = scratch;
    locked.fill(false);
    moves.clear();
    // The previous pass popped until no bucket had a member, so the
    // buckets are empty here.
    for v in 0..n {
        let mut ext = 0i32;
        for &w in g.neighbors(v as u32) {
            if side[w as usize] != side[v] {
                ext += 1;
            } else {
                ext -= 1;
            }
        }
        gain[v] = ext;
        buckets.insert(ext, v as u32);
    }

    let mut sizes = [0usize; 2];
    for &s in side.iter() {
        sizes[s as usize] += 1;
    }
    let slack = usize::from(t_lo == t_hi);
    let max_size = [n - t_lo + slack, t_hi + slack]; // per-side caps

    let start_cut = *cut as i64;
    let mut running = start_cut;
    let mut best = start_cut;
    let mut best_prefix = 0usize;

    while let Some(v) = buckets.pop() {
        let vi = v as usize;
        let from = side[vi] as usize;
        let to = 1 - from;
        if sizes[to] + 1 > max_size[to] {
            // The move would overfill: `v` stays out of the buckets until
            // a neighbor's move changes its gain and re-inserts it.
            continue;
        }
        // Apply the move.
        locked[vi] = true;
        side[vi] = !side[vi];
        sizes[from] -= 1;
        sizes[to] += 1;
        running -= i64::from(gain[vi]);
        gain[vi] = -gain[vi];
        for &w in g.neighbors(v) {
            let wi = w as usize;
            // v switched sides: same-side neighbors of the *new* side see
            // their external count drop, the old side's see it rise.
            let old = gain[wi];
            gain[wi] += if side[wi] == side[vi] { -2 } else { 2 };
            if !locked[wi] {
                buckets.remove(old, w);
                buckets.insert(gain[wi], w);
            }
        }
        moves.push(v);
        if (t_lo..=t_hi).contains(&sizes[1]) && running < best {
            best = running;
            best_prefix = moves.len();
        }
    }

    // Roll back moves beyond the best balanced prefix.
    for &v in moves[best_prefix..].iter().rev() {
        side[v as usize] = !side[v as usize];
    }
    *cut = best as usize;
    best < start_cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use std::collections::BinaryHeap;

    /// Two K_8 cliques joined by `bridges` edges: optimal cut = bridges.
    fn dumbbell(bridges: usize) -> Csr {
        let mut b = GraphBuilder::new(16);
        for base in [0u32, 8] {
            for u in 0..8u32 {
                for v in (u + 1)..8 {
                    b.add_edge(base + u, base + v);
                }
            }
        }
        for i in 0..bridges as u32 {
            b.add_edge(i, 8 + i);
        }
        b.build()
    }

    #[test]
    fn finds_optimal_dumbbell_cut() {
        for bridges in [1usize, 2, 3] {
            let g = dumbbell(bridges);
            let r = bisect(&g, 4, 11);
            assert_eq!(r.cut_edges, bridges, "bridges={bridges}");
            // Sides must be balanced.
            let ones = r.side.iter().filter(|&&s| s).count();
            assert_eq!(ones, 8);
        }
    }

    #[test]
    fn cut_size_matches_assignment() {
        let g = dumbbell(2);
        let mut side = vec![false; 16];
        for s in side.iter_mut().take(8) {
            *s = true;
        }
        assert_eq!(cut_size(&g, &side), 2);
    }

    #[test]
    fn complete_graph_cut_fraction_is_half_ish() {
        // K_n bisection cuts (n/2)² of C(n,2) edges → fraction ≈ 1/2·n/(n−1).
        let n = 12u32;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let r = bisect(&g, 2, 3);
        assert_eq!(r.cut_edges, 36); // 6·6
        assert!((r.cut_fraction - 36.0 / 66.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_on_odd_vertex_count() {
        let mut b = GraphBuilder::new(7);
        for i in 0..7u32 {
            b.add_edge(i, (i + 1) % 7);
        }
        let r = bisect(&b.build(), 2, 5);
        let ones = r.side.iter().filter(|&&s| s).count();
        assert!(ones == 3 || ones == 4);
        assert_eq!(r.cut_edges, 2); // cycle bisection cuts exactly 2 edges
    }

    /// The pass [`fm_pass`] replaced, kept as its oracle: a max-heap of
    /// `(gain, vertex)` with lazy invalidation — one push per neighbor of
    /// every move, stale entries skipped on pop.
    fn fm_pass_heap(g: &Csr, side: &mut [bool], cut: &mut usize, t_lo: usize, t_hi: usize) -> bool {
        let n = g.vertex_count();
        let mut gain: Vec<i32> = (0..n)
            .map(|v| {
                g.neighbors(v as u32)
                    .iter()
                    .map(|&w| if side[w as usize] != side[v] { 1 } else { -1 })
                    .sum()
            })
            .collect();
        let mut sizes = [0usize; 2];
        for &s in side.iter() {
            sizes[s as usize] += 1;
        }
        let slack = usize::from(t_lo == t_hi);
        let max_size = [n - t_lo + slack, t_hi + slack];
        let mut heap: BinaryHeap<(i32, u32)> =
            (0..n as u32).map(|v| (gain[v as usize], v)).collect();
        let mut locked = vec![false; n];
        let start_cut = *cut as i64;
        let mut running = start_cut;
        let mut best = start_cut;
        let mut best_prefix = 0usize;
        let mut moves: Vec<u32> = Vec::with_capacity(n);
        while let Some((g_claimed, v)) = heap.pop() {
            let vi = v as usize;
            if locked[vi] || g_claimed != gain[vi] {
                continue; // stale entry
            }
            let from = side[vi] as usize;
            let to = 1 - from;
            if sizes[to] + 1 > max_size[to] {
                continue; // move would overfill; vertex may be re-pushed later
            }
            locked[vi] = true;
            side[vi] = !side[vi];
            sizes[from] -= 1;
            sizes[to] += 1;
            running -= i64::from(gain[vi]);
            gain[vi] = -gain[vi];
            for &w in g.neighbors(v) {
                let wi = w as usize;
                if side[wi] == side[vi] {
                    gain[wi] -= 2;
                } else {
                    gain[wi] += 2;
                }
                if !locked[wi] {
                    heap.push((gain[wi], w));
                }
            }
            moves.push(v);
            if (t_lo..=t_hi).contains(&sizes[1]) && running < best {
                best = running;
                best_prefix = moves.len();
            }
        }
        for &v in moves[best_prefix..].iter().rev() {
            side[v as usize] = !side[v as usize];
        }
        *cut = best as usize;
        best < start_cut
    }

    /// Refines `side` with both passes in lock step and asserts that every
    /// pass agrees on `improved`, `cut` and the whole assignment. Returns
    /// the number of passes.
    fn assert_passes_agree(g: &Csr, side: &[bool], t_lo: usize, t_hi: usize, what: &str) -> usize {
        let (mut a, mut b) = (side.to_vec(), side.to_vec());
        let (mut cut_a, mut cut_b) = (cut_size(g, &a), cut_size(g, &b));
        let mut scratch = FmScratch::new(g.vertex_count(), g.max_degree());
        for pass in 1.. {
            let improved_a = fm_pass(g, &mut a, &mut cut_a, t_lo, t_hi, &mut scratch);
            let improved_b = fm_pass_heap(g, &mut b, &mut cut_b, t_lo, t_hi);
            assert_eq!(improved_a, improved_b, "{what}, pass {pass}: improved");
            assert_eq!(cut_a, cut_b, "{what}, pass {pass}: cut");
            assert_eq!(a, b, "{what}, pass {pass}: side");
            assert_eq!(cut_a, cut_size(g, &a), "{what}, pass {pass}: cut vs side");
            let ones = a.iter().filter(|&&s| s).count();
            assert!(
                (t_lo..=t_hi).contains(&ones),
                "{what}, pass {pass}: balance"
            );
            if !improved_a {
                return pass;
            }
        }
        unreachable!()
    }

    /// `n` in 2..70, edge density 0.05–0.9 scaled by a per-vertex weight
    /// (irregular degrees), some vertices isolated outright.
    fn random_graph(rng: &mut StdRng) -> Csr {
        let n = rng.gen_range(2..70usize);
        let density = rng.gen_range(0.05..0.9);
        let weight: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,           // isolated
                1 => 1.0 / density, // hub
                _ => rng.gen_range(0.2..1.0),
            })
            .collect();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool((density * weight[u] * weight[v]).min(1.0)) {
                    b.add_edge(u as u32, v as u32);
                }
            }
        }
        b.build()
    }

    #[test]
    fn bucket_pass_equals_heap_pass_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0xF1D0);
        let mut passes = 0;
        for case in 0..450 {
            let g = random_graph(&mut rng);
            let n = g.vertex_count();
            let lo = rng.gen_range(0..n);
            let exact = (0..=n)
                .filter(|&t| t != n / 2)
                .nth(rng.gen_range(0..n))
                .unwrap();
            let targets = [
                (n / 2, n / 2 + n % 2),          // balanced
                (lo, rng.gen_range(lo + 1..=n)), // inexact interval
                (exact, exact),                  // exact, off-centre
            ];
            for (t_lo, t_hi) in targets {
                let ones = rng.gen_range(t_lo..=t_hi);
                let side = random_sides(n, ones, &mut rng);
                let what = format!("case {case} n={n} target {t_lo}..={t_hi} from {ones}");
                passes += assert_passes_agree(&g, &side, t_lo, t_hi, &what);
            }
        }
        // Refinement happened: most starts need more than the final,
        // non-improving pass.
        assert!(passes > 2 * 450 * 3 / 2, "only {passes} passes");
    }

    #[test]
    fn bucket_pass_equals_heap_pass_across_many_words() {
        // 993 vertices = 16 words per bucket row: the per-row word cursor
        // has to follow members leaving from the top and arriving anywhere.
        for seed in [1u64, 2, 3] {
            let g = crate::random_regular::random_regular(993, 32, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let side = random_sides(993, 496, &mut rng);
            let passes = assert_passes_agree(&g, &side, 496, 497, &format!("rrg seed {seed}"));
            assert!(passes > 2);
            let spectral = spectral_seed(&g, seed, 496, 32);
            assert_passes_agree(&g, &spectral, 496, 497, &format!("rrg spectral {seed}"));
        }
    }

    #[test]
    fn bucket_rows_follow_the_gains_that_occur() {
        // A 5 000-leaf star has Δ = 5 000, so 10 001 possible gain values,
        // but only the hub's and ±1 ever occur: the buckets must not cost
        // (2Δ + 1) · n bits.
        let leaves = 5_000u32;
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for leaf in 1..=leaves {
            b.add_edge(0, leaf);
        }
        let g = b.build();
        let n = g.vertex_count();
        let mut side = spectral_seed(&g, 3, n / 2, g.max_degree());
        let mut cut = cut_size(&g, &side);
        let mut scratch = FmScratch::new(n, g.max_degree());
        while fm_pass(&g, &mut side, &mut cut, n / 2, n / 2 + 1, &mut scratch) {}
        assert_eq!(cut, n / 2); // the hub's side keeps ⌊n/2⌋ leaves off it
        assert_eq!(cut, cut_size(&g, &side));
        let allocated = scratch
            .buckets
            .rows
            .iter()
            .filter(|r| !r.is_empty())
            .count();
        assert!(allocated <= 8, "{allocated} rows allocated");
        assert_eq!(bisect(&g, 1, 3).cut_edges, n / 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = dumbbell(3);
        let a = bisect(&g, 4, 9);
        let b = bisect(&g, 4, 9);
        assert_eq!(a.side, b.side);
        assert_eq!(a.cut_edges, b.cut_edges);
    }
}
