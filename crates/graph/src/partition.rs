//! Balanced graph bisection — the METIS substitute for Fig. 12.
//!
//! The paper measures bisection bandwidth as the fraction of edges crossing
//! a balanced 2-way partition computed by METIS. METIS is an external C
//! library, so this module provides an equivalent-quality bisection:
//!
//! 1. **Spectral seeding** — the Fiedler vector of the graph Laplacian,
//!    computed by shifted power iteration with deflation of the constant
//!    eigenvector, split at its median value;
//! 2. **Fiduccia–Mattheyses refinement** — single-vertex moves with a
//!    max-gain heap, locking, and best-prefix rollback, iterated to a fixed
//!    point;
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
use std::collections::BinaryHeap;

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

    let spectral = {
        let mut side = spectral_seed(g, seed, t_lo);
        let cut = fm_refine(g, &mut side, t_lo, t_hi);
        (side, cut)
    };

    let best_random = (0..restarts as u64)
        .into_par_iter()
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed ^ (r + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut side = random_sides(n, t_lo, &mut rng);
            let cut = fm_refine(g, &mut side, t_lo, t_hi);
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
        .iter()
        .filter(|&&(u, v)| side[u as usize] != side[v as usize])
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
fn spectral_seed(g: &Csr, seed: u64, ones: usize) -> Vec<bool> {
    let n = g.vertex_count();
    let sigma = 2.0 * g.max_degree() as f64 + 1.0;
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
fn fm_refine(g: &Csr, side: &mut [bool], t_lo: usize, t_hi: usize) -> usize {
    let mut cut = cut_size(g, side);
    loop {
        let improved = fm_pass(g, side, &mut cut, t_lo, t_hi);
        if !improved {
            return cut;
        }
    }
}

/// A single FM pass: move every vertex once (max-gain first, balance
/// respected), tracking the best prefix of moves whose `true`-side count
/// lands in `[t_lo, t_hi]`; roll back the suffix. When the target is
/// exact (`t_lo == t_hi`) each side gets one vertex of transient slack —
/// with an inexact target the interval itself is the slack. With
/// `t_lo = ⌊n/2⌋, t_hi = ⌈n/2⌉` both rules reduce to the classic
/// balanced-bisection pass (each side capped at `⌊n/2⌋ + 1`).
fn fm_pass(g: &Csr, side: &mut [bool], cut: &mut usize, t_lo: usize, t_hi: usize) -> bool {
    let n = g.vertex_count();
    // gain[v] = external(v) − internal(v): cut delta of moving v.
    let mut gain: Vec<i32> = (0..n)
        .map(|v| {
            let mut ext = 0i32;
            for &w in g.neighbors(v as u32) {
                if side[w as usize] != side[v] {
                    ext += 1;
                } else {
                    ext -= 1;
                }
            }
            ext
        })
        .collect();

    let mut sizes = [0usize; 2];
    for &s in side.iter() {
        sizes[s as usize] += 1;
    }
    let slack = usize::from(t_lo == t_hi);
    let max_size = [n - t_lo + slack, t_hi + slack]; // per-side caps

    // Max-heap with lazy invalidation: entries carry the gain they were
    // pushed with; stale entries are skipped on pop.
    let mut heap: BinaryHeap<(i32, u32)> = (0..n as u32).map(|v| (gain[v as usize], v)).collect();
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

    #[test]
    fn deterministic_in_seed() {
        let g = dumbbell(3);
        let a = bisect(&g, 4, 9);
        let b = bisect(&g, 4, 9);
        assert_eq!(a.side, b.side);
        assert_eq!(a.cut_edges, b.cut_edges);
    }
}
