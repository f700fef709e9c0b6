//! Seeded random k-regular graphs — the Jellyfish baseline.
//!
//! Jellyfish (NSDI'12) wires top-of-rack switches into a random regular
//! graph. We use the configuration (pairing) model followed by edge-swap
//! repair: after the initial random pairing, self-loops and parallel edges
//! are eliminated by swapping endpoints with randomly chosen good edges —
//! the standard practical construction, which keeps the degree sequence
//! exact. Deterministic for a given seed.

use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Generates a connected random `k`-regular graph on `n` vertices.
///
/// Requires `n·k` even and `k < n`. Retries (re-seeding deterministically)
/// until the repaired graph is simple and connected — for the parameter
/// ranges used in the paper (k ≥ 3) virtually always the first attempt.
pub fn random_regular(n: usize, k: usize, seed: u64) -> Csr {
    assert!(k < n, "degree must be below vertex count");
    assert!((n * k).is_multiple_of(2), "n*k must be even");
    for attempt in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt * 0x9E37_79B9));
        if let Some(g) = try_build(n, k, &mut rng) {
            if k <= 1 || g.is_connected() {
                return g;
            }
        }
    }
    panic!("failed to build a connected {k}-regular graph on {n} vertices");
}

fn try_build(n: usize, k: usize, rng: &mut StdRng) -> Option<Csr> {
    // Pairing model: k stubs per vertex, shuffled, paired consecutively.
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, k))
        .collect();
    stubs.shuffle(rng);
    let mut edges: Vec<(u32, u32)> = stubs
        .chunks_exact(2)
        .map(|c| {
            if c[0] < c[1] {
                (c[0], c[1])
            } else {
                (c[1], c[0])
            }
        })
        .collect();

    // Repair pass: swap bad edges (self-loops / duplicates) with random
    // good ones. Each successful swap strictly reduces the bad count.
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut bad: Vec<usize> = Vec::new();
    let mut is_bad = vec![false; edges.len()];
    for (i, &e) in edges.iter().enumerate() {
        if e.0 == e.1 || !seen.insert(e) {
            bad.push(i);
            is_bad[i] = true;
        }
    }
    let mut stall = 0usize;
    while let Some(&bi) = bad.last() {
        if stall > 50_000 {
            return None; // give up; caller reseeds
        }
        let (u, v) = edges[bi];
        let oi = rng.gen_range(0..edges.len());
        let (x, y) = edges[oi];
        if oi == bi || is_bad[oi] {
            stall += 1;
            continue;
        }
        // Propose replacing {u,v} (bad) and {x,y} (good) with {u,x}, {v,y}.
        let e1 = if u < x { (u, x) } else { (x, u) };
        let e2 = if v < y { (v, y) } else { (y, v) };
        if u == x || v == y || seen.contains(&e1) || seen.contains(&e2) || e1 == e2 {
            stall += 1;
            continue;
        }
        seen.remove(&(x, y));
        seen.insert(e1);
        seen.insert(e2);
        edges[bi] = e1;
        edges[oi] = e2;
        bad.pop();
        is_bad[bi] = false;
        stall = 0;
    }
    Some(Csr::from_edges(n, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_regular_connected_graphs() {
        for &(n, k) in &[(10usize, 3usize), (50, 4), (100, 7), (200, 16)] {
            let g = random_regular(n, k, 42);
            assert_eq!(g.vertex_count(), n);
            assert!(g.is_regular(k), "not {k}-regular");
            assert!(g.is_connected());
            assert_eq!(g.edge_count(), n * k / 2);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = random_regular(60, 5, 7);
        let b = random_regular(60, 5, 7);
        assert!(a.edges().eq(b.edges()));
        let c = random_regular(60, 5, 8);
        assert!(!a.edges().eq(c.edges()));
    }

    #[test]
    fn jellyfish_scale_config() {
        // The Table V Jellyfish config: 993 routers of network radix 32.
        // (n*k even requires care: 993*32 is even.)
        let g = random_regular(993, 32, 1);
        assert!(g.is_regular(32));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "n*k must be even")]
    fn rejects_odd_stub_count() {
        random_regular(5, 3, 0);
    }
}
