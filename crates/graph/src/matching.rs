//! Bipartite maximum matching (Kuhn's augmenting-path algorithm).
//!
//! The Perm1Hop and Perm2Hop adversarial traffic patterns of §VIII require a
//! *permutation* of routers in which every router's destination lies at an
//! exact hop distance. That is a perfect matching in the bipartite graph
//! (sources × destinations, edges = allowed pairs); Kuhn's algorithm is
//! ample at the ≤ 1 000-router scale of the paper's configurations.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Maximum bipartite matching. `allowed[u]` lists right-side vertices that
/// left vertex `u` may match to (both sides indexed `0..n`). Returns
/// `match_of[u] = v` (or `u32::MAX` for unmatched).
pub fn maximum_matching(n: usize, allowed: &[Vec<u32>]) -> Vec<u32> {
    assert_eq!(allowed.len(), n);
    let mut match_left = vec![u32::MAX; n];
    let mut match_right = vec![u32::MAX; n];
    let mut visited = vec![u32::MAX; n]; // stamped by left vertex id

    fn try_augment(
        u: u32,
        allowed: &[Vec<u32>],
        match_left: &mut [u32],
        match_right: &mut [u32],
        visited: &mut [u32],
        stamp: u32,
    ) -> bool {
        for &v in &allowed[u as usize] {
            if visited[v as usize] == stamp {
                continue;
            }
            visited[v as usize] = stamp;
            let owner = match_right[v as usize];
            if owner == u32::MAX
                || try_augment(owner, allowed, match_left, match_right, visited, stamp)
            {
                match_left[u as usize] = v;
                match_right[v as usize] = u;
                return true;
            }
        }
        false
    }

    for u in 0..n as u32 {
        try_augment(
            u,
            allowed,
            &mut match_left,
            &mut match_right,
            &mut visited,
            u,
        );
    }
    match_left
}

/// A *random* perfect matching: adjacency lists are shuffled in place
/// with `seed` before running Kuhn's algorithm, so different seeds explore
/// different permutations. Returns `None` if no perfect matching exists.
pub fn random_perfect_matching(
    n: usize,
    mut allowed: Vec<Vec<u32>>,
    seed: u64,
) -> Option<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    for lst in &mut allowed {
        lst.shuffle(&mut rng);
    }
    let m = maximum_matching(n, &allowed);
    m.iter().all(|&v| v != u32::MAX).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_on_complete_bipartite() {
        let n = 6;
        let allowed: Vec<Vec<u32>> = (0..n).map(|_| (0..n as u32).collect()).collect();
        let m = maximum_matching(n, &allowed);
        let mut seen = vec![false; n];
        for &v in &m {
            assert!(v != u32::MAX);
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn detects_infeasibility() {
        // Two left vertices both restricted to right vertex 0.
        let allowed = vec![vec![0], vec![0], vec![1]];
        let m = maximum_matching(3, &allowed);
        let matched = m.iter().filter(|&&v| v != u32::MAX).count();
        assert_eq!(matched, 2);
        assert!(random_perfect_matching(3, allowed, 0).is_none());
    }

    #[test]
    fn respects_allowed_sets() {
        let allowed = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let m = random_perfect_matching(3, allowed.clone(), 5).unwrap();
        for (u, &v) in m.iter().enumerate() {
            assert!(allowed[u].contains(&v));
            assert_ne!(
                u as u32, v,
                "this instance is a derangement by construction"
            );
        }
    }

    #[test]
    fn different_seeds_vary() {
        let n = 16;
        let allowed: Vec<Vec<u32>> = (0..n).map(|_| (0..n as u32).collect()).collect();
        let a = random_perfect_matching(n, allowed.clone(), 1).unwrap();
        let b = random_perfect_matching(n, allowed, 2).unwrap();
        assert_ne!(a, b);
    }
}
