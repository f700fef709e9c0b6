//! Permutation contract: every `DestMap::Fixed` traffic pattern maps the
//! hosts onto the hosts bijectively, never sends a host to itself, and
//! leaves non-host routers unassigned — for every host count, for sparse
//! host subsets and for any seed. A collision would load one destination
//! twice and skew a permutation experiment without any error.

use pf_graph::{Csr, GraphBuilder};
use pf_sim::traffic::{resolve, DestMap, TrafficPattern};
use proptest::prelude::*;

/// The patterns that resolve to a fixed per-source destination on any
/// graph (the hop-exact permutations additionally need the graph to admit
/// a matching and are exercised separately).
const FIXED_PATTERNS: &[TrafficPattern] =
    &[TrafficPattern::Tornado, TrafficPattern::RandomPermutation];

fn ring(n: usize) -> Csr {
    let mut b = GraphBuilder::new(n);
    for i in 0..n as u32 {
        b.add_edge(i, (i + 1) % n as u32);
    }
    b.build()
}

/// Panics unless `dm` maps `hosts` onto `hosts` bijectively with no
/// self-sends and leaves non-hosts unassigned.
fn assert_host_derangement(dm: &DestMap, n: usize, hosts: &[u32], label: &str) {
    let DestMap::Fixed { dest } = dm else {
        panic!("{label}: expected DestMap::Fixed");
    };
    assert_eq!(dest.len(), n, "{label}: map not router-indexed");
    let is_host: Vec<bool> = {
        let mut v = vec![false; n];
        for &r in hosts {
            v[r as usize] = true;
        }
        v
    };
    let mut hit = vec![false; n];
    for r in 0..n as u32 {
        let d = dest[r as usize];
        if !is_host[r as usize] {
            assert_eq!(d, u32::MAX, "{label}: non-host {r} got a destination");
            continue;
        }
        assert_ne!(d, u32::MAX, "{label}: host {r} has no destination");
        assert_ne!(d, r, "{label}: self-send at host {r}");
        assert!(
            is_host[d as usize],
            "{label}: host {r} targets non-host {d}"
        );
        assert!(
            !hit[d as usize],
            "{label}: destination {d} receives from two senders"
        );
        hit[d as usize] = true;
    }
    // Onto: every host is someone's destination.
    for &r in hosts {
        assert!(hit[r as usize], "{label}: host {r} receives nothing");
    }
}

/// For every fixed pattern and every host count 4..=200, the resolved map
/// is a self-send-free bijection (odd and even H, square and non-square).
#[test]
fn every_fixed_pattern_is_a_derangement_for_all_host_counts() {
    for h in 4..=200usize {
        let g = ring(h);
        let hosts: Vec<u32> = (0..h as u32).collect();
        for &pat in FIXED_PATTERNS {
            let dm = resolve(pat, &g, &hosts, 0xC0FFEE ^ h as u64);
            assert_host_derangement(&dm, h, &hosts, &format!("{pat:?} H={h}"));
        }
    }
}

/// Patterns index hosts by *position*, so the bijection must also hold
/// when the host routers are a sparse, non-contiguous subset (e.g. edge
/// switches of an indirect network).
#[test]
fn fixed_patterns_are_bijective_over_sparse_host_subsets() {
    for h in [4usize, 5, 9, 12, 31] {
        let n = 3 * h + 2;
        let g = ring(n);
        let hosts: Vec<u32> = (0..h as u32).map(|i| 3 * i + 1).collect();
        for &pat in FIXED_PATTERNS {
            let dm = resolve(pat, &g, &hosts, 7);
            assert_host_derangement(&dm, n, &hosts, &format!("{pat:?} sparse H={h}"));
        }
    }
}

/// Hop-exact permutations on rings (where `i → i ± k` matchings always
/// exist) must also be derangements.
#[test]
fn hop_exact_permutations_are_derangements() {
    for h in [5usize, 8, 13, 20, 33, 64] {
        let g = ring(h);
        let hosts: Vec<u32> = (0..h as u32).collect();
        for pat in [TrafficPattern::Perm1Hop, TrafficPattern::Perm2Hop] {
            let dm = resolve(pat, &g, &hosts, 3);
            assert_host_derangement(&dm, h, &hosts, &format!("{pat:?} H={h}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized restatement of the exhaustive sweep: arbitrary host
    /// count and seed, arbitrary stride-induced host subset.
    #[test]
    fn derangement_property_holds_for_random_instances(
        h in 4usize..120,
        stride in 1usize..4,
        seed in 0u64..1u64 << 48,
    ) {
        let n = h * stride;
        let g = ring(n);
        let hosts: Vec<u32> = (0..h as u32).map(|i| i * stride as u32).collect();
        for &pat in FIXED_PATTERNS {
            let dm = resolve(pat, &g, &hosts, seed);
            assert_host_derangement(&dm, n, &hosts, &format!("{pat:?} H={h} stride={stride}"));
        }
    }
}
