//! Traffic patterns of §VIII-A.
//!
//! Patterns operate at *router* granularity (the paper's co-packaged
//! convention: under permutations, all endpoints of a router send to
//! endpoints of a single other router). Hosts are the routers with
//! endpoints attached — every router in direct topologies, edge switches
//! in the fat tree.
//!
//! The five patterns and the experiments that run them: `Uniform` (Fig. 8's
//! uniform panels, Figs. 10–11, the ablation study, every sweep),
//! `RandomPermutation` (Fig. 8), `Tornado` (Fig. 8, the ablation study) and
//! `Perm1Hop`/`Perm2Hop` (Fig. 9). A pattern enters this module with the
//! experiment that runs it.

use pf_graph::{bfs, matching, Csr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A traffic pattern from the paper's evaluation (§VIII-A); the module
/// doc names the experiment that runs each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Each packet picks a destination router uniformly at random.
    Uniform,
    /// Host `i` sends to host `(i + H/2) mod H` (§VIII-A "halfway across").
    Tornado,
    /// A fixed random permutation (derangement) of hosts.
    RandomPermutation,
    /// A permutation in which every router's destination is a 1-hop
    /// neighbor: min-paths of 1 hop, UGAL-PF Valiant paths of 4 hops.
    Perm1Hop,
    /// A permutation with destinations at exactly 2 hops.
    Perm2Hop,
}

impl std::fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl TrafficPattern {
    /// Short label used in result tables (also the [`std::fmt::Display`]
    /// form; keep `label()` where a `&'static str` is needed).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::RandomPermutation => "randperm",
            TrafficPattern::Perm1Hop => "perm1hop",
            TrafficPattern::Perm2Hop => "perm2hop",
        }
    }
}

/// A resolved traffic pattern: destination selection per source router.
pub enum DestMap {
    /// Uniform-random among `hosts` (excluding the source).
    Uniform {
        /// Routers with endpoints attached, ascending.
        hosts: Vec<u32>,
    },
    /// A fixed destination per source router.
    Fixed {
        /// `dest[r]` for every host router `r` (`u32::MAX` for non-hosts).
        dest: Vec<u32>,
    },
}

impl DestMap {
    /// Destination router for a packet sourced at host `src`.
    #[inline]
    pub fn pick<R: Rng>(&self, src: u32, rng: &mut R) -> u32 {
        match self {
            DestMap::Uniform { hosts } => {
                // `resolve` guarantees ≥ 2 hosts, so the rejection loop
                // terminates (it would spin forever on `hosts == [src]`).
                debug_assert!(hosts.len() >= 2);
                loop {
                    let d = hosts[rng.gen_range(0..hosts.len())];
                    if d != src {
                        return d;
                    }
                }
            }
            DestMap::Fixed { dest } => dest[src as usize],
        }
    }
}

/// Materializes a host-index permutation (host `i` sends to host
/// `perm[i]`, in `hosts` order) as a router-indexed [`DestMap`].
fn fixed_map(n: usize, hosts: &[u32], perm: impl IntoIterator<Item = usize>) -> DestMap {
    let mut dest = vec![u32::MAX; n];
    for (&r, j) in hosts.iter().zip(perm) {
        dest[r as usize] = hosts[j];
    }
    DestMap::Fixed { dest }
}

/// Resolves a pattern against a topology graph and its host list.
///
/// Every pattern needs at least two hosts (asserted here): a single-host
/// network has no self-send-free destination, and the Uniform rejection
/// sampler would spin forever on `hosts == [src]`.
///
/// Permutation patterns are seeded; `Perm1Hop`/`Perm2Hop` require a
/// perfect matching in the "exactly h hops" bipartite graph and panic if
/// the topology cannot realize one (the paper only uses them on PolarFly).
pub fn resolve(pattern: TrafficPattern, g: &Csr, hosts: &[u32], seed: u64) -> DestMap {
    let (n, h) = (g.vertex_count(), hosts.len());
    assert!(
        h >= 2,
        "traffic pattern {pattern:?} needs at least two hosts (got {h}): \
         every packet would have to self-send"
    );
    match pattern {
        TrafficPattern::Uniform => DestMap::Uniform {
            hosts: hosts.to_vec(),
        },
        TrafficPattern::Tornado => fixed_map(n, hosts, (0..h).map(|i| (i + h / 2) % h)),
        TrafficPattern::RandomPermutation => {
            let mut rng = StdRng::seed_from_u64(seed);
            // Random derangement by rejection (expected ~e tries).
            let perm = loop {
                let mut p: Vec<usize> = (0..h).collect();
                p.shuffle(&mut rng);
                if p.iter().enumerate().all(|(i, &j)| i != j) {
                    break p;
                }
            };
            fixed_map(n, hosts, perm)
        }
        TrafficPattern::Perm1Hop | TrafficPattern::Perm2Hop => {
            let want: u8 = if pattern == TrafficPattern::Perm1Hop {
                1
            } else {
                2
            };
            // Dense router → host-index map (`u32::MAX` for non-hosts).
            let mut host_index = vec![u32::MAX; n];
            for (i, &r) in hosts.iter().enumerate() {
                host_index[r as usize] = i as u32;
            }
            // Rows stream out of the all-pairs kernel 64 sources at a
            // time; each host's list keeps `hosts` order.
            let mut allowed = vec![Vec::new(); h];
            bfs::for_each_row_batch(g, |first, rows| {
                for (r, d) in (first as usize..).zip(rows.chunks(n)) {
                    if host_index[r] != u32::MAX {
                        allowed[host_index[r] as usize] = hosts
                            .iter()
                            .filter(|&&t| d[t as usize] == want)
                            .map(|&t| host_index[t as usize])
                            .collect();
                    }
                }
            });
            #[expect(
                clippy::panic,
                reason = "set-up-time rejection of a pattern the topology cannot carry, before any cycle runs"
            )]
            let m = matching::random_perfect_matching(h, allowed, seed)
                .unwrap_or_else(|| panic!("no {}-hop permutation exists for this topology", want));
            fixed_map(n, hosts, m.into_iter().map(|j| j as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::GraphBuilder;

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build()
    }

    fn hosts(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn tornado_is_antipodal() {
        let g = ring(8);
        let dm = resolve(TrafficPattern::Tornado, &g, &hosts(8), 0);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..8u32 {
            assert_eq!(dm.pick(i, &mut rng), (i + 4) % 8);
        }
    }

    #[test]
    fn random_permutation_is_derangement() {
        let g = ring(10);
        let dm = resolve(TrafficPattern::RandomPermutation, &g, &hosts(10), 5);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 10];
        for i in 0..10u32 {
            let d = dm.pick(i, &mut rng);
            assert_ne!(d, i);
            assert!(!seen[d as usize]);
            seen[d as usize] = true;
        }
    }

    #[test]
    fn perm_hops_have_exact_distance() {
        let g = ring(12);
        for (pat, want) in [
            (TrafficPattern::Perm1Hop, 1u8),
            (TrafficPattern::Perm2Hop, 2),
        ] {
            let dm = resolve(pat, &g, &hosts(12), 3);
            let mut rng = StdRng::seed_from_u64(0);
            for i in 0..12u32 {
                let d = dm.pick(i, &mut rng);
                assert_eq!(
                    bfs::bfs_distances(&g, i)[d as usize],
                    want,
                    "{pat:?} host {i}"
                );
            }
        }
    }

    #[test]
    fn perm_hops_on_a_sparse_host_set_stay_among_hosts() {
        // Hosts are every other router: the dense router → host-index map
        // must skip the non-hosts in between.
        let g = ring(12);
        let evens: Vec<u32> = (0..12).step_by(2).collect();
        let dm = resolve(TrafficPattern::Perm2Hop, &g, &evens, 3);
        assert_derangement(&dm, &evens, "perm2hop on even hosts");
        let DestMap::Fixed { dest } = dm else {
            panic!("checked by assert_derangement");
        };
        for &r in &evens {
            let d = dest[r as usize];
            assert_eq!(bfs::bfs_distances(&g, r)[d as usize], 2);
        }
        assert_eq!(dest[1], u32::MAX, "non-hosts stay unassigned");
    }

    #[test]
    fn uniform_never_self_targets() {
        let g = ring(6);
        let dm = resolve(TrafficPattern::Uniform, &g, &hosts(6), 0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let d = dm.pick(2, &mut rng);
            assert_ne!(d, 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn single_host_patterns_are_rejected_at_resolve_time() {
        // Previously `DestMap::pick` would spin forever on hosts == [src].
        let g = ring(4);
        resolve(TrafficPattern::Uniform, &g, &[2], 0);
    }

    /// Asserts `dm` is a self-send-free bijection over `hosts`.
    fn assert_derangement(dm: &DestMap, hosts: &[u32], label: &str) {
        let DestMap::Fixed { dest } = dm else {
            panic!("{label}: expected a fixed map");
        };
        let mut seen = std::collections::BTreeSet::new();
        for &r in hosts {
            let d = dest[r as usize];
            assert_ne!(d, u32::MAX, "{label}: host {r} unassigned");
            assert_ne!(d, r, "{label}: self-send at {r}");
            assert!(hosts.contains(&d), "{label}: {r} -> non-host {d}");
            assert!(seen.insert(d), "{label}: collision at destination {d}");
        }
    }
}
