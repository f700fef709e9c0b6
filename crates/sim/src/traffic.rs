//! Traffic patterns of §VIII-A.
//!
//! Patterns operate at *router* granularity (the paper's co-packaged
//! convention: under permutations, all endpoints of a router send to
//! endpoints of a single other router). Hosts are the routers with
//! endpoints attached — every router in direct topologies, edge switches
//! in the fat tree.

use pf_graph::{bfs, matching, Csr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A traffic pattern from the paper's evaluation.
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
    /// Bit-complement: host `i` sends to host `H − 1 − i` (classic
    /// BookSim pattern; adversarial for meshes, benign for low-diameter
    /// graphs).
    BitComplement,
    /// Transpose: writing the host index as `(row, col)` of the nearest
    /// square, host `(r, c)` sends to `(c, r)`. Leftover fixed points —
    /// the square's diagonal and the tail beyond it — are completed into
    /// the permutation collision-free (paired among themselves by
    /// rotation; see `complete_permutation` in this module).
    Transpose,
    /// Perfect shuffle: host `i` sends to `(2i) mod (H − 1)`. For odd `H`
    /// the doubling map is 2-to-1 (gcd(2, H−1) = 2), so colliding senders
    /// and the leftover targets are completed collision-free the same way
    /// as [`TrafficPattern::Transpose`].
    Shuffle,
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
            TrafficPattern::BitComplement => "bitcomp",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Shuffle => "shuffle",
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

/// Sentinel marking an unassigned sender in a partial permutation.
const UNASSIGNED: usize = usize::MAX;

/// Completes a partial permutation over `0..h` (`UNASSIGNED` marks
/// senders without a target; assigned targets must be distinct) into a
/// self-send-free bijection, deterministically:
///
/// * the unused targets are distributed over the unassigned senders by
///   the first rotation offset that creates no fixed point — when the
///   leftovers are exactly the fixed points of the tentative map (as in
///   `Transpose`), this pairs them among themselves by rotation;
/// * a single leftover that is its own unused target (forced self-send)
///   is repaired by a 3-cycle through an assigned pair.
///
/// Panics only for `h < 2` with a forced self-send, which no caller can
/// reach (`resolve` rejects single-host patterns).
fn complete_permutation(perm: &mut [usize]) {
    let h = perm.len();
    let mut used = vec![false; h];
    for &p in perm.iter() {
        if p != UNASSIGNED {
            debug_assert!(!used[p], "partial permutation has a collision");
            used[p] = true;
        }
    }
    let senders: Vec<usize> = (0..h).filter(|&i| perm[i] == UNASSIGNED).collect();
    let targets: Vec<usize> = (0..h).filter(|&j| !used[j]).collect();
    debug_assert_eq!(senders.len(), targets.len());
    let k = senders.len();
    match k {
        0 => {}
        1 if senders[0] != targets[0] => perm[senders[0]] = targets[0],
        1 => {
            // Forced self-send: splice the leftover into an assigned pair
            // a → b, making the 3-cycle s → b, a → s. Every assigned
            // target differs from s (s's own slot is the only unused one),
            // so no new self-send can appear.
            let s = senders[0];
            #[expect(
                clippy::expect_used,
                reason = "set-up-time invariant of the derangement repair: h >= 2 with one leftover leaves an assigned sender"
            )]
            let a = (0..h)
                .find(|&a| a != s && perm[a] != UNASSIGNED)
                .expect("h >= 2 leaves an assigned sender to splice into");
            perm[s] = perm[a];
            perm[a] = s;
        }
        _ => {
            // A fixed-point-free rotation offset always exists for k ≥ 2:
            // each sender present among the targets forbids exactly one
            // offset, and either some sender is absent (≤ k−1 forbidden)
            // or senders == targets (only offset 0 forbidden).
            #[expect(
                clippy::expect_used,
                reason = "set-up-time invariant of the derangement repair, argued in the comment above"
            )]
            let r = (0..k)
                .find(|&r| (0..k).all(|j| targets[(j + r) % k] != senders[j]))
                .expect("a fixed-point-free rotation exists for k >= 2");
            for (j, &s) in senders.iter().enumerate() {
                perm[s] = targets[(j + r) % k];
            }
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
    let n = g.vertex_count();
    assert!(
        hosts.len() >= 2,
        "traffic pattern {:?} needs at least two hosts (got {}): \
         every packet would have to self-send",
        pattern,
        hosts.len()
    );
    match pattern {
        TrafficPattern::Uniform => DestMap::Uniform {
            hosts: hosts.to_vec(),
        },
        TrafficPattern::Tornado => {
            let h = hosts.len();
            fixed_map(n, hosts, (0..h).map(|i| (i + h / 2) % h))
        }
        TrafficPattern::RandomPermutation => {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = hosts.len();
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
        TrafficPattern::BitComplement => {
            // `i → h-1-i` is an involution with one fixed point for odd H;
            // the old `(i + h/2) % h` fallback for it collided with host
            // 0's image, so the fixed point is completed collision-free
            // instead (a 3-cycle through an assigned pair).
            let h = hosts.len();
            let mut perm = vec![UNASSIGNED; h];
            for (i, p) in perm.iter_mut().enumerate() {
                if h - 1 - i != i {
                    *p = h - 1 - i;
                }
            }
            complete_permutation(&mut perm);
            fixed_map(n, hosts, perm)
        }
        TrafficPattern::Transpose => {
            // The in-square transpose is an involution whose fixed points
            // are the diagonal; together with the tail beyond the square
            // they are completed collision-free (the old `h-1-i` fallback
            // chain collided with transposed images for non-square H).
            let h = hosts.len();
            let side = (h as f64).sqrt().floor() as usize;
            let mut perm = vec![UNASSIGNED; h];
            for (i, p) in perm.iter_mut().enumerate().take(side * side) {
                let (row, col) = (i / side, i % side);
                let j = col * side + row;
                if j != i {
                    *p = j;
                }
            }
            complete_permutation(&mut perm);
            fixed_map(n, hosts, perm)
        }
        TrafficPattern::Shuffle => {
            // First-come tentative doubling: a sender whose image is taken
            // (odd H makes the map 2-to-1) or is itself joins the
            // completion pool with the unused targets.
            let h = hosts.len();
            let mut perm = vec![UNASSIGNED; h];
            let mut used = vec![false; h];
            for (i, p) in perm.iter_mut().enumerate().take(h - 1) {
                let j = (2 * i) % (h - 1);
                if j != i && !used[j] {
                    *p = j;
                    used[j] = true;
                }
            }
            complete_permutation(&mut perm);
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
            let mut allowed = vec![Vec::new(); hosts.len()];
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
            let m = matching::random_perfect_matching(hosts.len(), &allowed, seed)
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
    fn bit_complement_is_an_involution_without_fixed_points() {
        let g = ring(10);
        let dm = resolve(TrafficPattern::BitComplement, &g, &hosts(10), 0);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..10u32 {
            let d = dm.pick(i, &mut rng);
            assert_ne!(d, i, "fixed point at {i}");
            if d == 10 - 1 - i {
                assert_eq!(dm.pick(d, &mut rng), i, "not an involution at {i}");
            }
        }
    }

    #[test]
    fn transpose_and_shuffle_have_no_self_sends() {
        let g = ring(16);
        for pat in [TrafficPattern::Transpose, TrafficPattern::Shuffle] {
            let dm = resolve(pat, &g, &hosts(16), 0);
            let mut rng = StdRng::seed_from_u64(0);
            for i in 0..16u32 {
                assert_ne!(dm.pick(i, &mut rng), i, "{pat:?} self-send at {i}");
            }
        }
    }

    #[test]
    fn transpose_swaps_square_coordinates() {
        let g = ring(16); // 4x4 square
        let dm = resolve(TrafficPattern::Transpose, &g, &hosts(16), 0);
        let mut rng = StdRng::seed_from_u64(0);
        // (row 1, col 2) = 6 -> (row 2, col 1) = 9
        assert_eq!(dm.pick(6, &mut rng), 9);
        assert_eq!(dm.pick(9, &mut rng), 6);
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

    #[test]
    fn transpose_is_bijective_for_nonsquare_host_counts() {
        // The old diagonal fallback `h-1-i` collided with transposed
        // images (e.g. H=6: fixed point 3 -> 2, but 1 -> 2 already).
        for h in [6, 7, 8, 9, 10, 12, 15] {
            let g = ring(h);
            let dm = resolve(TrafficPattern::Transpose, &g, &hosts(h), 0);
            assert_derangement(&dm, &hosts(h), &format!("transpose H={h}"));
        }
    }

    #[test]
    fn shuffle_is_bijective_for_odd_host_counts() {
        // For odd H the doubling map is 2-to-1 (gcd(2, H-1) = 2): e.g.
        // H=7 sent both 0 and 3 to 0 before the collision-free completion.
        for h in [5, 7, 9, 11, 13, 16, 21] {
            let g = ring(h);
            let dm = resolve(TrafficPattern::Shuffle, &g, &hosts(h), 0);
            assert_derangement(&dm, &hosts(h), &format!("shuffle H={h}"));
        }
    }

    #[test]
    fn shuffle_even_h_still_doubles() {
        // The doubling map is untouched where it was already injective.
        let g = ring(8);
        let dm = resolve(TrafficPattern::Shuffle, &g, &hosts(8), 0);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 1..7u32 {
            assert_eq!(dm.pick(i, &mut rng), (2 * i) % 7);
        }
    }

    #[test]
    fn completion_repairs_a_forced_self_send_with_a_three_cycle() {
        // Senders {2}, targets {2}: the single leftover is its own unused
        // target and must be spliced into an assigned pair.
        let mut perm = vec![1, 0, UNASSIGNED];
        complete_permutation(&mut perm);
        assert_eq!(perm, vec![2, 0, 1]);
    }

    #[test]
    fn completion_pairs_fixed_points_by_rotation() {
        // Senders == targets (all fixed points of a partial identity):
        // rotation offset 1 pairs them among themselves.
        let mut perm = vec![UNASSIGNED, 3, UNASSIGNED, 1, UNASSIGNED];
        complete_permutation(&mut perm);
        assert_eq!(perm, vec![2, 3, 4, 1, 0]);
    }
}
