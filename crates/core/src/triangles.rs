//! Triangle census and classification (paper §V-C).
//!
//! `ER_q` has exactly `C(q+1, 3)` triangles and no quadrangles. Under any
//! layout they split into `C(q, 2)` fan triangles internal to non-quadric
//! clusters and `C(q, 3)` inter-cluster triangles, with every non-quadric
//! cluster *triplet* joined by exactly one triangle (Theorem V.7) — a
//! `3-(q, 3, 1)` design on racks. Inter-cluster triangles are further
//! classified by the V1/V2 membership of their corners (Table II), which in
//! turn determines the class of the alternative-2-hop-path intermediate
//! between adjacent vertices (Table III).

use crate::er::{PolarFly, VertexClass};
use crate::layout::Layout;
use pf_graph::triangles as gt;

/// Complete triangle census of a laid-out PolarFly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangleCensus {
    /// Total triangles, `C(q+1, 3)`.
    pub total: u64,
    /// Triangles internal to one non-quadric cluster, `C(q, 2)`.
    pub intra_cluster: u64,
    /// Triangles joining three distinct non-quadric clusters, `C(q, 3)`.
    pub inter_cluster: u64,
    /// Inter-cluster counts per shape — how many corners lie in V1 vs
    /// V2 — ordered `[V1V1V1, V1V1V2, V1V2V2, V2V2V2]` (Table II columns).
    pub inter_by_type: [u64; 4],
}

fn binom3(n: u64) -> u64 {
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

fn binom2(n: u64) -> u64 {
    if n < 2 {
        0
    } else {
        n * (n - 1) / 2
    }
}

/// Closed-form expectations (Props. V.5/V.6 and Table II) for odd `q`.
pub fn expected_census(q: u64) -> TriangleCensus {
    let inter_by_type = if q % 4 == 1 {
        [q * (q - 1) * (q - 5) / 24, 0, q * (q - 1) * (q - 1) / 8, 0]
    } else {
        [0, q * (q - 1) * (q - 3) / 8, 0, (q + 1) * q * (q - 1) / 24]
    };
    TriangleCensus {
        total: binom3(q + 1),
        intra_cluster: binom2(q),
        inter_cluster: binom3(q),
        inter_by_type,
    }
}

/// Enumerates and classifies every triangle of `pf` under `layout`.
pub fn census(pf: &PolarFly, layout: &Layout) -> TriangleCensus {
    let mut total = 0u64;
    let mut intra = 0u64;
    let mut inter = 0u64;
    let mut by_type = [0u64; 4];
    gt::for_each(pf.graph(), |a, b, c| {
        total += 1;
        let (ca, cb, cc) = (
            layout.cluster_of(a),
            layout.cluster_of(b),
            layout.cluster_of(c),
        );
        if ca == cb && cb == cc {
            intra += 1;
        } else {
            debug_assert!(
                ca != cb && cb != cc && ca != cc,
                "Prop V.6: triangles never span exactly two clusters"
            );
            inter += 1;
            let v1s = [a, b, c]
                .iter()
                .filter(|&&v| pf.class(v) == VertexClass::V1)
                .count();
            by_type[3 - v1s] += 1;
        }
    });
    TriangleCensus {
        total,
        intra_cluster: intra,
        inter_cluster: inter,
        inter_by_type: by_type,
    }
}

/// Verifies Theorem V.7: every triplet of non-quadric clusters is joined by
/// exactly one triangle (the `3-(q,3,1)` block design).
pub fn cluster_triplet_design_holds(pf: &PolarFly, layout: &Layout) -> bool {
    let q = pf.q() as usize;
    // Map unordered triplet (i<j<k) of cluster ids (1-based) to a count.
    let idx = |i: usize, j: usize, k: usize| ((i * q + j) * q) + k;
    let mut counts = vec![0u32; q * q * q];
    let mut ok = true;
    gt::for_each(pf.graph(), |a, b, c| {
        let mut cs = [
            layout.cluster_of(a),
            layout.cluster_of(b),
            layout.cluster_of(c),
        ];
        cs.sort_unstable();
        if cs[0] == cs[1] {
            return; // intra-cluster
        }
        let (i, j, k) = (cs[0] as usize - 1, cs[1] as usize - 1, cs[2] as usize - 1);
        counts[idx(i, j, k)] += 1;
        if counts[idx(i, j, k)] > 1 {
            ok = false;
        }
    });
    if !ok {
        return false;
    }
    // Every triplet must be covered exactly once.
    for i in 0..q {
        for j in (i + 1)..q {
            for k in (j + 1)..q {
                if counts[idx(i, j, k)] != 1 {
                    return false;
                }
            }
        }
    }
    true
}

/// Table III: class of the intermediate vertex on the alternative 2-hop
/// path between two **adjacent non-quadric** vertices, as a function of the
/// endpoint classes. Returns `[[v1v1, v1v2], [v2v1, v2v2]]` entries.
pub fn intermediate_type_table(q: u64) -> [[VertexClass; 2]; 2] {
    use VertexClass::{V1, V2};
    if q % 4 == 1 {
        [[V1, V2], [V2, V1]]
    } else {
        [[V2, V1], [V1, V2]]
    }
}

/// Enumerates all adjacent non-quadric pairs and checks each one's
/// alternative-2-hop intermediate class against [`intermediate_type_table`].
pub fn verify_intermediate_types(pf: &PolarFly) -> bool {
    let table = intermediate_type_table(u64::from(pf.q()));
    let class_idx = |c: VertexClass| match c {
        VertexClass::V1 => 0usize,
        VertexClass::V2 => 1,
        VertexClass::Quadric => unreachable!(),
    };
    for (u, v) in pf.graph().edges() {
        if pf.is_quadric(u) || pf.is_quadric(v) {
            continue;
        }
        let mid = match pf.intermediate(u, v) {
            Some(m) => m,
            None => return false, // adjacent non-quadrics always have one
        };
        let expect = table[class_idx(pf.class(u))][class_idx(pf.class(v))];
        if pf.class(mid) != expect {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_closed_forms() {
        for q in [5u64, 7, 9, 11, 13, 17, 19] {
            let pf = PolarFly::new(q).unwrap();
            let layout = Layout::new(&pf);
            let measured = census(&pf, &layout);
            let expected = expected_census(q);
            assert_eq!(measured, expected, "q={q}");
            assert_eq!(
                measured.intra_cluster + measured.inter_cluster,
                measured.total
            );
            assert_eq!(
                measured.inter_by_type.iter().sum::<u64>(),
                measured.inter_cluster
            );
        }
    }

    #[test]
    fn theorem_v7_block_design() {
        for q in [5u64, 7, 9, 11, 13] {
            let pf = PolarFly::new(q).unwrap();
            let layout = Layout::new(&pf);
            assert!(cluster_triplet_design_holds(&pf, &layout), "q={q}");
        }
    }

    #[test]
    fn theorem_v7_is_layout_independent() {
        let pf = PolarFly::new(7).unwrap();
        for &w in pf.quadrics() {
            let layout = Layout::with_starter(&pf, w);
            assert!(cluster_triplet_design_holds(&pf, &layout));
        }
    }

    #[test]
    fn table_iii_intermediate_types() {
        for q in [5u64, 7, 9, 11, 13, 17, 19] {
            let pf = PolarFly::new(q).unwrap();
            assert!(verify_intermediate_types(&pf), "q={q}");
        }
    }

    #[test]
    fn quadric_edges_are_triangle_free() {
        // Property 1.5 via edge support: edges at quadrics lie in no
        // triangle; edges between non-quadrics lie in exactly one.
        let pf = PolarFly::new(9).unwrap();
        for (u, v) in pf.graph().edges() {
            let expect = if pf.is_quadric(u) || pf.is_quadric(v) {
                0
            } else {
                1
            };
            assert_eq!(gt::edge_support(pf.graph(), u, v), expect);
        }
    }

    #[test]
    fn intra_cluster_blade_composition_depends_on_q_mod_4() {
        // §V-C.2: fan triangles pair (V1,V1) or (V2,V2) with the center if
        // q ≡ 1 (mod 4), and (V1,V2) if q ≡ 3 (mod 4). Fig. 13 visualizes
        // this for q = 17 vs 19.
        for (q, mixed) in [
            (13u64, false),
            (17, false),
            (7, true),
            (11, true),
            (19, true),
        ] {
            let pf = PolarFly::new(q).unwrap();
            let layout = Layout::new(&pf);
            for i in 1..=q as u32 {
                for (_, a, b) in layout.fan_blades(&pf, i) {
                    let pair_mixed = pf.class(a) != pf.class(b);
                    assert_eq!(pair_mixed, mixed, "q={q}");
                }
            }
        }
    }
}
