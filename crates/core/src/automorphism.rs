//! Automorphisms of `ER_q` from the orthogonal group of `F_q³`
//! (the symmetry machinery behind Theorem V.8 / Corollary V.9).
//!
//! A linear map `M ∈ GL(3, q)` permutes projective points; it preserves
//! `ER_q` adjacency whenever it preserves orthogonality up to scale, i.e.
//! `MᵀM = c·I` for some `c ≠ 0` (an orthogonal *similitude*). The paper
//! leans on this group twice: Theorem V.8 (transitivity on quadric-centred
//! 2-paths) powers the proof that every cluster triplet carries exactly
//! one triangle, and the same symmetry makes all layouts isomorphic.
//!
//! This module provides the matrix action, the similitude test, conversion
//! to vertex permutations, and orbit computation — tests verify that the
//! produced permutations are genuine graph automorphisms, that they
//! preserve the quadric set, and that small generator sets already act
//! transitively on quadrics (the layout-independence the paper uses).

use crate::er::PolarFly;
use pf_galois::{Gf, V3};

/// A 3×3 matrix over `F_q`, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mat3(pub [[u32; 3]; 3]);

impl Mat3 {
    /// The identity matrix.
    pub fn identity() -> Mat3 {
        Mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    }

    /// Matrix–vector product `M·v`.
    pub fn apply(&self, v: &V3, f: &Gf) -> V3 {
        let mut out = [0u32; 3];
        for (r, out_r) in out.iter_mut().enumerate() {
            let mut acc = 0;
            for c in 0..3 {
                acc = f.add(acc, f.mul(self.0[r][c], v.0[c]));
            }
            *out_r = acc;
        }
        V3(out)
    }

    /// Matrix product `self · other`.
    pub fn mul(&self, other: &Mat3, f: &Gf) -> Mat3 {
        let mut out = [[0u32; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                let mut acc = 0;
                for k in 0..3 {
                    acc = f.add(acc, f.mul(self.0[r][k], other.0[k][c]));
                }
                *cell = acc;
            }
        }
        Mat3(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.0;
        Mat3([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    /// Determinant over `F_q`.
    pub fn det(&self, f: &Gf) -> u32 {
        let m = &self.0;
        let t1 = f.mul(
            m[0][0],
            f.sub(f.mul(m[1][1], m[2][2]), f.mul(m[1][2], m[2][1])),
        );
        let t2 = f.mul(
            m[0][1],
            f.sub(f.mul(m[1][0], m[2][2]), f.mul(m[1][2], m[2][0])),
        );
        let t3 = f.mul(
            m[0][2],
            f.sub(f.mul(m[1][0], m[2][1]), f.mul(m[1][1], m[2][0])),
        );
        f.add(f.sub(t1, t2), t3)
    }

    /// Returns `Some(c)` when `MᵀM = c·I` with `c ≠ 0` — the similitude
    /// condition under which `M` preserves orthogonality (hence `ER_q`
    /// adjacency).
    pub fn similitude_factor(&self, f: &Gf) -> Option<u32> {
        let g = self.transpose().mul(self, f);
        let c = g.0[0][0];
        if c == 0 {
            return None;
        }
        for r in 0..3 {
            for col in 0..3 {
                let want = if r == col { c } else { 0 };
                if g.0[r][col] != want {
                    return None;
                }
            }
        }
        Some(c)
    }
}

/// Converts an orthogonal-similitude matrix into the vertex permutation it
/// induces on `ER_q`. Returns `None` when `M` is not a similitude (or is
/// singular).
pub fn vertex_permutation(pf: &PolarFly, m: &Mat3) -> Option<Vec<u32>> {
    let f = pf.field();
    m.similitude_factor(f)?;
    if m.det(f) == 0 {
        return None;
    }
    let n = pf.router_count();
    let mut perm = vec![0u32; n];
    for v in 0..n as u32 {
        let image = m.apply(&pf.vector(v), f);
        perm[v as usize] = pf.router_of(&image)?;
    }
    Some(perm)
}

/// Checks that `perm` is a graph automorphism of `pf`.
pub fn is_graph_automorphism(pf: &PolarFly, perm: &[u32]) -> bool {
    let g = pf.graph();
    if perm.len() != g.vertex_count() {
        return false;
    }
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if seen[p as usize] {
            return false; // not a bijection
        }
        seen[p as usize] = true;
    }
    g.edges()
        .all(|(u, v)| g.has_edge(perm[u as usize], perm[v as usize]))
}

/// A useful generating set of similitudes: the 3-cycle and swap
/// permutation matrices plus, for fields with a nontrivial Pythagorean
/// pair `a² + b² = 1`, the rotation `[[a,b,0],[−b,a,0],[0,0,1]]`.
pub fn standard_generators(f: &Gf) -> Vec<Mat3> {
    let mut gens = vec![
        Mat3([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), // coordinate 3-cycle
        Mat3([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), // swap x,y
    ];
    'outer: for a in 0..f.order() {
        for b in 1..f.order() {
            if f.add(f.mul(a, a), f.mul(b, b)) == 1 && a != 0 {
                gens.push(Mat3([[a, b, 0], [f.neg(b), a, 0], [0, 0, 1]]));
                break 'outer;
            }
        }
    }
    gens
}

/// The orbits of the vertex set under the group generated by `perms`
/// (union-find over generator images).
pub fn orbits(n: usize, perms: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for p in perms {
        for v in 0..n as u32 {
            let (a, b) = (find(&mut parent, v), find(&mut parent, p[v as usize]));
            if a != b {
                parent[a as usize] = b;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for v in 0..n as u32 {
        let root = find(&mut parent, v);
        groups.entry(root).or_default().push(v);
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexClass;

    #[test]
    fn permutation_matrices_are_automorphisms() {
        for q in [5u64, 7, 9, 11] {
            let pf = PolarFly::new(q).unwrap();
            for m in standard_generators(pf.field()) {
                assert!(m.similitude_factor(pf.field()).is_some(), "q={q}: {m:?}");
                let perm = vertex_permutation(&pf, &m).expect("similitude must act");
                assert!(is_graph_automorphism(&pf, &perm), "q={q}: {m:?}");
            }
        }
    }

    #[test]
    fn automorphisms_preserve_vertex_classes() {
        let pf = PolarFly::new(7).unwrap();
        for m in standard_generators(pf.field()) {
            let perm = vertex_permutation(&pf, &m).unwrap();
            for v in 0..pf.router_count() as u32 {
                // Quadricity is intrinsic (self-orthogonality, preserved
                // by similitudes); V1/V2 follow from adjacency.
                assert_eq!(pf.class(v), pf.class(perm[v as usize]), "vertex {v}");
            }
        }
    }

    #[test]
    fn non_similitude_is_rejected() {
        let pf = PolarFly::new(5).unwrap();
        // A shear: preserves neither the form nor adjacency.
        let shear = Mat3([[1, 1, 0], [0, 1, 0], [0, 0, 1]]);
        assert_eq!(shear.similitude_factor(pf.field()), None);
        assert!(vertex_permutation(&pf, &shear).is_none());
    }

    #[test]
    fn scalar_matrices_act_trivially() {
        let pf = PolarFly::new(7).unwrap();
        let f = pf.field();
        for c in 1..f.order() {
            let m = Mat3([[c, 0, 0], [0, c, 0], [0, 0, c]]);
            let perm = vertex_permutation(&pf, &m).unwrap();
            assert!(perm.iter().enumerate().all(|(i, &p)| i as u32 == p));
        }
    }

    #[test]
    fn quadrics_form_a_single_orbit() {
        // The transitivity the layout relies on: the similitude group
        // already moves every quadric to every other (so any starter
        // quadric gives an isomorphic layout).
        for q in [5u64, 7, 13] {
            let pf = PolarFly::new(q).unwrap();
            let perms: Vec<Vec<u32>> = standard_generators(pf.field())
                .iter()
                .filter_map(|m| vertex_permutation(&pf, m))
                .collect();
            assert!(!perms.is_empty());
            let orbs = orbits(pf.router_count(), &perms);
            // Find the orbit containing the first quadric; it must contain
            // all of them.
            let w0 = pf.quadrics()[0];
            let orb = orbs.iter().find(|o| o.contains(&w0)).unwrap();
            let quadrics_in_orbit = orb
                .iter()
                .filter(|&&v| pf.class(v) == VertexClass::Quadric)
                .count();
            assert_eq!(
                quadrics_in_orbit,
                pf.quadrics().len(),
                "q={q}: quadrics split across orbits"
            );
        }
    }

    #[test]
    fn matrix_algebra_sanity() {
        let f = pf_galois::Gf::new(7).unwrap();
        let id = Mat3::identity();
        let g = standard_generators(&f);
        for m in &g {
            assert_eq!(m.mul(&id, &f), *m);
            assert_eq!(id.mul(m, &f), *m);
            assert_ne!(m.det(&f), 0, "generators must be invertible");
        }
        // The 3-cycle cubed is the identity.
        let c3 = g[0];
        assert_eq!(c3.mul(&c3, &f).mul(&c3, &f), id);
    }
}
