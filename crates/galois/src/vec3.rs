//! Length-3 vectors over `F_q` and the projective plane `PG(2, q)`.
//!
//! The vertices of `ER_q` are the left-normalized nonzero vectors of `F_q³`
//! (first nonzero entry equal to 1) — one representative per projective
//! point. Edges are orthogonal pairs under the `F_q` dot product, and the
//! unique intermediate vertex of a 2-hop path is the (normalized) cross
//! product of the endpoints (paper §IV-D).
//!
//! Lines of `PG(2, q)` share the points' representatives: the line `b`
//! holds the points `x` with `b·x = 0` ([`line_points`]), so the
//! dot-product polarity `[a] ↦ [a]⊥` that halves the incidence graph
//! `B(q)` into `ER_q` (§IV-E) is the identity on coordinates. The plane's
//! axioms, each pinned by a test below:
//!
//! * `q² + q + 1` points and equally many lines;
//! * every line carries `q + 1` points, every point lies on `q + 1` lines;
//! * two distinct points span exactly one line, their normalized cross
//!   product; two distinct lines meet in exactly one point, likewise;
//! * the polarity is an involution (`(a⊥)⊥ = a`) exchanging incidence
//!   (`x ∈ a⊥ ⇔ a ∈ x⊥`);
//! * `q + 1` points are *absolute* (lie on their own polar line) — the
//!   quadrics of PolarFly.

use crate::field::Gf;

/// A vector in `F_q³`. Coordinates are field-element indices in `0..q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct V3(pub [u32; 3]);

impl V3 {
    /// The zero vector.
    pub const ZERO: V3 = V3([0, 0, 0]);

    /// Dot product `v · w` over `F_q`.
    #[inline]
    pub fn dot(&self, other: &V3, f: &Gf) -> u32 {
        let mut acc = 0u32;
        for i in 0..3 {
            acc = f.add(acc, f.mul(self.0[i], other.0[i]));
        }
        acc
    }

    /// Returns `true` iff `v · w = 0`.
    #[inline]
    pub fn orthogonal(&self, other: &V3, f: &Gf) -> bool {
        self.dot(other, f) == 0
    }

    /// Self-orthogonality: `v · v = 0`. Quadric vertices of `ER_q` are
    /// exactly the self-orthogonal projective points.
    #[inline]
    pub fn is_quadric(&self, f: &Gf) -> bool {
        self.orthogonal(self, f)
    }

    /// Scalar multiple `c · v`.
    #[inline]
    pub fn scale(&self, c: u32, f: &Gf) -> V3 {
        V3([
            f.mul(c, self.0[0]),
            f.mul(c, self.0[1]),
            f.mul(c, self.0[2]),
        ])
    }

    /// Cross product `v × w`; orthogonal to both operands — the algebraic
    /// route to the unique 2-hop intermediate vertex (paper Eq. 2).
    pub fn cross(&self, other: &V3, f: &Gf) -> V3 {
        let [a1, a2, a3] = self.0;
        let [b1, b2, b3] = other.0;
        V3([
            f.sub(f.mul(a2, b3), f.mul(a3, b2)),
            f.sub(f.mul(a3, b1), f.mul(a1, b3)),
            f.sub(f.mul(a1, b2), f.mul(a2, b1)),
        ])
    }

    /// Left-normalizes: scales so the first nonzero coordinate becomes 1.
    /// Returns `None` for the zero vector (which is not a projective point).
    pub fn normalize(&self, f: &Gf) -> Option<V3> {
        let lead = self.0.iter().copied().find(|&c| c != 0)?;
        Some(self.scale(f.inv(lead), f))
    }

    /// Returns `true` iff the first nonzero coordinate is 1.
    pub fn is_normalized(&self) -> bool {
        match self.0.iter().copied().find(|&c| c != 0) {
            Some(lead) => lead == 1,
            None => false,
        }
    }
}

/// Canonical indexing of the `q² + q + 1` left-normalized vectors (points of
/// `PG(2, q)`):
///
/// * indices `0 .. q²`     ↦ `[1, y, z]` with `idx = y·q + z`
/// * indices `q² .. q²+q`  ↦ `[0, 1, z]` with `z = idx − q²`
/// * index   `q² + q`      ↦ `[0, 0, 1]`
///
/// This bijection is the vertex numbering used by every PolarFly structure
/// in the workspace, so routing tables, layouts, and exports all agree.
#[derive(Debug, Clone)]
pub struct ProjectivePoints {
    q: u32,
}

impl ProjectivePoints {
    /// Point indexer for `PG(2, q)`.
    pub fn new(q: u32) -> Self {
        ProjectivePoints { q }
    }

    /// Number of projective points, `q² + q + 1`.
    #[inline]
    pub fn count(&self) -> usize {
        let q = self.q as usize;
        q * q + q + 1
    }

    /// The point with the given index. Panics if out of range.
    #[inline]
    pub fn point(&self, idx: usize) -> V3 {
        let q = self.q as usize;
        if idx < q * q {
            V3([1, (idx / q) as u32, (idx % q) as u32])
        } else if idx < q * q + q {
            V3([0, 1, (idx - q * q) as u32])
        } else if idx == q * q + q {
            V3([0, 0, 1])
        } else {
            panic!(
                "projective point index {idx} out of range for q = {}",
                self.q
            )
        }
    }

    /// The index of a **left-normalized** point.
    #[inline]
    pub fn index(&self, v: &V3) -> usize {
        debug_assert!(
            v.is_normalized(),
            "index() requires a left-normalized vector"
        );
        let q = self.q as usize;
        match v.0 {
            [1, y, z] => y as usize * q + z as usize,
            [0, 1, z] => q * q + z as usize,
            [0, 0, 1] => q * q + q,
            _ => unreachable!("non-normalized vector"),
        }
    }

    /// Normalizes an arbitrary nonzero vector and returns its index.
    pub fn index_of(&self, v: &V3, f: &Gf) -> Option<usize> {
        v.normalize(f).map(|n| self.index(&n))
    }

    /// Iterator over all points in index order.
    pub fn iter(&self) -> impl Iterator<Item = V3> + '_ {
        (0..self.count()).map(move |i| self.point(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_index_roundtrip() {
        for q in [2u64, 3, 4, 5, 7, 9, 11, 13] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            assert_eq!(pp.count(), (q * q + q + 1) as usize);
            for i in 0..pp.count() {
                let v = pp.point(i);
                assert!(v.is_normalized(), "point {i} not normalized for q={q}");
                assert_eq!(pp.index(&v), i);
            }
        }
    }

    #[test]
    fn normalization_matches_paper_example() {
        // §IV-C: in F_3³, [0,2,1] left-normalizes to [0,1,2].
        let f = Gf::new(3).unwrap();
        let v = V3([0, 2, 1]);
        assert_eq!(v.normalize(&f), Some(V3([0, 1, 2])));
    }

    #[test]
    fn dot_product_example_from_paper() {
        // §IV-C Fig. 4: [1,1,1]·[0,1,2] = 0+1+2 ≡ 0 (mod 3).
        let f = Gf::new(3).unwrap();
        assert!(V3([1, 1, 1]).orthogonal(&V3([0, 1, 2]), &f));
        // [1,1,1] is self-orthogonal in F_3 (a quadric).
        assert!(V3([1, 1, 1]).is_quadric(&f));
    }

    #[test]
    fn cross_product_is_orthogonal_to_operands() {
        for q in [3u64, 4, 5, 7, 9] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            for i in 0..pp.count() {
                for j in (i + 1)..pp.count() {
                    let (v, w) = (pp.point(i), pp.point(j));
                    let c = v.cross(&w, &f);
                    assert!(v.orthogonal(&c, &f));
                    assert!(w.orthogonal(&c, &f));
                    // distinct projective points are never multiples, so the
                    // cross product is nonzero
                    assert_ne!(c, V3::ZERO, "cross of distinct points vanished (q={q})");
                }
            }
        }
    }

    #[test]
    fn cross_product_intermediate_matches_paper_er3_example() {
        // §IV-D: in ER_3, the intermediate vertex between (0,0,1) and
        // (1,2,2) is (1,1,0).
        let f = Gf::new(3).unwrap();
        let s = V3([0, 0, 1]);
        let d = V3([1, 2, 2]);
        let mid = s.cross(&d, &f).normalize(&f).unwrap();
        assert_eq!(mid, V3([1, 1, 0]));
    }

    #[test]
    fn scaling_preserves_orthogonality() {
        let f = Gf::new(7).unwrap();
        let v = V3([1, 3, 2]);
        let w = V3([1, 4, 0]);
        let was = v.orthogonal(&w, &f);
        for c in 1..7 {
            assert_eq!(v.scale(c, &f).orthogonal(&w, &f), was);
        }
    }

    #[test]
    fn point_and_line_counts() {
        for q in [2u64, 3, 4, 5, 7, 9] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            assert_eq!(pp.count() as u64, q * q + q + 1);
            // Every line has q+1 points; every point is on q+1 lines.
            for (i, x) in pp.iter().enumerate() {
                assert_eq!(line_points(&x, &f).len() as u64, q + 1, "line {i}");
                let through = pp.iter().filter(|l| x.orthogonal(l, &f)).count();
                assert_eq!(through as u64, q + 1, "point {i}");
            }
        }
    }

    #[test]
    fn two_points_span_one_line() {
        for q in [3u64, 4, 5] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            let n = pp.count();
            for i in 0..n {
                for j in (i + 1)..n {
                    let (a, b) = (pp.point(i), pp.point(j));
                    let l = a
                        .cross(&b, &f)
                        .normalize(&f)
                        .expect("distinct points span a line");
                    assert!(a.orthogonal(&l, &f) && b.orthogonal(&l, &f));
                    // Uniqueness: no other line contains both.
                    let count = pp
                        .iter()
                        .filter(|cand| a.orthogonal(cand, &f) && b.orthogonal(cand, &f))
                        .count();
                    assert_eq!(count, 1, "points {i},{j} on {count} common lines");
                }
            }
        }
    }

    #[test]
    fn two_lines_meet_in_one_point() {
        let f = Gf::new(5).unwrap();
        let pp = ProjectivePoints::new(f.order());
        let n = pp.count();
        for i in 0..n {
            for j in (i + 1)..n {
                let (l1, l2) = (pp.point(i), pp.point(j));
                let x = l1.cross(&l2, &f).normalize(&f).unwrap();
                assert!(x.orthogonal(&l1, &f) && x.orthogonal(&l2, &f));
            }
        }
    }

    #[test]
    fn polarity_is_incidence_preserving_involution() {
        let f = Gf::new(7).unwrap();
        let pp = ProjectivePoints::new(f.order());
        let polar: Vec<Vec<V3>> = pp.iter().map(|a| line_points(&a, &f)).collect();
        for (i, a) in pp.iter().enumerate() {
            // Involution: the pole of a⊥, recovered from two of its
            // points, is a again.
            let on = &polar[i];
            assert_eq!(
                on[0].cross(&on[1], &f).normalize(&f),
                Some(a),
                "pole of {i}⊥"
            );
            for (j, x) in pp.iter().enumerate() {
                // x on a⊥ ⇔ a on x⊥.
                assert_eq!(
                    polar[i].contains(&x),
                    polar[j].contains(&a),
                    "polarity incidence symmetry failed at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn absolute_points_are_the_quadrics() {
        for q in [3u64, 5, 7, 9, 11] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            let mut absolute = 0;
            for a in pp.iter() {
                let on_own_polar = line_points(&a, &f).contains(&a);
                assert_eq!(on_own_polar, a.is_quadric(&f), "q={q} point {a:?}");
                absolute += usize::from(on_own_polar);
            }
            assert_eq!(absolute as u64, q + 1, "q={q}");
        }
    }

    #[test]
    fn quadric_count_is_q_plus_one() {
        // Property (paper §IV-F): |W(q)| = q + 1 for odd q.
        for q in [3u64, 5, 7, 9, 11, 13] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            let quadrics = pp.iter().filter(|v| v.is_quadric(&f)).count();
            assert_eq!(quadrics, (q + 1) as usize, "quadric count wrong for q={q}");
        }
    }
}

/// Enumerates the `q + 1` projective points on the line
/// `l⊥ = {x : l·x = 0}`, left-normalized, from a basis of the orthogonal
/// complement. This is both the line-incidence primitive of `PG(2, q)` and
/// the neighborhood generator of `ER_q` (a vertex's neighbors are the
/// points on its polar line).
pub fn line_points(l: &V3, f: &Gf) -> Vec<V3> {
    let [a, b, c] = l.0;
    let (e1, e2) = if a != 0 {
        // Scale-invariant: solve a·x1 = −(b·x2 + c·x3) with x2, x3 free.
        let ai = f.inv(a);
        (
            V3([f.neg(f.mul(ai, b)), 1, 0]),
            V3([f.neg(f.mul(ai, c)), 0, 1]),
        )
    } else if b != 0 {
        let bi = f.inv(b);
        (V3([1, 0, 0]), V3([0, f.neg(f.mul(bi, c)), 1]))
    } else {
        // l = [0, 0, c]: x3 = 0.
        (V3([1, 0, 0]), V3([0, 1, 0]))
    };
    debug_assert!(l.orthogonal(&e1, f) && l.orthogonal(&e2, f));

    let mut out = Vec::with_capacity(f.order() as usize + 1);
    for t in 0..f.order() {
        let p = V3([
            f.add(e1.0[0], f.mul(t, e2.0[0])),
            f.add(e1.0[1], f.mul(t, e2.0[1])),
            f.add(e1.0[2], f.mul(t, e2.0[2])),
        ]);
        out.push(
            p.normalize(f)
                .expect("e1 + t·e2 is nonzero for independent e1, e2"),
        );
    }
    out.push(e2.normalize(f).expect("basis vector is nonzero"));
    out
}

#[cfg(test)]
mod line_tests {
    use super::*;

    #[test]
    fn line_points_are_exactly_the_orthogonal_set() {
        for q in [3u64, 4, 5, 7, 8, 9] {
            let f = Gf::new(q).unwrap();
            let pp = ProjectivePoints::new(f.order());
            for i in 0..pp.count() {
                let l = pp.point(i);
                let pts = line_points(&l, &f);
                assert_eq!(pts.len() as u64, q + 1, "q={q} line {i}");
                let by_scan: std::collections::BTreeSet<V3> =
                    pp.iter().filter(|x| x.orthogonal(&l, &f)).collect();
                let by_basis: std::collections::BTreeSet<V3> = pts.into_iter().collect();
                assert_eq!(by_basis, by_scan, "q={q} line {i}");
            }
        }
    }
}
