//! Slim Fly — the McKay–Miller–Širáň (MMS) diameter-2 family (Besta &
//! Hoefler, SC'14), the paper's most competitive baseline.
//!
//! For a prime power `q = 4w + δ`, `δ ∈ {−1, 0, 1}`, the MMS graph has
//! `N = 2q²` routers of degree `k = (3q − δ)/2` and diameter 2 — 8/9 of
//! the Moore bound asymptotically. Routers form two parts of `q` "columns"
//! × `q` rows:
//!
//! * `(0, x, y) ~ (0, x, y′)`  iff `y − y′ ∈ X`
//! * `(1, m, c) ~ (1, m, c′)`  iff `c − c′ ∈ X′`
//! * `(0, x, y) ~ (1, m, c)`   iff `y = m·x + c` (arithmetic in `F_q`)
//!
//! where `X, X′ ⊆ F_q*` are symmetric generator sets of size `(q − δ)/2`.
//! Diameter 2 is *equivalent* to the algebraic conditions (derived from the
//! case analysis of common neighbors):
//!
//! 1. `X ∪ X′ = F_q*` (cross-part pairs), and
//! 2. `F_q* \ X ⊆ X − X` and `F_q* \ X′ ⊆ X′ − X′` (same-column pairs).
//!
//! The SC'14 paper spells the sets out for `q ≡ 1 (mod 4)` (quadratic
//! residues / non-residues); for the other residues we construct the
//! standard candidates from powers of a primitive element and *verify* the
//! conditions, falling back to a bounded seeded search — every constructed
//! instance is therefore diameter-2 by checked construction, not by faith.

use pf_galois::Gf;
use pf_graph::{Csr, GraphBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::Topology;

/// Errors from [`SlimFly::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlimFlyError {
    /// `q` is not a prime power.
    NotPrimePower(u64),
    /// `q ≡ 2 (mod 4)` (only `q = 2`, which has no MMS parameters).
    BadResidue(u64),
    /// No valid generator sets found within the search budget.
    NoGeneratorSets(u64),
}

impl std::fmt::Display for SlimFlyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlimFlyError::NotPrimePower(q) => write!(f, "q = {q} is not a prime power"),
            SlimFlyError::BadResidue(q) => write!(f, "q = {q} ≡ 2 (mod 4) is not an MMS parameter"),
            SlimFlyError::NoGeneratorSets(q) => {
                write!(f, "no MMS generator sets found for q = {q}")
            }
        }
    }
}

impl std::error::Error for SlimFlyError {}

/// Slim Fly (MMS) constructor.
///
/// # Examples
///
/// ```
/// use pf_topo::SlimFly;
///
/// // The paper's Table V baseline: q = 23 → 1058 routers of radix 35.
/// let sf = SlimFly::new(23, 18).unwrap();
/// assert_eq!(sf.router_count(), 1058);
/// assert_eq!(sf.graph().max_degree(), 35);
/// ```
pub enum SlimFly {}

impl SlimFly {
    /// Builds the MMS graph for prime power `q` with `p` endpoints per
    /// router.
    pub fn new(q: u64, p: usize) -> Result<Topology, SlimFlyError> {
        let (field, x, xp) = generator_sets(q)?;
        let name = format!("SF(q={},p={p})", field.order());
        Ok(Topology::uniform(name, build_graph(&field, &x, &xp), p))
    }
}

/// `δ` with `q = 4w + δ`.
fn delta(q: u64) -> Result<i32, SlimFlyError> {
    match q % 4 {
        1 => Ok(1),
        3 => Ok(-1),
        0 => Ok(0),
        _ => Err(SlimFlyError::BadResidue(q)),
    }
}

/// The field of order `q` and validated generator sets `(X, X′)`.
fn generator_sets(q: u64) -> Result<(Gf, Vec<u32>, Vec<u32>), SlimFlyError> {
    let field = Gf::new(q).map_err(|_| SlimFlyError::NotPrimePower(q))?;
    let (x, xp) = find_generator_sets(&field, delta(q)?).ok_or(SlimFlyError::NoGeneratorSets(q))?;
    Ok((field, x, xp))
}

/// Router id of `(part, col, row)`.
fn router_id(q: u32, part: u32, col: u32, row: u32) -> u32 {
    part * q * q + col * q + row
}

/// Checks the two diameter-2 conditions plus symmetry and size.
fn valid_sets(f: &Gf, x: &[u32], xp: &[u32], delta: i32) -> bool {
    let q = f.order() as i64;
    let want = ((q - delta as i64) / 2) as usize;
    if x.len() != want || xp.len() != want {
        return false;
    }
    let mut in_x = vec![false; f.order() as usize];
    let mut in_xp = vec![false; f.order() as usize];
    for &e in x {
        if e == 0 || in_x[e as usize] {
            return false;
        }
        in_x[e as usize] = true;
    }
    for &e in xp {
        if e == 0 || in_xp[e as usize] {
            return false;
        }
        in_xp[e as usize] = true;
    }
    // Symmetry: X = −X, X′ = −X′.
    for e in 1..f.order() {
        if in_x[e as usize] != in_x[f.neg(e) as usize] {
            return false;
        }
        if in_xp[e as usize] != in_xp[f.neg(e) as usize] {
            return false;
        }
    }
    // Condition 1: X ∪ X′ covers F_q*.
    for e in 1..f.order() {
        if !in_x[e as usize] && !in_xp[e as usize] {
            return false;
        }
    }
    // Condition 2: every non-member difference is reachable as a member
    // difference (same-column 2-hop paths exist).
    for (members, set) in [(&in_x, x), (&in_xp, xp)] {
        let mut diffs = vec![false; f.order() as usize];
        for &a in set {
            for &b in set {
                diffs[f.sub(a, b) as usize] = true;
            }
        }
        for e in 1..f.order() {
            if !members[e as usize] && !diffs[e as usize] {
                return false;
            }
        }
    }
    true
}

/// Produces validated generator sets: known closed-form candidates first,
/// then a bounded seeded search over symmetric sets.
fn find_generator_sets(f: &Gf, delta: i32) -> Option<(Vec<u32>, Vec<u32>)> {
    let q = f.order();
    let omega = f.generator();
    let n = q - 1; // multiplicative group order

    let powers: Vec<u32> = {
        let mut acc = 1u32;
        (0..n)
            .map(|_| {
                let v = acc;
                acc = f.mul(acc, omega);
                v
            })
            .collect()
    };

    let mut candidates: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    match delta {
        1 => {
            // Quadratic residues vs non-residues (Besta & Hoefler §3).
            let x: Vec<u32> = (0..n).step_by(2).map(|i| powers[i as usize]).collect();
            let xp: Vec<u32> = (1..n).step_by(2).map(|i| powers[i as usize]).collect();
            candidates.push((x, xp));
        }
        -1 => {
            // q = 4w − 1: X = {±ω^{2j}}, X′ = {±ω^{2j+1}}, j < w.
            let w = (q + 1) / 4;
            let sym = |start: u32| -> Vec<u32> {
                let mut out = Vec::with_capacity(2 * w as usize);
                for j in 0..w {
                    let e = powers[((start + 2 * j) % n) as usize];
                    out.push(e);
                    out.push(f.neg(e));
                }
                out.sort_unstable();
                out.dedup();
                out
            };
            candidates.push((sym(0), sym(1)));
            candidates.push((sym(1), sym(0)));
        }
        0 => {
            // q = 2^s: {even exponents} / {odd exponents} of sizes q/2 —
            // 2 is coprime to the odd group order so both hit q/2 values.
            let x: Vec<u32> = (0..q / 2).map(|j| powers[((2 * j) % n) as usize]).collect();
            let xp: Vec<u32> = (0..q / 2)
                .map(|j| powers[((2 * j + 1) % n) as usize])
                .collect();
            candidates.push((x, xp));
        }
        _ => unreachable!(),
    }

    for (x, xp) in &candidates {
        if valid_sets(f, x, xp, delta) {
            return Some((x.clone(), xp.clone()));
        }
    }

    // Bounded seeded search: random symmetric sets of the right size.
    let want = ((q as i64 - delta as i64) / 2) as usize;
    let mut rng = StdRng::seed_from_u64(0x5F17_u64 ^ u64::from(q));
    for _ in 0..20_000 {
        let (x, xp) = random_symmetric_pair(f, want, &mut rng);
        if valid_sets(f, &x, &xp, delta) {
            return Some((x, xp));
        }
    }
    None
}

/// Draws a random symmetric set of size `want` and pairs it with a second
/// random symmetric set biased to cover the complement.
fn random_symmetric_pair(f: &Gf, want: usize, rng: &mut StdRng) -> (Vec<u32>, Vec<u32>) {
    let draw = |rng: &mut StdRng, forced: &[u32]| -> Vec<u32> {
        let mut pool: Vec<u32> = (1..f.order()).collect();
        pool.shuffle(rng);
        let mut set = vec![false; f.order() as usize];
        let mut out: Vec<u32> = Vec::with_capacity(want);
        let push_pair = |e: u32, out: &mut Vec<u32>, set: &mut Vec<bool>| {
            if !set[e as usize] {
                set[e as usize] = true;
                out.push(e);
                let ne = f.neg(e);
                if !set[ne as usize] {
                    set[ne as usize] = true;
                    out.push(ne);
                }
            }
        };
        for &e in forced {
            if out.len() >= want {
                break;
            }
            push_pair(e, &mut out, &mut set);
        }
        for &e in &pool {
            if out.len() >= want {
                break;
            }
            push_pair(e, &mut out, &mut set);
        }
        out.truncate(want);
        out
    };
    let x = draw(rng, &[]);
    // Bias X′ to contain the uncovered complement of X (condition 1).
    let mut missing: Vec<u32> = (1..f.order()).filter(|&e| !x.contains(&e)).collect();
    missing.shuffle(rng);
    let xp = draw(rng, &missing);
    (x, xp)
}

/// Materializes the MMS graph from validated generator sets.
fn build_graph(f: &Gf, x: &[u32], xp: &[u32]) -> Csr {
    let q = f.order();
    let id = |part: u32, col: u32, row: u32| router_id(q, part, col, row);
    let mut b = GraphBuilder::new(2 * (q as usize) * (q as usize));
    // Intra-column edges in both parts.
    for (part, set) in [(0u32, x), (1u32, xp)] {
        for col in 0..q {
            for row in 0..q {
                for &d in set {
                    let row2 = f.add(row, d);
                    if row < row2 {
                        b.add_edge(id(part, col, row), id(part, col, row2));
                    }
                }
            }
        }
    }
    // Cross edges: y = m·x + c.
    for xcol in 0..q {
        for m in 0..q {
            for c in 0..q {
                let y = f.add(f.mul(m, xcol), c);
                b.add_edge(id(0, xcol, y), id(1, m, c));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    fn check_instance(q: u64) {
        let sf = SlimFly::new(q, 1).unwrap();
        let n = 2 * q * q;
        assert_eq!(sf.router_count() as u64, n, "q={q}");
        // Network degree k = (3q − δ)/2.
        let k = (3 * q as i64 - i64::from(delta(q).unwrap())) / 2;
        assert!(sf.graph().is_regular(k as usize), "q={q} not regular");
        assert_eq!(bfs::diameter(sf.graph()), Some(2), "q={q} diameter");
    }

    #[test]
    fn delta_plus_one_instances() {
        for q in [5u64, 9, 13, 17] {
            check_instance(q);
        }
    }

    #[test]
    fn delta_minus_one_instances() {
        for q in [3u64, 7, 11, 19, 23] {
            check_instance(q);
        }
    }

    #[test]
    fn delta_zero_instances() {
        for q in [4u64, 8, 16] {
            check_instance(q);
        }
    }

    #[test]
    fn q5_is_hoffman_singleton() {
        // MMS(q=5) is the Hoffman–Singleton graph: 50 vertices, 7-regular,
        // diameter 2, girth 5 — i.e. a Moore graph: adjacent vertices share
        // 0 neighbors, non-adjacent share exactly 1.
        let sf = SlimFly::new(5, 1).unwrap();
        let g = sf.graph();
        assert_eq!(g.vertex_count(), 50);
        assert!(g.is_regular(7));
        for u in 0..50u32 {
            for v in (u + 1)..50u32 {
                let common = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| g.neighbors(v).binary_search(&w).is_ok())
                    .count();
                let expect = if g.has_edge(u, v) { 0 } else { 1 };
                assert_eq!(common, expect, "Moore-graph property violated at ({u},{v})");
            }
        }
    }

    #[test]
    fn table_v_configuration() {
        // Table V: SF q=23, p=18 → 1058 routers, network radix 35.
        let sf = SlimFly::new(23, 18).unwrap();
        assert_eq!(sf.router_count(), 1058);
        assert!(sf.graph().is_regular(35));
        assert_eq!(sf.total_endpoints(), 1058 * 18);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(
            SlimFly::new(6, 1).err(),
            Some(SlimFlyError::NotPrimePower(6))
        );
        assert_eq!(SlimFly::new(2, 1).err(), Some(SlimFlyError::BadResidue(2)));
    }

    #[test]
    fn construction_is_deterministic() {
        let a = SlimFly::new(11, 4).unwrap();
        let b = SlimFly::new(11, 4).unwrap();
        assert!(a.graph().edges().eq(b.graph().edges()));
        let (_, x1, xp1) = generator_sets(11).unwrap();
        let (_, x2, xp2) = generator_sets(11).unwrap();
        assert_eq!((x1, xp1), (x2, xp2));
    }

    #[test]
    fn router_id_layout_is_consistent() {
        assert_eq!(router_id(5, 0, 0, 0), 0);
        assert_eq!(router_id(5, 1, 0, 0), 25);
        assert_eq!(router_id(5, 1, 4, 4), 49);
    }

    #[test]
    fn generator_sets_are_symmetric_and_covering() {
        for q in [7u64, 9, 11, 16] {
            let (f, x, xp) = generator_sets(q).unwrap();
            let (x, xp) = (&x[..], &xp[..]);
            let mut covered = vec![false; q as usize];
            for &e in x.iter().chain(xp) {
                covered[e as usize] = true;
                assert!(x.contains(&f.neg(e)) || xp.contains(&f.neg(e)));
            }
            assert!((1..q as usize).all(|e| covered[e]), "q={q} cover");
        }
    }
}
