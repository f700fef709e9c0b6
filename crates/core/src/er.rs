//! Construction of the Erdős–Rényi polarity graph `ER_q` (paper §IV).
//!
//! Vertices are the `q² + q + 1` left-normalized vectors of `F_q³` (the
//! points of `PG(2, q)`) in [`ProjectivePoints`]' numbering — `[1, y, z]`
//! at `y·q + z`, `[0, 1, z]` at `q² + z`, `[0, 0, 1]` at `q² + q` — and two
//! vertices are adjacent iff their dot product vanishes, so a vertex's
//! neighbourhood is its polar line `v⊥`. Solving `v·w = 0` for
//! left-normalized `w` gives every row in closed form, **already in
//! ascending index order**:
//!
//! | `v`                  | `[1, y′, z′]` on `v⊥`            | `[0, 1, z′]` | `[0, 0, 1]` |
//! |----------------------|----------------------------------|--------------|-------------|
//! | `[1, y, z]`, `z ≠ 0` | every `y′`, `z′ = a·(1 + y·y′)`  | `z′ = a·y`   | —           |
//! | `[1, y, 0]`, `y ≠ 0` | `y′ = −1/y`, every `z′`          | —            | yes         |
//! | `[1, 0, 0]`          | —                                | every `z′`   | yes         |
//! | `[0, 1, z]`, `z ≠ 0` | every `y′`, `z′ = a·y′`          | `z′ = a`     | —           |
//! | `[0, 1, 0]`          | `y′ = 0`, every `z′`             | —            | yes         |
//! | `[0, 0, 1]`          | every `y′`, `z′ = 0`             | `z′ = 0`     | —           |
//!
//! with `a = −1/z` throughout.
//!
//! Each row lists the `[1, ·, ·]` block by ascending `y′` (or ascending
//! `z′` inside one `y′`), then the `[0, 1, ·]` block, then `[0, 0, 1]`,
//! which is ascending index order. A row has `q + 1` entries; it contains
//! `v` itself exactly when `v·v = 0` — that is how quadrics are found — and
//! the self entry is dropped (the self-loop is structural, not an edge).
//!
//! [`PolarFly::new`] therefore writes the CSR `neighbors` array directly:
//! one field inverse per row and one multiplication per entry (the factor
//! `1 + y·y′` is computed once per `y` and shared by its `q` rows), with
//! no edge list, no normalization and no sort — `O(N·q)` work and a fixed
//! handful of allocations per graph. The rows are then handed to
//! [`Csr::from_sorted_rows`], which re-checks range, order, self-loops and
//! symmetry in `O(E)`, so a wrong case in the table above fails at
//! construction. The independent route to the same graph — the polarity
//! quotient of the incidence graph `B(q)` built from
//! [`pf_galois::line_points`] — lives in [`crate::bipartite`].

use pf_galois::{Gf, GfError, ProjectivePoints, V3};
use pf_graph::{bfs, Csr};

/// Classification of an `ER_q` vertex (paper §IV-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexClass {
    /// Self-orthogonal ("quadric") vertex; `|W| = q + 1` for odd `q`.
    Quadric,
    /// Non-quadric adjacent to a quadric; `|V1| = q(q+1)/2` for odd `q`.
    V1,
    /// Non-quadric not adjacent to any quadric; `|V2| = q(q−1)/2`.
    V2,
}

/// The PolarFly topology: `ER_q` together with its field, point indexing,
/// and vertex classification.
#[derive(Clone)]
pub struct PolarFly {
    q: u32,
    field: Gf,
    points: ProjectivePoints,
    graph: Csr,
    class: Vec<VertexClass>,
    quadrics: Vec<u32>,
}

impl PolarFly {
    /// Builds `ER_q` for a prime power `q`, row by row from the closed form
    /// in the module documentation.
    ///
    /// # Errors
    /// [`GfError::NotPrimePower`] when no field of order `q` exists;
    /// [`GfError::TooLarge`] when the field tables, or the graph's
    /// `q(q + 1)²` adjacency entries, exceed what `u32` offsets address
    /// (`q ≥ 1627`).
    pub fn new(q: u64) -> Result<Self, GfError> {
        let field = Gf::new(q)?;
        let entries = adjacency_entries(q).ok_or(GfError::TooLarge(q))?;
        let q = field.order();
        let points = ProjectivePoints::new(q);
        let n = points.count();
        let qq = q * q;
        let top = qq + q; // [0, 0, 1]
        let mut rows = Rows {
            offsets: Vec::with_capacity(n + 1),
            neighbors: Vec::with_capacity(entries as usize),
            quadrics: Vec::with_capacity(q as usize + 1),
        };
        rows.offsets.push(0);

        // 1 + y·y′ + z·z′ = 0  ⇔  z′ = a·(1 + y·y′) with a = −1/z: the
        // second factor is shared by the q rows of one y.
        let mut shared = vec![0u32; q as usize];
        for y in 0..q {
            for (y1, s) in (0..q).zip(&mut shared) {
                *s = field.add(1, field.mul(y, y1));
            }
            for z in 0..q {
                if z != 0 {
                    let a = field.neg(field.inv(z));
                    let block = (0..q).zip(&shared);
                    rows.neighbors
                        .extend(block.map(|(y1, &s)| y1 * q + field.mul(a, s)));
                    rows.neighbors.push(qq + field.mul(a, y)); // y + z·z′ = 0
                } else if y != 0 {
                    let y1 = field.neg(field.inv(y)); // 1 + y·y′ = 0
                    rows.neighbors.extend(y1 * q..(y1 + 1) * q);
                    rows.neighbors.push(top);
                } else {
                    rows.neighbors.extend(qq..=top);
                }
                rows.end(y * q + z);
            }
        }
        for z in 0..q {
            if z != 0 {
                let b = field.neg(field.inv(z)); // y′ + z·z′ = 0  ⇔  z′ = b·y′
                rows.neighbors
                    .extend((0..q).map(|y1| y1 * q + field.mul(b, y1)));
                rows.neighbors.push(qq + b); // 1 + z·z′ = 0
            } else {
                rows.neighbors.extend(0..q);
                rows.neighbors.push(top);
            }
            rows.end(qq + z);
        }
        // [0, 0, 1]: every [1, y′, 0], then [0, 1, 0] at q·q.
        rows.neighbors.extend((0..=q).map(|y1| y1 * q));
        rows.end(top);

        let Rows {
            offsets,
            neighbors,
            quadrics,
        } = rows;
        let graph = Csr::from_sorted_rows(offsets, neighbors);

        let class = classify(&graph, &quadrics);

        Ok(PolarFly {
            q,
            field,
            points,
            graph,
            class,
            quadrics,
        })
    }

    /// The field-order parameter `q`.
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Number of routers, `N = q² + q + 1`.
    #[inline]
    pub fn router_count(&self) -> usize {
        self.points.count()
    }

    /// Network degree (radix used for fabric links), `k = q + 1`.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.q + 1
    }

    /// The diameter of `ER_q` is 2 by construction (verified in tests).
    #[inline]
    pub fn diameter(&self) -> u32 {
        2
    }

    /// The underlying undirected graph.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The finite field `F_q` the construction lives over.
    #[inline]
    pub fn field(&self) -> &Gf {
        &self.field
    }

    /// The projective-point indexer (vertex id ↔ left-normalized vector).
    #[inline]
    pub fn points(&self) -> &ProjectivePoints {
        &self.points
    }

    /// The left-normalized vector of router `v`.
    #[inline]
    pub fn vector(&self, v: u32) -> V3 {
        self.points.point(v as usize)
    }

    /// The router index of a (not necessarily normalized) nonzero vector.
    #[inline]
    pub fn router_of(&self, v: &V3) -> Option<u32> {
        self.points.index_of(v, &self.field).map(|i| i as u32)
    }

    /// Class of router `v` (quadric / V1 / V2).
    #[inline]
    pub fn class(&self, v: u32) -> VertexClass {
        self.class[v as usize]
    }

    /// `true` iff `v` is a quadric (self-orthogonal) router.
    #[inline]
    pub fn is_quadric(&self, v: u32) -> bool {
        self.class[v as usize] == VertexClass::Quadric
    }

    /// All quadric routers, ascending. `|W| = q + 1`.
    #[inline]
    pub fn quadrics(&self) -> &[u32] {
        &self.quadrics
    }

    /// Routers in the given class.
    pub fn routers_in_class(&self, c: VertexClass) -> Vec<u32> {
        (0..self.router_count() as u32)
            .filter(|&v| self.class(v) == c)
            .collect()
    }

    /// Fraction of the diameter-2 Moore bound (`1 + k²`) this instance
    /// achieves; approaches 1 as `q → ∞` (Fig. 2).
    pub fn moore_fraction(&self) -> f64 {
        let k = f64::from(self.degree());
        self.router_count() as f64 / (1.0 + k * k)
    }

    /// The unique intermediate router on the 2-hop path between `s` and
    /// `d` (paper §IV-D: the normalized cross product). For adjacent
    /// non-quadric pairs this is the apex of their unique triangle; for a
    /// pair containing a quadric adjacent to the other endpoint, the cross
    /// product collapses onto the quadric itself and `None` is returned
    /// (the "2-hop path" would use the quadric's self-loop).
    pub fn intermediate(&self, s: u32, d: u32) -> Option<u32> {
        if s == d {
            return None;
        }
        let vs = self.vector(s);
        let vd = self.vector(d);
        let x = vs.cross(&vd, &self.field);
        let mid = self.router_of(&x)?;
        (mid != s && mid != d).then_some(mid)
    }

    /// Minimal route from `s` to `d` as a router sequence (1 hop when
    /// adjacent, otherwise the unique 2-hop path).
    pub fn minimal_route(&self, s: u32, d: u32) -> Vec<u32> {
        if s == d {
            return vec![s];
        }
        if self.graph.has_edge(s, d) {
            return vec![s, d];
        }
        let mid = self
            .intermediate(s, d)
            .expect("non-adjacent ER_q routers always have a 2-hop path");
        vec![s, mid, d]
    }

    /// Measured diameter (BFS) — used by tests; the structural answer is 2.
    pub fn measured_diameter(&self) -> Option<u32> {
        bfs::diameter(&self.graph)
    }
}

/// Directed adjacency entries of `ER_q`: `q + 1` per vertex less one
/// dropped self entry per quadric, `(q² + q + 1)(q + 1) − (q + 1)
/// = q(q + 1)²`. `None` when that overflows the `u32` CSR offsets.
fn adjacency_entries(q: u64) -> Option<u32> {
    q.checked_mul((q + 1).checked_pow(2)?)?.try_into().ok()
}

/// Tags every vertex from the quadric list: a non-quadric is in `V1` iff it
/// has a quadric neighbour (paper §IV-F).
fn classify(graph: &Csr, quadrics: &[u32]) -> Vec<VertexClass> {
    let mut class = vec![VertexClass::V2; graph.vertex_count()];
    for &w in quadrics {
        class[w as usize] = VertexClass::Quadric;
    }
    for &w in quadrics {
        for &nb in graph.neighbors(w) {
            if class[nb as usize] == VertexClass::V2 {
                class[nb as usize] = VertexClass::V1;
            }
        }
    }
    class
}

/// The CSR arrays of `ER_q` under construction.
struct Rows {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    quadrics: Vec<u32>,
}

impl Rows {
    /// Closes the row of vertex `v`. The row is its whole polar line, so it
    /// holds `v` itself iff `v` is self-orthogonal: a quadric, whose self
    /// entry is not an edge.
    fn end(&mut self, v: u32) {
        let start = *self.offsets.last().expect("offsets starts at [0]") as usize;
        if let Ok(i) = self.neighbors[start..].binary_search(&v) {
            self.neighbors.remove(start + i);
            self.quadrics.push(v);
        }
        self.offsets.push(self.neighbors.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_Q: [u64; 8] = [3, 4, 5, 7, 8, 9, 11, 13];

    /// `ER_q` the way it was built before the closed form: enumerate each
    /// polar line from a basis, normalize every point, index it, and let
    /// `GraphBuilder` sort and deduplicate the edge list. Shares nothing
    /// with `PolarFly::new` but the field and the point numbering.
    fn edge_list_oracle(q: u64) -> (Csr, Vec<u32>) {
        let field = Gf::new(q).unwrap();
        let points = ProjectivePoints::new(field.order());
        let n = points.count();
        let mut builder = pf_graph::GraphBuilder::new(n);
        let mut quadrics = Vec::new();
        for idx in 0..n {
            let v = points.point(idx);
            if v.is_quadric(&field) {
                quadrics.push(idx as u32);
            }
            for w in pf_galois::line_points(&v, &field) {
                let widx = points.index(&w);
                if widx > idx {
                    builder.add_edge(idx as u32, widx as u32);
                }
            }
        }
        (builder.build(), quadrics)
    }

    #[test]
    fn closed_form_rows_equal_the_edge_list_construction() {
        // Every prime power up to 32, plus 49 and 81: primes, powers of two
        // and odd extension fields of degree 2, 3 and 4.
        let orders = pf_galois::primes::prime_powers_in(2, 32)
            .into_iter()
            .chain([49, 81]);
        for q in orders {
            let pf = PolarFly::new(q).unwrap();
            let (graph, quadrics) = edge_list_oracle(q);
            // Csr equality is offsets and neighbors: all a Csr stores.
            assert!(*pf.graph() == graph, "q={q}: CSR arrays differ");
            assert_eq!(pf.quadrics(), quadrics, "q={q}");
            assert_eq!(pf.class, classify(&graph, &quadrics), "q={q}");
        }
    }

    /// `edges()` is read off the rows, so check it against an independent
    /// double loop over `has_edge`, on ER_q and on a residual of it.
    #[test]
    fn edges_are_the_canonical_pairs_of_er_q_and_its_residuals() {
        for q in [3, 4, 5, 7, 8, 9, 13] {
            let pf = PolarFly::new(q).unwrap();
            let residual = pf
                .graph()
                .without_edges(&pf.graph().edges().step_by(7).collect::<Vec<_>>());
            for g in [pf.graph(), &residual] {
                let n = g.vertex_count() as u32;
                let pairs: Vec<(u32, u32)> = (0..n)
                    .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                    .filter(|&(u, v)| g.has_edge(u, v))
                    .collect();
                assert!(g.edges().eq(pairs.iter().copied()), "q={q}: {g:?}");
                assert_eq!(g.edge_count(), pairs.len(), "q={q}");
                assert_eq!(g.resident_bytes(), 4 * (n as usize + 1) + 8 * pairs.len());
            }
            let e = (q * (q + 1) * (q + 1) / 2) as usize;
            assert_eq!(residual.edge_count(), e - e.div_ceil(7), "q={q}");
        }
    }

    /// The graph is its two row arrays and nothing else: n + 1 offsets and
    /// q(q + 1)² adjacency entries, 4 bytes each (8.4 MB at q = 127).
    #[test]
    fn er_127_stores_only_its_rows() {
        let q = 127usize;
        let n = q * q + q + 1;
        let pf = PolarFly::new(q as u64).unwrap();
        assert_eq!(
            pf.graph().resident_bytes(),
            4 * (n + 1) + 4 * q * (q + 1) * (q + 1)
        );
        assert_eq!(pf.graph().resident_bytes(), 8_388_104);
    }

    #[test]
    fn adjacency_that_overflows_u32_offsets_is_refused() {
        // q(q + 1)² directed entries: 1621 is the last prime power that
        // fits, 1627 the first that does not. Checked on the count alone —
        // building ER_1621 would take 17 GB.
        assert_eq!(adjacency_entries(3), Some(48));
        assert_eq!(adjacency_entries(1621), Some(4_264_662_964));
        assert_eq!(adjacency_entries(1627), None);
        assert_eq!(adjacency_entries(1 << 20), None);
        assert!(pf_galois::primes::prime_powers_in(1622, 1626).is_empty());
        assert!(matches!(PolarFly::new(1627), Err(GfError::TooLarge(1627))));
        assert!(matches!(
            PolarFly::new(1626),
            Err(GfError::NotPrimePower(1626))
        ));
    }

    #[test]
    fn orders_and_degrees() {
        for q in SMALL_Q {
            let pf = PolarFly::new(q).unwrap();
            let n = (q * q + q + 1) as usize;
            assert_eq!(pf.router_count(), n);
            assert_eq!(pf.graph().vertex_count(), n);
            // Degrees: quadrics have degree q (their self-loop is not an
            // edge), non-quadrics q+1.
            for v in 0..n as u32 {
                let expect = if pf.is_quadric(v) {
                    q as usize
                } else {
                    (q + 1) as usize
                };
                assert_eq!(pf.graph().degree(v), expect, "q={q} v={v}");
            }
        }
    }

    #[test]
    fn diameter_is_two() {
        for q in SMALL_Q {
            let pf = PolarFly::new(q).unwrap();
            assert_eq!(pf.measured_diameter(), Some(2), "q={q}");
        }
    }

    #[test]
    fn adjacency_is_orthogonality() {
        for q in [3u64, 4, 5, 7, 9] {
            let pf = PolarFly::new(q).unwrap();
            let n = pf.router_count();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    let orth = pf.vector(u).orthogonal(&pf.vector(v), pf.field());
                    assert_eq!(pf.graph().has_edge(u, v), orth, "q={q} {u}-{v}");
                }
            }
        }
    }

    #[test]
    fn class_sizes_match_section_iv_f() {
        // |W| = q+1, |V1| = q(q+1)/2, |V2| = q(q−1)/2 for odd q.
        for q in [3u64, 5, 7, 9, 11, 13] {
            let pf = PolarFly::new(q).unwrap();
            let w = pf.quadrics().len() as u64;
            let v1 = pf.routers_in_class(VertexClass::V1).len() as u64;
            let v2 = pf.routers_in_class(VertexClass::V2).len() as u64;
            assert_eq!(w, q + 1, "q={q}");
            assert_eq!(v1, q * (q + 1) / 2, "q={q}");
            assert_eq!(v2, q * (q - 1) / 2, "q={q}");
        }
    }

    #[test]
    fn property_1_adjacency_counts() {
        // Paper Property 1 (odd prime powers).
        for q in [3u64, 5, 7, 9, 11, 13] {
            let pf = PolarFly::new(q).unwrap();
            let count_class = |v: u32, c: VertexClass| {
                pf.graph()
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| pf.class(w) == c)
                    .count() as u64
            };
            for v in 0..pf.router_count() as u32 {
                match pf.class(v) {
                    VertexClass::Quadric => {
                        // 1.1: no quadric–quadric edges; q neighbors in V1.
                        assert_eq!(count_class(v, VertexClass::Quadric), 0);
                        assert_eq!(count_class(v, VertexClass::V1), q);
                        assert_eq!(count_class(v, VertexClass::V2), 0);
                    }
                    VertexClass::V1 => {
                        // 1.2: exactly 2 quadrics, (q−1)/2 in each of V1, V2.
                        assert_eq!(count_class(v, VertexClass::Quadric), 2);
                        assert_eq!(count_class(v, VertexClass::V1), (q - 1) / 2);
                        assert_eq!(count_class(v, VertexClass::V2), (q - 1) / 2);
                    }
                    VertexClass::V2 => {
                        // 1.3: (q+1)/2 in each of V1, V2.
                        assert_eq!(count_class(v, VertexClass::Quadric), 0);
                        assert_eq!(count_class(v, VertexClass::V1), q.div_ceil(2));
                        assert_eq!(count_class(v, VertexClass::V2), q.div_ceil(2));
                    }
                }
            }
        }
    }

    #[test]
    fn unique_two_hop_paths() {
        // Property 1.4: exactly one 2-hop path between every pair, where a
        // quadric's self-loop counts as an edge. In pure-graph terms:
        // common neighbors of u≠v is 1, except pairs (quadric, neighbor)
        // where it is 0 (their "2-hop path" runs through the self-loop).
        for q in [3u64, 5, 7, 9] {
            let pf = PolarFly::new(q).unwrap();
            let g = pf.graph();
            let n = pf.router_count() as u32;
            for u in 0..n {
                for v in (u + 1)..n {
                    let common = g
                        .neighbors(u)
                        .iter()
                        .filter(|&&w| g.neighbors(v).binary_search(&w).is_ok())
                        .count();
                    let quadric_edge = g.has_edge(u, v) && (pf.is_quadric(u) || pf.is_quadric(v));
                    let expect = if quadric_edge { 0 } else { 1 };
                    assert_eq!(common, expect, "q={q} pair {u},{v}");
                }
            }
        }
    }

    #[test]
    fn cross_product_intermediate_agrees_with_graph() {
        for q in [3u64, 5, 7, 11] {
            let pf = PolarFly::new(q).unwrap();
            let g = pf.graph();
            let n = pf.router_count() as u32;
            for u in 0..n {
                for v in 0..n {
                    if u == v || g.has_edge(u, v) {
                        continue;
                    }
                    let mid = pf
                        .intermediate(u, v)
                        .expect("2-hop pair must have intermediate");
                    assert!(
                        g.has_edge(u, mid) && g.has_edge(mid, v),
                        "q={q} {u}->{mid}->{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn minimal_routes_are_minimal() {
        let pf = PolarFly::new(7).unwrap();
        for u in 0..pf.router_count() as u32 {
            let from_u = pf_graph::bfs::bfs_distances(pf.graph(), u);
            for v in 0..pf.router_count() as u32 {
                let route = pf.minimal_route(u, v);
                assert_eq!(route.len() as u32 - 1, u32::from(from_u[v as usize]));
                for hop in route.windows(2) {
                    assert!(pf.graph().has_edge(hop[0], hop[1]));
                }
            }
        }
    }

    #[test]
    fn no_quadrangles() {
        // §V-C: ER_q contains no 4-cycles (unique 2-hop paths forbid them).
        let pf = PolarFly::new(5).unwrap();
        let g = pf.graph();
        let n = pf.router_count() as u32;
        for u in 0..n {
            for v in (u + 1)..n {
                let common = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| g.neighbors(v).binary_search(&w).is_ok())
                    .count();
                assert!(common <= 1, "quadrangle found through {u},{v}");
            }
        }
    }

    #[test]
    fn even_q_also_diameter_two() {
        // The paper's layout discussion is for odd q, but ER_q itself (and
        // its Moore-bound scaling) holds for even prime powers too.
        for q in [2u64, 4, 8, 16] {
            let pf = PolarFly::new(q).unwrap();
            assert_eq!(pf.measured_diameter(), Some(2), "q={q}");
            assert_eq!(pf.quadrics().len() as u64, q + 1);
        }
    }

    #[test]
    fn moore_fraction_grows_toward_one() {
        let f13 = PolarFly::new(13).unwrap().moore_fraction();
        let f31 = PolarFly::new(31).unwrap().moore_fraction();
        assert!(f31 > f13);
        assert!(f31 > 0.96, "paper: >96% of Moore bound at moderate radixes");
    }

    #[test]
    fn er3_matches_figure_4() {
        // Fig. 4 of the paper draws ER_3: 13 vertices, 4 quadrics.
        let pf = PolarFly::new(3).unwrap();
        assert_eq!(pf.router_count(), 13);
        assert_eq!(pf.quadrics().len(), 4);
        // [1,1,1] is a quadric; [1,1,1]–[0,1,2] is an edge.
        let v111 = pf.router_of(&V3([1, 1, 1])).unwrap();
        let v012 = pf.router_of(&V3([0, 1, 2])).unwrap();
        assert!(pf.is_quadric(v111));
        assert!(pf.graph().has_edge(v111, v012));
    }
}
