//! Cross-crate integration tests: every topology the evaluation uses is
//! constructed and checked against its defining invariants.

use pf_graph::{bfs, DistanceHistogram, FailureSet};
use pf_topo::{Dragonfly, FatTree, HyperX, Jellyfish, PolarFlyTopo, SlimFly};
use polarfly::{feasibility, PolarFly, VertexClass};

#[test]
fn polarfly_full_parameter_sweep() {
    // Primes and prime powers, odd and even, through radix 32.
    for q in [3u64, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31] {
        let pf = PolarFly::new(q).unwrap();
        assert_eq!(pf.router_count() as u64, q * q + q + 1, "order q={q}");
        assert_eq!(pf.measured_diameter(), Some(2), "diameter q={q}");
        assert_eq!(pf.quadrics().len() as u64, q + 1, "quadrics q={q}");
        // Degrees: q for quadrics, q+1 otherwise.
        for v in 0..pf.router_count() as u32 {
            let expect = if pf.is_quadric(v) { q } else { q + 1 };
            assert_eq!(pf.graph().degree(v) as u64, expect);
        }
    }
}

#[test]
fn polarfly_moore_efficiency_exceeds_96_percent_at_moderate_radix() {
    // The abstract's headline: > 96% of the Moore bound at current radixes.
    for q in [31u64, 47, 61] {
        let pf = PolarFly::new(q).unwrap();
        assert!(pf.moore_fraction() > 0.96, "q={q}: {}", pf.moore_fraction());
    }
}

#[test]
fn class_structure_only_for_odd_q() {
    let pf = PolarFly::new(13).unwrap();
    let q = 13u64;
    assert_eq!(
        pf.routers_in_class(VertexClass::V1).len() as u64,
        q * (q + 1) / 2
    );
    assert_eq!(
        pf.routers_in_class(VertexClass::V2).len() as u64,
        q * (q - 1) / 2
    );
}

#[test]
fn slimfly_all_residues_diameter_two() {
    for q in [5u64, 7, 8, 9, 11, 13, 16, 17, 19] {
        let sf = SlimFly::new(q, 1).unwrap();
        assert_eq!(sf.router_count() as u64, 2 * q * q, "order q={q}");
        // Network degree k = (3q − δ)/2, q = 4w + δ.
        let delta = [0, 1, 0, -1][(q % 4) as usize];
        let k = ((3 * q as i64 - delta) / 2) as usize;
        assert!(sf.graph().is_regular(k), "regular q={q}");
        assert_eq!(bfs::diameter(sf.graph()), Some(2), "diameter q={q}");
    }
}

#[test]
fn table_v_configurations_match_paper() {
    // The exact simulated configurations of the paper.
    let pf = PolarFlyTopo::new(31, 16).unwrap();
    assert_eq!((pf.router_count(), pf.graph().max_degree()), (993, 32));

    let sf = SlimFly::new(23, 18).unwrap();
    assert_eq!((sf.router_count(), sf.graph().max_degree()), (1058, 35));

    let df1 = Dragonfly::df1();
    assert_eq!((df1.router_count(), df1.graph().max_degree()), (876, 17));

    let df2 = Dragonfly::df2();
    assert_eq!((df2.router_count(), df2.graph().max_degree()), (978, 32));

    let ft = FatTree::table_v();
    assert_eq!(ft.router_count(), 972);
    assert_eq!(ft.graph().max_degree(), 36);

    let jf = Jellyfish::table_v(1);
    assert_eq!(jf.router_count(), 993);
    assert!(jf.graph().is_regular(32));
}

#[test]
fn diameters_match_table_i_expectations() {
    assert_eq!(bfs::diameter(Dragonfly::new(6, 3, 1).graph()), Some(3));
    assert_eq!(bfs::diameter(FatTree::new(4).graph()), Some(4));
    assert_eq!(bfs::diameter(HyperX::new(5, 5, 1).graph()), Some(2));
}

#[test]
fn er_distance_histogram_is_exact_for_every_q_to_64() {
    // Table I and §IV: ER_q has diameter 2 at every prime power q. Its
    // q(q + 1)² ordered adjacent pairs are 2E (q + 1 quadrics of degree
    // q, the other q² routers of degree q + 1), and every other ordered
    // pair is at distance 2.
    let orders = pf_galois::primes::prime_powers_in(2, 64);
    assert_eq!(orders.len(), 27);
    for q in orders {
        let n = q * q + q + 1;
        let one_hop = q * (q + 1) * (q + 1);
        let hist = DistanceHistogram::build(PolarFly::new(q).unwrap().graph());
        assert_eq!(hist.counts(), [0, one_hop, n * (n - 1) - one_hop], "q={q}");
    }
}

#[test]
fn average_path_length_close_to_two_minus_k_over_n() {
    // Diameter-2 graphs: ASPL = 2 − (k·N/ (N(N−1))) ≈ 2 − k/N.
    let pf = PolarFly::new(11).unwrap();
    let hist = DistanceHistogram::build(pf.graph());
    let n = pf.router_count() as f64;
    let expected = 2.0 - (2.0 * pf.graph().edge_count() as f64) / (n * (n - 1.0));
    assert!((hist.average_shortest_path() - expected).abs() < 1e-9);
}

#[test]
fn all_pairs_kernel_matches_scalar_bfs_on_er_residuals() {
    // Healthy ER_q (diameter 2, dense last level) and residuals whose
    // longer paths and, at 85 %, unreachable pairs exercise every level
    // of the word-parallel kernel against the single-source oracle: the
    // scatter sink's rows equal it row for row, and the popcount sink's
    // histogram counts their off-diagonal finite entries.
    for q in [7u64, 31] {
        let pf = PolarFly::new(q).unwrap();
        for ratio in [0.0, 0.1, 0.3, 0.5, 0.85] {
            let g = FailureSet::sample(pf.graph(), ratio, q + 3).residual(pf.graph());
            let n = g.vertex_count();
            let mut entries = vec![0u64; usize::from(bfs::UNREACHABLE)];
            let mut next = 0;
            bfs::for_each_row_batch(&g, |first, rows| {
                assert_eq!(first, next, "q={q} ratio={ratio}");
                for (i, row) in rows.chunks(n).enumerate() {
                    let s = first + i as u32;
                    assert_eq!(
                        row,
                        bfs::bfs_distances(&g, s).as_slice(),
                        "q={q} ratio={ratio} row {s}"
                    );
                    for (v, &d) in row.iter().enumerate() {
                        if d != bfs::UNREACHABLE && v != s as usize {
                            entries[usize::from(d)] += 1;
                        }
                    }
                }
                next += (rows.len() / n) as u32;
            });
            assert_eq!(next as usize, n, "q={q} ratio={ratio}");
            let hist = DistanceHistogram::build(&g);
            let counts = hist.counts();
            assert_eq!(&entries[..counts.len()], counts, "q={q} ratio={ratio}");
            assert!(
                entries[counts.len()..].iter().all(|&c| c == 0),
                "q={q} ratio={ratio}"
            );
        }
    }
}

#[test]
fn figure_1_and_2_headline_numbers() {
    let counts = feasibility::design_space_counts(&[16, 32, 48, 64, 96, 128]);
    assert_eq!(counts.last().unwrap().polarfly, 43);
    assert_eq!(counts.last().unwrap().slimfly, 32);
    assert_eq!(counts.last().unwrap().polarfly_plus, 68);

    // Fig 2 reference points are Moore-exact.
    for p in feasibility::moore_graphs() {
        assert!((p.percent_of_moore - 100.0).abs() < 1e-9);
    }
}

#[test]
fn hoffman_singleton_equals_slimfly_q5_statistics() {
    // Both are (50, 7)-Moore graphs; check isomorphism invariants.
    let hs = pf_topo::named::hoffman_singleton();
    let sf = SlimFly::new(5, 1).unwrap();
    assert_eq!(hs.vertex_count(), sf.router_count());
    assert_eq!(hs.edge_count(), sf.graph().edge_count());
    assert_eq!(bfs::diameter(&hs), bfs::diameter(sf.graph()));
    assert_eq!(pf_graph::triangles::count(&hs), 0);
    assert_eq!(pf_graph::triangles::count(sf.graph()), 0);
}

#[test]
fn polarfly_has_no_quadrangles_and_correct_triangles() {
    // C(q+1, 3) triangles, no 4-cycles (unique 2-hop paths).
    for q in [5u64, 7, 9, 11] {
        let pf = PolarFly::new(q).unwrap();
        let tri = pf_graph::triangles::count(pf.graph());
        assert_eq!(tri, (q + 1) * q * (q - 1) / 6, "q={q}");
    }
}
