//! Integration tests for the structural experiments: triangle census,
//! block design, expansion, bisection, and failure analysis — the machinery
//! behind Tables II–IV/VI and Figs. 12–14.

use pf_graph::failures::failure_trial;
use pf_graph::partition::{bisect, bisection_cut_fraction};
use polarfly::expansion::{replicate_non_quadric, replicate_quadric, stats};
use polarfly::paths::verify_table_vi;
use polarfly::triangles::{census, cluster_triplet_design_holds, expected_census};
use polarfly::{Layout, PolarFly};

#[test]
fn triangle_census_matches_closed_forms_to_q19() {
    for q in [5u64, 7, 9, 11, 13, 17, 19] {
        let pf = PolarFly::new(q).unwrap();
        let layout = Layout::new(&pf);
        assert_eq!(census(&pf, &layout), expected_census(q), "q={q}");
    }
}

#[test]
fn theorem_v7_block_design_on_racks() {
    for q in [5u64, 7, 9, 11, 13] {
        let pf = PolarFly::new(q).unwrap();
        let layout = Layout::new(&pf);
        assert!(cluster_triplet_design_holds(&pf, &layout), "q={q}");
    }
}

#[test]
fn table_vi_verified_by_enumeration() {
    let pf = PolarFly::new(7).unwrap();
    assert_eq!(verify_table_vi(&pf, 1), Ok(()));
}

#[test]
fn expansion_preserves_wiring_and_bounds() {
    let pf = PolarFly::new(11).unwrap();
    let layout = Layout::new(&pf);
    for steps in [1usize, 3] {
        let exq = replicate_quadric(&pf, &layout, steps);
        let sq = stats(&pf, &exq);
        assert_eq!(sq.rewired_links, 0);
        assert_eq!(sq.diameter, 2);

        let exn = replicate_non_quadric(&pf, &layout, steps);
        let sn = stats(&pf, &exn);
        assert_eq!(sn.rewired_links, 0);
        assert_eq!(sn.diameter, 3);
        assert!(sn.aspl < 2.0);
        // Non-quadric replication grows ~2x faster per step.
        assert!(exn.router_count() > exq.router_count() - steps - 1);
    }
}

#[test]
fn bisection_orders_topologies_like_figure_12() {
    // PF should cut a larger edge fraction than SF, which beats DF.
    let pf = PolarFly::new(11).unwrap();
    let sf = pf_topo::SlimFly::new(9, 1).unwrap();
    let df = pf_topo::Dragonfly::new(6, 3, 1);
    let cut_pf = bisection_cut_fraction(pf.graph(), 4, 1);
    let cut_sf = bisection_cut_fraction(sf.graph(), 4, 1);
    let cut_df = bisection_cut_fraction(df.graph(), 4, 1);
    assert!(cut_pf > cut_sf, "PF {cut_pf} vs SF {cut_sf}");
    assert!(cut_sf > cut_df, "SF {cut_sf} vs DF {cut_df}");
    assert!(cut_pf > 0.33 && cut_pf < 0.5);
}

/// Fig. 12 as the paper states it: PF exceeds 0.4 from radix 18 and keeps
/// approaching 0.5, SF sits near 0.33, DF near 0.17, and a PF-sized
/// Jellyfish falls between PF and SF.
#[test]
fn figure_12_bisection_fractions_match_the_paper() {
    let mut last = 0.0;
    for q in [7u64, 11, 13, 17, 19, 23, 25, 27, 31, 43, 61] {
        let pf = PolarFly::new(q).unwrap();
        let cut = bisection_cut_fraction(pf.graph(), 2, 42);
        assert_eq!(cut > 0.40, q + 1 >= 18, "radix {}: {cut}", q + 1);
        assert!(
            cut > last && cut < 0.5,
            "radix {}: {cut} after {last}",
            q + 1
        );
        last = cut;
    }
    // The comparison points, with the restarts `fig12_bisection` uses.
    let pf = bisection_cut_fraction(PolarFly::new(31).unwrap().graph(), 3, 42);
    let jf = bisection_cut_fraction(pf_topo::Jellyfish::new(993, 32, 1, 7).graph(), 3, 42);
    let sf = bisection_cut_fraction(pf_topo::SlimFly::new(19, 1).unwrap().graph(), 3, 42);
    let df = bisection_cut_fraction(pf_topo::Dragonfly::new(12, 6, 1).graph(), 3, 42);
    assert!((0.32..=0.36).contains(&sf), "SF {sf}");
    assert!((0.16..=0.20).contains(&df), "DF {df}");
    assert!(
        pf > jf && jf > sf && sf > df,
        "PF {pf} JF {jf} SF {sf} DF {df}"
    );
}

/// `bisect` end to end on the four topology families of Fig. 12: cut and
/// FNV-1a of the whole side assignment, recorded with the lazy-heap FM
/// pass the gain buckets replaced (its pass-by-pass oracle lives in
/// `pf_graph::partition`'s tests). These pin this repo's seeded streams on
/// purpose: the partition is the contract.
#[test]
fn bisection_assignments_match_the_heap_pass() {
    let er = |q| PolarFly::new(q).unwrap().graph().clone();
    for (label, g, cut, side_fnv) in [
        ("ER_7", er(7), 81, 5777689948085252192u64),
        ("ER_31", er(31), 6700, 8872877210821933059),
        (
            "SF(19)",
            pf_topo::SlimFly::new(19, 1).unwrap().graph().clone(),
            3439,
            3589405369161270990,
        ),
        (
            "DF(12,6)",
            pf_topo::Dragonfly::new(12, 6, 1).graph().clone(),
            1354,
            10257784178870300505,
        ),
        (
            "JF(993,32)",
            pf_topo::Jellyfish::new(993, 32, 1, 7).graph().clone(),
            6000,
            12513103175114543233,
        ),
    ] {
        let b = bisect(&g, 2, 42);
        let got = b.side.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &s| {
            (h ^ u64::from(s)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((b.cut_edges, got), (cut, side_fnv), "{label}");
    }
    assert_eq!(bisect(&er(47), 2, 42).cut_edges, 23593);
}

/// Fig. 12's lower bound, proved rather than sampled. ER_q's Laplacian
/// is `(q+1)·I − A`, with `A` the polarity matrix including its quadric
/// loops (a quadric's missing loop is also its missing degree), and
/// `A² = J + q·I` because two distinct polar lines meet in one point. So
/// `λ₂ = q + 1 − √q`, and every split `S` cuts at least
/// `λ₂·|S|·|S̄|/n` edges. FM's balanced cut must clear it for every
/// prime power q ≤ 49, odd and even; the gap grades FM, not PolarFly.
#[test]
fn bisection_clears_the_spectral_lower_bound() {
    let qs = pf_galois::primes::prime_powers_in(2, 49);
    assert_eq!(qs.len(), 23);
    for q in qs {
        let pf = PolarFly::new(q).unwrap();
        let b = bisect(pf.graph(), 1, 42);
        let n = pf.router_count();
        let ones = b.side.iter().filter(|&&s| s).count();
        let lambda2 = (q + 1) as f64 - (q as f64).sqrt();
        let bound = lambda2 * (ones * (n - ones)) as f64 / n as f64;
        assert!(
            b.cut_edges as f64 >= bound,
            "q = {q}: cut {} below the spectral bound {bound:.1}",
            b.cut_edges
        );
    }
}

#[test]
fn bisection_sides_are_balanced() {
    let pf = PolarFly::new(9).unwrap();
    let b = bisect(pf.graph(), 2, 5);
    let ones = b.side.iter().filter(|&&s| s).count();
    let n = pf.router_count();
    assert!(ones.abs_diff(n - ones) <= 1);
}

#[test]
fn single_quadric_link_failure_raises_diameter_to_four() {
    // §IX-B: "the diameter of PolarFly increases to 3, or 4 if the link is
    // from a quadric" — check both cases exactly.
    let pf = PolarFly::new(7).unwrap();
    let w = pf.quadrics()[0];
    let u = pf.graph().neighbors(w)[0];
    let without_quadric_link = pf.graph().without_edges(&[(w, u)]);
    assert_eq!(pf_graph::bfs::diameter(&without_quadric_link), Some(4));

    // A non-quadric link has a 2-hop alternative: diameter 3.
    let (a, b) = pf
        .graph()
        .edges()
        .find(|&(a, b)| !pf.is_quadric(a) && !pf.is_quadric(b))
        .unwrap();
    let without_plain_link = pf.graph().without_edges(&[(a, b)]);
    assert_eq!(pf_graph::bfs::diameter(&without_plain_link), Some(3));
}

#[test]
fn diameter_stays_four_under_heavy_failures() {
    // §IX-B / Fig. 14: with 30% of links failed the PolarFly diameter is
    // still 4 (O(q²) 4-hop path diversity).
    let pf = PolarFly::new(11).unwrap();
    let trial = failure_trial(pf.graph(), &[0.1, 0.2, 0.3], 3);
    for p in &trial.curve {
        assert!(p.connected, "disconnected at {}", p.failure_ratio);
        assert!(
            p.diameter <= 4,
            "diameter {} at {}",
            p.diameter,
            p.failure_ratio
        );
    }
}

#[test]
fn layout_is_starter_invariant_for_triangle_counts() {
    let pf = PolarFly::new(9).unwrap();
    let mut counts = std::collections::BTreeSet::new();
    for &w in pf.quadrics() {
        let layout = Layout::with_starter(&pf, w);
        let c = census(&pf, &layout);
        counts.insert((c.total, c.intra_cluster, c.inter_cluster));
    }
    assert_eq!(
        counts.len(),
        1,
        "census must not depend on the starter quadric"
    );
}
