//! Feasible-radix design space and Moore-bound scalability (Figs. 1–2).
//!
//! A network radix `k` is *feasible* for a topology when an instance with
//! exactly that router degree exists:
//!
//! * **PolarFly** — `k = q + 1` for every prime power `q`.
//! * **Slim Fly** — `k = (3q − δ)/2` for prime powers `q = 4w + δ`,
//!   `δ ∈ {−1, 0, 1}` (the MMS graph family).
//! * **PolarFly+** — the paper's Fig. 1 series whose counts
//!   (12/23/33/39/53/68 at radix ≤ 16/32/48/64/96/128) are exactly the
//!   union of the PolarFly and Slim Fly design spaces; implemented as that
//!   union (see DESIGN.md §3.4).
//!
//! Scalability is measured against the diameter-2 Moore bound `N ≤ 1 + k²`.

use pf_galois::primes;

/// The general Moore bound: max vertices for degree `k`, diameter `d`.
pub fn moore_bound(k: u64, d: u32) -> u64 {
    if k == 0 {
        return 1;
    }
    let mut total = 1u64;
    let mut frontier = k;
    for _ in 0..d {
        total += frontier;
        frontier = frontier.saturating_mul(k - 1);
    }
    total
}

/// Feasible PolarFly radixes `≤ max_radix`, ascending, deduplicated.
pub fn polarfly_radixes(max_radix: u64) -> Vec<u64> {
    primes::prime_powers_in(2, max_radix.saturating_sub(1))
        .into_iter()
        .map(|q| q + 1)
        .collect()
}

/// The MMS radix `(3q − δ)/2` of prime power `q = 4w + δ`, or `None`
/// for `q ≡ 2 (mod 4)` — only `q = 2`, not an MMS parameter.
fn mms_radix(q: u64) -> Option<u64> {
    let delta: i64 = match q % 4 {
        1 => 1,
        3 => -1,
        0 => 0,
        _ => return None,
    };
    Some(((3 * q as i64 - delta) / 2) as u64)
}

/// Feasible Slim Fly (MMS) radixes `≤ max_radix`, ascending, deduplicated.
pub fn slimfly_radixes(max_radix: u64) -> Vec<u64> {
    // k = (3q − δ)/2 grows with q; scanning q ≤ max_radix covers all k.
    let mut out: Vec<u64> = primes::prime_powers_in(2, max_radix)
        .into_iter()
        .filter_map(mms_radix)
        .filter(|&k| k <= max_radix)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The Fig. 1 `PolarFly+` series: union of PolarFly and Slim Fly radixes.
pub fn polarfly_plus_radixes(max_radix: u64) -> Vec<u64> {
    let mut out = polarfly_radixes(max_radix);
    out.extend(slimfly_radixes(max_radix));
    out.sort_unstable();
    out.dedup();
    out
}

/// One point of the Fig. 2 Moore-bound-efficiency curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoorePoint {
    /// Router degree (network radix).
    pub degree: u64,
    /// Routers the topology supports at that degree.
    pub routers: u64,
    /// `routers / (1 + degree²)` as a percentage.
    pub percent_of_moore: f64,
}

fn pt(degree: u64, routers: u64) -> MoorePoint {
    MoorePoint {
        degree,
        routers,
        percent_of_moore: 100.0 * routers as f64 / moore_bound(degree, 2) as f64,
    }
}

/// PolarFly scalability curve: `(q+1, q² + q + 1)` per prime power.
pub fn polarfly_moore_curve(max_degree: u64) -> Vec<MoorePoint> {
    primes::prime_powers_in(2, max_degree.saturating_sub(1))
        .into_iter()
        .map(|q| pt(q + 1, q * q + q + 1))
        .collect()
}

/// Slim Fly scalability curve: `((3q−δ)/2, 2q²)` per MMS parameter.
pub fn slimfly_moore_curve(max_degree: u64) -> Vec<MoorePoint> {
    let mut out: Vec<MoorePoint> = primes::prime_powers_in(3, max_degree)
        .into_iter()
        .filter_map(|q| mms_radix(q).map(|k| (q, k)))
        .filter(|&(_, k)| k <= max_degree)
        .map(|(q, k)| pt(k, 2 * q * q))
        .collect();
    out.sort_by_key(|p| p.degree);
    out
}

/// HyperX diameter-2 scalability: the Hamming graph `K_a □ K_b` has degree
/// `a + b − 2` and `a·b` routers; the best split maximizes `a·b`.
pub fn hyperx_moore_curve(max_degree: u64) -> Vec<MoorePoint> {
    (2..=max_degree)
        .map(|k| {
            let a = (k + 2) / 2;
            let b = k + 2 - a;
            pt(k, a * b)
        })
        .collect()
}

/// The two known degree-diameter-optimal graphs plotted in Fig. 2.
pub fn moore_graphs() -> [MoorePoint; 2] {
    [pt(3, 10), pt(7, 50)] // Petersen, Hoffman–Singleton
}

/// Fig. 1 bar data: feasible-radix counts at each radix budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpaceCounts {
    /// The radix budget the counts are taken against.
    pub max_radix: u64,
    /// Feasible Slim Fly radixes ≤ `max_radix`.
    pub slimfly: usize,
    /// Feasible PolarFly radixes ≤ `max_radix`.
    pub polarfly: usize,
    /// Union of both design spaces (the paper's `PolarFly+` series).
    pub polarfly_plus: usize,
}

/// Computes Fig. 1 counts for the paper's radix budgets (or any others).
pub fn design_space_counts(budgets: &[u64]) -> Vec<DesignSpaceCounts> {
    budgets
        .iter()
        .map(|&r| DesignSpaceCounts {
            max_radix: r,
            slimfly: slimfly_radixes(r).len(),
            polarfly: polarfly_radixes(r).len(),
            polarfly_plus: polarfly_plus_radixes(r).len(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moore_bound_formula() {
        assert_eq!(moore_bound(3, 2), 10); // Petersen graph meets it
        assert_eq!(moore_bound(7, 2), 50); // Hoffman–Singleton meets it
        assert_eq!(moore_bound(57, 2), 3250);
        assert_eq!(moore_bound(4, 3), 53);
    }

    #[test]
    fn figure_1_counts_match_paper() {
        // Fig. 1 of the paper: radix budgets 16/32/48/64/96/128.
        let counts = design_space_counts(&[16, 32, 48, 64, 96, 128]);
        let sf: Vec<usize> = counts.iter().map(|c| c.slimfly).collect();
        let pf: Vec<usize> = counts.iter().map(|c| c.polarfly).collect();
        let pfp: Vec<usize> = counts.iter().map(|c| c.polarfly_plus).collect();
        assert_eq!(sf, vec![6, 11, 17, 19, 26, 32]);
        assert_eq!(pf, vec![9, 17, 22, 26, 34, 43]);
        assert_eq!(pfp, vec![12, 23, 33, 39, 53, 68]);
    }

    #[test]
    fn paper_named_radixes_are_feasible() {
        // §IV: q = 31, 47, 61, 127 serve radixes 32, 48, 62, 128.
        let pf = polarfly_radixes(128);
        for k in [32u64, 48, 62, 128] {
            assert!(pf.contains(&k), "radix {k} missing");
        }
    }

    #[test]
    fn slimfly_radixes_include_known_instances() {
        let sf = slimfly_radixes(64);
        // q=5 → Hoffman–Singleton degree 7; q=23 → the Table V radix 35.
        assert!(sf.contains(&7));
        assert!(sf.contains(&35));
        // Radix 32 is NOT Slim Fly feasible (motivation for PolarFly).
        assert!(!sf.contains(&32));
    }

    #[test]
    fn polarfly_asymptotics_beat_slimfly() {
        // PF → 100% of Moore bound; SF → 8/9 ≈ 88.9%.
        let pf = polarfly_moore_curve(130);
        let sf = slimfly_moore_curve(130);
        let pf_last = pf.last().unwrap().percent_of_moore;
        let sf_last = sf.last().unwrap().percent_of_moore;
        assert!(
            pf_last > 96.0,
            "paper: >96% at moderate radixes (got {pf_last})"
        );
        assert!(sf_last < 90.0);
        assert!((sf_last - 100.0 * 8.0 / 9.0).abs() < 2.0);
    }

    #[test]
    fn hyperx_is_far_from_moore() {
        let hx = hyperx_moore_curve(64);
        // ((k+2)/2)² vs 1+k² → ≈ 25%.
        let last = hx.last().unwrap();
        assert!(last.percent_of_moore < 30.0);
    }

    #[test]
    fn moore_graphs_meet_bound_exactly() {
        for p in moore_graphs() {
            assert!((p.percent_of_moore - 100.0).abs() < 1e-9);
        }
    }
}
