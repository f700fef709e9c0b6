//! Prime-power utilities.
//!
//! PolarFly exists for every prime power `q` (network radix `k = q + 1`),
//! and Slim Fly for prime powers `q = 4w + δ`, `δ ∈ {−1, 0, 1}`. The
//! feasibility analysis of Fig. 1 enumerates these sets, so we need exact
//! (not probabilistic) detection. All `q` of interest are far below 2³²,
//! where trial division is instantaneous.

/// If `n = p^m` for a prime `p` and `m ≥ 1`, returns `(p, m)`.
pub fn prime_power(n: u64) -> Option<(u64, u32)> {
    if n < 2 {
        return None;
    }
    // The smallest prime factor of a prime power is its base.
    let mut p = n;
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            p = d;
            break;
        }
        d += 1;
    }
    let mut rem = n;
    let mut m = 0u32;
    while rem.is_multiple_of(p) {
        rem /= p;
        m += 1;
    }
    (rem == 1).then_some((p, m))
}

/// Returns `true` iff `n` is a prime power `p^m`, `m ≥ 1`.
pub fn is_prime_power(n: u64) -> bool {
    prime_power(n).is_some()
}

/// All prime powers `q` with `lo ≤ q ≤ hi`, ascending.
pub fn prime_powers_in(lo: u64, hi: u64) -> Vec<u64> {
    (lo.max(2)..=hi).filter(|&n| is_prime_power(n)).collect()
}

/// Distinct prime factors of `n`, ascending. Used for primitive-element
/// search (the order of the multiplicative group must be checked against
/// each prime factor of `q − 1`).
pub fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_power_decomposition() {
        assert_eq!(prime_power(2), Some((2, 1)));
        assert_eq!(prime_power(4), Some((2, 2)));
        assert_eq!(prime_power(8), Some((2, 3)));
        assert_eq!(prime_power(9), Some((3, 2)));
        assert_eq!(prime_power(27), Some((3, 3)));
        assert_eq!(prime_power(121), Some((11, 2)));
        assert_eq!(prime_power(125), Some((5, 3)));
        assert_eq!(prime_power(1), None);
        assert_eq!(prime_power(6), None);
        assert_eq!(prime_power(12), None);
        assert_eq!(prime_power(100), None);
    }

    #[test]
    fn prime_powers_up_to_32() {
        // Matches the list used when verifying the Fig. 1 radix counts.
        assert_eq!(
            prime_powers_in(2, 32),
            vec![2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
        );
    }

    #[test]
    fn factor_lists() {
        assert_eq!(prime_factors(1), Vec::<u64>::new());
        assert_eq!(prime_factors(12), vec![2, 3]);
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(360), vec![2, 3, 5]);
    }

    #[test]
    fn large_prime_for_radix_128() {
        // q = 127 gives the radix-128 PolarFly named in the paper.
        assert_eq!(prime_power(127), Some((127, 1)));
        assert!(is_prime_power(127));
        assert_eq!(prime_power(128), Some((2, 7)));
    }
}
