//! The finite field `GF(p^m)` for an arbitrary prime power `q = p^m`.
//!
//! Field elements are represented by their index in `0..q`: the index is
//! read as a base-`p` integer whose digits are the coefficients of the
//! element's polynomial representation over `F_p` (lowest degree first).
//! For prime `q` this collapses to ordinary arithmetic mod `p`.
//!
//! Construction builds discrete log/antilog tables over a primitive element
//! so that multiplication, inversion, and division are O(1) table lookups.
//! `ER_q` construction (`polarfly::er`) emits every adjacency row in closed
//! form — one [`Gf::inv`] per vertex and one [`Gf::mul`] per entry, about
//! `q³` of them — and routing takes a cross product and a normalization
//! per 2-hop pair, so these stay the hot operations at the larger radixes
//! (q = 127 → N = 16 257 vertices, 2.1 M entries).

use crate::poly;
use crate::primes;
use std::fmt;

/// Errors from [`Gf::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfError {
    /// The requested order is not a prime power (fields only exist for
    /// prime-power orders).
    NotPrimePower(u64),
    /// The requested order is too large: for the log tables (`q > 2²⁰`),
    /// or, from `PolarFly::new`, for `ER_q`'s `q(q + 1)²` adjacency entries
    /// to fit `u32` CSR offsets (`q ≥ 1627`).
    TooLarge(u64),
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::NotPrimePower(q) => {
                write!(f, "{q} is not a prime power; no field GF({q}) exists")
            }
            GfError::TooLarge(q) => write!(
                f,
                "order {q} exceeds the supported table size \
                 (field tables: 2^20; ER_q adjacency in u32 offsets: 1621)"
            ),
        }
    }
}

impl std::error::Error for GfError {}

/// The finite field `GF(q)`, `q = p^m`. Elements are `u32` indices in `0..q`.
///
/// # Examples
///
/// ```
/// use pf_galois::Gf;
///
/// // The prime field F_31 behind the radix-32 PolarFly.
/// let f = Gf::new(31).unwrap();
/// assert_eq!(f.mul(7, 9), 63 % 31);
/// assert_eq!(f.mul(5, f.inv(5)), 1);
///
/// // The extension field GF(9) = F_3[x]/(f) — not integer arithmetic!
/// let f9 = Gf::new(9).unwrap();
/// assert_eq!(f9.characteristic(), 3);
/// assert_eq!(f9.add(1, 2), 0); // digit-wise mod 3
/// ```
#[derive(Clone)]
pub struct Gf {
    p: u32,
    m: u32,
    q: u32,
    /// Monic irreducible modulus (lowest degree first); `[p]`-digit encoded
    /// only implicitly — kept as coefficients for display/tests. Length m+1.
    modulus: Vec<u32>,
    /// `exp[i] = g^i` for `i in 0..2(q−1)` (doubled to skip a mod in mul).
    exp: Vec<u32>,
    /// `log[a]` for `a in 1..q`; `log[0]` is a sentinel (unused).
    log: Vec<u32>,
    /// Generator (primitive element) the tables are built on.
    generator: u32,
}

impl fmt::Debug for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gf")
            .field("p", &self.p)
            .field("m", &self.m)
            .field("q", &self.q)
            .field("generator", &self.generator)
            .finish()
    }
}

impl Gf {
    /// Constructs `GF(q)`. Deterministic: the lexicographically least monic
    /// irreducible modulus and the smallest primitive element are chosen, so
    /// all topologies derived from the field are reproducible across runs.
    pub fn new(q: u64) -> Result<Self, GfError> {
        let (p64, m) = primes::prime_power(q).ok_or(GfError::NotPrimePower(q))?;
        if q > 1 << 20 {
            return Err(GfError::TooLarge(q));
        }
        let p = p64 as u32;
        let q = q as u32;
        let modulus = if m == 1 {
            vec![0, 1] // placeholder; unused for prime fields
        } else {
            poly::find_irreducible(p, m)
        };

        let mut field = Gf {
            p,
            m,
            q,
            modulus,
            exp: Vec::new(),
            log: Vec::new(),
            generator: 0,
        };
        field.build_tables();
        Ok(field)
    }

    /// Raw multiplication (polynomial mod irreducible / integer mod p),
    /// used only while bootstrapping the log tables.
    fn mul_slow(&self, a: u32, b: u32) -> u32 {
        if self.m == 1 {
            return ((u64::from(a) * u64::from(b)) % u64::from(self.p)) as u32;
        }
        let pa = self.decode(a);
        let pb = self.decode(b);
        let prod = poly::mulmod(&pa, &pb, &self.modulus, self.p);
        self.encode(&prod)
    }

    fn decode(&self, mut a: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.m as usize);
        while a > 0 {
            out.push(a % self.p);
            a /= self.p;
        }
        out
    }

    fn encode(&self, coeffs: &[u32]) -> u32 {
        let mut acc = 0u32;
        for &c in coeffs.iter().rev() {
            acc = acc * self.p + c;
        }
        acc
    }

    fn build_tables(&mut self) {
        let q = self.q;
        let n = q - 1; // multiplicative group order
        let factors = primes::prime_factors(u64::from(n));
        // Smallest primitive element: g has order n iff g^(n/r) ≠ 1 ∀ prime r|n.
        let mut generator = 0;
        'candidates: for g in 2..q {
            for &r in &factors {
                if self.pow_slow(g, u64::from(n) / r) == 1 {
                    continue 'candidates;
                }
            }
            generator = g;
            break;
        }
        if q == 2 {
            generator = 1; // the trivial group
        }
        assert!(generator != 0, "no primitive element found for GF({q})");

        let mut exp = vec![0u32; 2 * n as usize];
        let mut log = vec![0u32; q as usize];
        let mut acc = 1u32;
        for i in 0..n as usize {
            exp[i] = acc;
            exp[i + n as usize] = acc;
            log[acc as usize] = i as u32;
            acc = self.mul_slow(acc, generator);
        }
        assert_eq!(acc, 1, "generator order mismatch in GF({q})");
        self.exp = exp;
        self.log = log;
        self.generator = generator;
    }

    fn pow_slow(&self, a: u32, mut n: u64) -> u32 {
        let mut base = a;
        let mut acc = 1u32;
        while n > 0 {
            if n & 1 == 1 {
                acc = self.mul_slow(acc, base);
            }
            base = self.mul_slow(base, base);
            n >>= 1;
        }
        acc
    }

    /// The field order `q`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.q
    }

    /// The characteristic `p`.
    #[inline]
    pub fn characteristic(&self) -> u32 {
        self.p
    }

    /// The primitive element the log tables are built on.
    #[inline]
    pub fn generator(&self) -> u32 {
        self.generator
    }

    /// Coefficients of the irreducible modulus (meaningful when `m > 1`).
    pub fn modulus(&self) -> &[u32] {
        &self.modulus
    }

    /// Iterator over all field elements `0..q`.
    pub fn elements(&self) -> impl Iterator<Item = u32> {
        0..self.q
    }

    /// Addition. For prime fields this is mod-`p`; for extensions it is
    /// digit-wise mod-`p` addition of the base-`p` representations.
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        if self.m == 1 {
            let s = a + b;
            return if s >= self.p { s - self.p } else { s };
        }
        if self.p == 2 {
            return a ^ b; // binary fields: addition is XOR
        }
        let (mut a, mut b) = (a, b);
        let mut out = 0u32;
        let mut place = 1u32;
        while a > 0 || b > 0 {
            let s = a % self.p + b % self.p;
            let digit = if s >= self.p { s - self.p } else { s };
            out += digit * place;
            place *= self.p;
            a /= self.p;
            b /= self.p;
        }
        out
    }

    /// Additive inverse.
    #[inline]
    pub fn neg(&self, a: u32) -> u32 {
        debug_assert!(a < self.q);
        if self.m == 1 {
            return if a == 0 { 0 } else { self.p - a };
        }
        if self.p == 2 {
            return a;
        }
        let mut a = a;
        let mut out = 0u32;
        let mut place = 1u32;
        while a > 0 {
            let d = a % self.p;
            let digit = if d == 0 { 0 } else { self.p - d };
            out += digit * place;
            place *= self.p;
            a /= self.p;
        }
        out
    }

    /// Subtraction `a − b`.
    #[inline]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        self.add(a, self.neg(b))
    }

    /// Multiplication via log/antilog tables.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        if a == 0 || b == 0 {
            return 0;
        }
        let idx = self.log[a as usize] + self.log[b as usize];
        self.exp[idx as usize]
    }

    /// Multiplicative inverse. Panics on zero.
    #[inline]
    pub fn inv(&self, a: u32) -> u32 {
        assert!(a != 0, "zero has no multiplicative inverse");
        let n = self.q - 1;
        let l = self.log[a as usize];
        self.exp[((n - l) % n) as usize]
    }

    /// Division `a / b`. Panics when `b = 0`.
    #[inline]
    pub fn div(&self, a: u32, b: u32) -> u32 {
        self.mul(a, self.inv(b))
    }

    /// Exponentiation `a^n`.
    pub fn pow(&self, a: u32, n: u64) -> u32 {
        if a == 0 {
            return if n == 0 { 1 } else { 0 };
        }
        let group = u64::from(self.q - 1);
        let l = u64::from(self.log[a as usize]);
        self.exp[((l * (n % group)) % group) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields_under_test() -> Vec<Gf> {
        [
            2u64, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 31, 32, 49,
        ]
        .iter()
        .map(|&q| Gf::new(q).unwrap())
        .collect()
    }

    #[test]
    fn rejects_non_prime_powers() {
        assert_eq!(Gf::new(1).unwrap_err(), GfError::NotPrimePower(1));
        assert_eq!(Gf::new(6).unwrap_err(), GfError::NotPrimePower(6));
        assert_eq!(Gf::new(12).unwrap_err(), GfError::NotPrimePower(12));
    }

    #[test]
    fn field_axioms_exhaustive_small() {
        for f in fields_under_test().iter().filter(|f| f.order() <= 16) {
            let q = f.order();
            for a in 0..q {
                for b in 0..q {
                    assert_eq!(f.add(a, b), f.add(b, a));
                    assert_eq!(f.mul(a, b), f.mul(b, a));
                    for c in 0..q {
                        assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                        assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                        // distributivity
                        assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                    }
                }
            }
        }
    }

    #[test]
    fn identities_and_inverses() {
        for f in fields_under_test() {
            let q = f.order();
            for a in 0..q {
                assert_eq!(f.add(a, 0), a);
                assert_eq!(f.mul(a, 1), a);
                assert_eq!(f.add(a, f.neg(a)), 0);
                assert_eq!(f.sub(a, a), 0);
                if a != 0 {
                    assert_eq!(f.mul(a, f.inv(a)), 1, "inv failed in GF({q}) for {a}");
                    assert_eq!(f.div(a, a), 1);
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        for f in fields_under_test() {
            let q = f.order();
            if q == 2 {
                continue;
            }
            let g = f.generator();
            let mut seen = vec![false; q as usize];
            let mut acc = 1u32;
            for _ in 0..(q - 1) {
                assert!(!seen[acc as usize], "generator cycled early in GF({q})");
                seen[acc as usize] = true;
                acc = f.mul(acc, g);
            }
            assert_eq!(acc, 1);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for f in fields_under_test().iter().filter(|f| f.order() <= 32) {
            for a in 0..f.order() {
                let mut acc = 1u32;
                for n in 0..8u64 {
                    assert_eq!(f.pow(a, n), acc, "pow mismatch in GF({})", f.order());
                    acc = f.mul(acc, a);
                }
            }
        }
    }

    #[test]
    fn characteristic_two_addition_is_xor() {
        for q in [2u64, 4, 8, 16, 32] {
            let f = Gf::new(q).unwrap();
            for a in 0..f.order() {
                for b in 0..f.order() {
                    assert_eq!(f.add(a, b), a ^ b);
                }
            }
        }
    }

    #[test]
    fn rejects_oversized_fields() {
        assert!(matches!(Gf::new(1 << 21), Err(GfError::TooLarge(_))));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(Gf::new(6)
            .unwrap_err()
            .to_string()
            .contains("not a prime power"));
        assert!(Gf::new(1 << 21)
            .unwrap_err()
            .to_string()
            .contains("table size"));
    }

    #[test]
    fn pow_zero_conventions() {
        let f = Gf::new(7).unwrap();
        assert_eq!(f.pow(0, 0), 1); // 0^0 = 1 by convention
        assert_eq!(f.pow(0, 5), 0);
        assert_eq!(f.pow(3, 0), 1);
    }

    #[test]
    fn modulus_is_monic_irreducible_for_extensions() {
        for q in [4u64, 8, 9, 16, 25, 27] {
            let f = Gf::new(q).unwrap();
            let (_, degree) = crate::primes::prime_power(q).unwrap();
            let m = f.modulus();
            assert_eq!(*m.last().unwrap(), 1, "monic");
            assert_eq!(m.len() as u32, degree + 1);
            assert!(crate::poly::is_irreducible(m, f.characteristic()));
        }
    }

    #[test]
    fn elements_iterator_is_complete() {
        let f = Gf::new(9).unwrap();
        let all: Vec<u32> = f.elements().collect();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0], 0);
        assert_eq!(all[8], 8);
    }

    #[test]
    fn frobenius_is_additive_in_gf9() {
        // (a+b)^p = a^p + b^p in characteristic p.
        let f = Gf::new(9).unwrap();
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(f.pow(f.add(a, b), 3), f.add(f.pow(a, 3), f.pow(b, 3)));
            }
        }
    }
}
