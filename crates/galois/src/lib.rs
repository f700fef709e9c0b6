//! Finite-field arithmetic and projective geometry for PolarFly.
//!
//! The Erdős–Rényi polarity graph `ER_q` underlying PolarFly is defined by
//! the orthogonality relation between left-normalized vectors of `F_q³`
//! (equivalently, points of the projective plane `PG(2, q)`). This crate
//! provides the substrate for that construction:
//!
//! * [`primes`] — prime-power detection / enumeration, used by
//!   the feasibility analysis (Fig. 1 of the paper).
//! * [`poly`] — dense polynomial arithmetic over `F_p` and irreducible
//!   polynomial search (Rabin's test), used to build extension fields.
//! * [`field`] — [`field::Gf`], the finite field `GF(p^m)` for any prime
//!   power `q = p^m`, with O(1) multiplication/inversion via discrete
//!   log/antilog tables.
//! * [`vec3`] — length-3 vectors over `F_q`: dot product, cross product,
//!   left-normalization, the canonical indexing of the `q² + q + 1`
//!   projective points, and the line incidences of `PG(2, q)`.

pub mod field;
pub mod poly;
pub mod primes;
pub mod vec3;

pub use field::{Gf, GfError};
pub use vec3::{line_points, ProjectivePoints, V3};
