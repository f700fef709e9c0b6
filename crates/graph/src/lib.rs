//! Graph-algorithms substrate for the PolarFly reproduction.
//!
//! Every structural experiment in the paper (diameter/ASPL measurements,
//! bisection bandwidth, triangle censuses, fault tolerance, adversarial
//! permutation construction, Jellyfish baselines) runs on the primitives in
//! this crate:
//!
//! * [`csr`] — compressed-sparse-row undirected graphs and builders.
//! * [`bfs`] — single-source BFS and the word-parallel all-pairs kernel
//!   (64 sources per `u64` frontier word, Rayon-parallel across batches):
//!   streamed distance rows, distance histogram, diameter, average
//!   shortest path length.
//! * [`triangles`] — triangle counting and enumeration.
//! * [`random_regular`] — seeded random k-regular graphs (Jellyfish).
//! * [`matching`] — bipartite perfect matching (Perm1Hop/Perm2Hop traffic).
//! * [`partition`] — balanced bisection: spectral (Fiedler) seeding plus
//!   Fiduccia–Mattheyses refinement with restarts. Substitute for METIS.
//! * [`spectral`] — adjacency-eigenvalue estimation: spectral gap,
//!   Ramanujan check, Cheeger expansion bounds (§IX context).
//! * [`failures`] — random link-failure trials (Fig. 14), the seeded
//!   [`FailureSet`] sampler behind live fault injection in the simulator,
//!   and the [`FaultSchedule`] of timestamped fail/repair windows behind
//!   transient (mid-run) faults.

pub mod bfs;
pub mod csr;
pub mod failures;
pub mod matching;
pub mod partition;
pub mod random_regular;
pub mod spectral;
pub mod triangles;

pub use bfs::DistanceHistogram;
pub use csr::{Csr, GraphBuilder};
pub use failures::{FailureSet, FaultEvent, FaultEventKind, FaultSchedule, ScheduleError};
