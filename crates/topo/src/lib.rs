//! Baseline interconnect topologies for the PolarFly evaluation (§VIII).
//!
//! Every comparison target of the paper is constructed from scratch:
//!
//! * [`slimfly`] — Slim Fly / McKay–Miller–Širáň graphs (`N = 2q²`,
//!   `k = (3q − δ)/2`), the most competitive diameter-2 rival.
//! * [`dragonfly`] — canonical Dragonfly (Kim et al.) with the palm-tree
//!   global-link arrangement; the paper's balanced DF1 and radix-matched
//!   DF2 variants.
//! * [`jellyfish`] — random regular graph baseline.
//! * [`fattree`] — 3-level folded-Clos fat tree with NCA routing metadata.
//! * [`hyperx`] — 2-D Hamming graphs (generalized Flattened Butterfly).
//! * [`oft`] — two-level Orthogonal Fat Tree (the un-quotiented `B(q)`
//!   as an indirect network; Table I candidate).
//! * [`mlfm`] — Multi-Layer Full Mesh (Table I candidate).
//! * [`named`] — Petersen and Hoffman–Singleton, the only diameter-2
//!   Moore-bound-achieving graphs (Fig. 2 reference points).
//! * [`traits`] — the [`Topology`] abstraction consumed by the simulator,
//!   plus the qualitative Table I feasibility matrix.
//! * [`transient`] — [`TransientTopo`], the one fault wrapper: a
//!   [`pf_graph::FaultSchedule`] of fail/repair windows. A static failure
//!   set is a schedule whose windows open at cycle 0 and never repair;
//!   any later window drives mid-run mask flips and staged route
//!   re-convergence in the simulator.

pub mod dragonfly;
pub mod fattree;
pub mod hyperx;
pub mod jellyfish;
pub mod mlfm;
pub mod named;
pub mod oft;
pub mod slimfly;
pub mod traits;
pub mod transient;

pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use hyperx::HyperX;
pub use jellyfish::Jellyfish;
pub use mlfm::Mlfm;
pub use oft::Oft;
pub use slimfly::SlimFly;
pub use traits::{PolarFlyTopo, RoutingHint, Topology};
pub use transient::TransientTopo;
