//! Application workload models for closed-loop network simulation.
//!
//! The cycle simulator in `pf_sim` natively speaks open-loop Bernoulli
//! injection — "latency at offered load X". This crate supplies the
//! other half of a topology evaluation: *applications*, modelled as
//! per-host dependency DAGs of tasks (compute delay → sends, gated on
//! receives), so the simulator can answer "how fast does an allreduce
//! finish" instead of only "how deep is the latency curve". The model
//! follows the closed-loop methodology of the Slim Fly deployment
//! study (Blach et al., 2023), which evaluates collective completion
//! rather than synthetic saturation.
//!
//! * [`dag`] — the [`Workload`] task-DAG model, the [`WorkloadBuilder`],
//!   and validation (well-formed wiring + schedulability);
//! * [`collectives`] — ring and recursive-doubling allreduce,
//!   all-to-all;
//! * [`stencil`] — N-dimensional periodic halo exchange;
//! * [`incast`] — parameter-server push/broadcast rounds;
//! * [`multijob`] — host partitioning for concurrent-job mixes.
//!
//! This crate is pure data — no simulator dependency. `pf_sim::drive`
//! consumes a [`Workload`] (via [`JobAssignment`]) and drives its DAG
//! against the cycle engine with per-packet completion callbacks.

pub mod collectives;
pub mod dag;
pub mod incast;
pub mod multijob;
pub mod stencil;

pub use collectives::{all_to_all, recursive_doubling_allreduce, ring_allreduce};
pub use dag::{FlatLists, InverseEdges, MsgId, SendSpec, Task, TaskId, Workload, WorkloadBuilder};
pub use incast::param_server;
pub use multijob::{multi_job_mix, JobAssignment};
pub use stencil::halo_exchange;
