//! Cycle-accurate flit-level interconnection-network simulator — the
//! BookSim substitute behind Figs. 8–11 of the PolarFly paper.
//!
//! The model mirrors the paper's §VIII-A methodology:
//!
//! * **Input-queued routers** with per-(port, VC) FIFO buffers (default
//!   4 VC classes × 2, 128 flits per port), credit-based wormhole flow
//!   control, and an iterated separable allocator (rotating-priority input
//!   VC selection, then rotating-priority output arbitration) — one flit
//!   per input port and per output link per cycle.
//! * **Co-packaged nodes**: each router carries `p` endpoints; injection
//!   and ejection are modelled as `p` flits/cycle of aggregate endpoint
//!   bandwidth (1 flit/cycle per endpoint).
//! * **4-flit packets** injected by a Bernoulli process; offered load is
//!   the fraction of per-endpoint injection bandwidth.
//! * **Deadlock freedom** by hop-indexed virtual channels: a packet uses
//!   VC class `h` on its `h`-th hop, so channel dependencies are acyclic
//!   for all routing algorithms (≤ 4 hops with Valiant).
//! * **Warmup / measurement / drain** phases; packet latency is
//!   generation-to-tail-ejection, throughput is accepted flits per endpoint
//!   cycle in the measurement window.
//! * **Faults**: one model, a topology carrying a fault schedule
//!   (`pf_topo::Topology::with_faults`; see the fault-model section of
//!   DESIGN.md). Its cycle-0 state ([`tables::initial_failures`]) gets
//!   route tables routed on the residual graph ([`RouteTables::build_for`])
//!   and per-port link masks in the engine, so every routing algorithm
//!   routes around fail-stop links. A static failure set ends there.
//!   Anything later drives a mid-run event queue: links die and repair
//!   at scheduled cycles, in-flight flits follow a
//!   configurable drop-and-retransmit / drain policy ([`InFlightPolicy`]),
//!   and route tables re-converge in stages — the stale tables keep
//!   serving (mask-checked, locally detoured) until a Rayon-parallel
//!   rebuild swaps in after `convergence_delay` cycles (see `faults`).
//!
//! ## Module map
//!
//! The engine is decomposed along router-microarchitecture lines:
//!
//! * [`engine`] — the [`Engine`] state (per-router source queues
//!   included) and per-cycle orchestration;
//! * [`drive`] — the closed-loop [`WorkloadDriver`]: `pf_workload`
//!   task DAGs as a second injection source next to Bernoulli, advanced
//!   by per-packet completion callbacks and terminated when every job's
//!   DAG drains (per-job makespans in [`SimResult::jobs`]);
//! * `faults` — the transient-fault event queue (the schedule's
//!   `pf_graph::FaultEvent`s, applied as they fire), in-flight-flit
//!   policies, and staged table re-convergence;
//! * [`router`] — per-router state as flat structure-of-arrays ring
//!   buffers (port geometry, input buffers, injection streams), with
//!   `packet` (packet records) alongside;
//! * `alloc` — the separable switch allocator, and the one route
//!   decision injection and transit share (route, VC claim, trace);
//! * `flow` — link pipeline, credits, wormhole VC ownership;
//! * `inject` — endpoint injection/ejection;
//! * [`routing`] — the paper's six algorithms (§VII) as the closed
//!   [`Routing`] enum, every minimal hop the port the serving route
//!   table stores;
//! * [`telemetry`] — observation-only epoch time-series, sampled
//!   packet lifecycle traces, and feature-gated engine phase profiling
//!   (bit-identical results with telemetry on or off);
//! * `config`, `stats`, [`sweep`], [`tables`], [`traffic`],
//!   [`analytic`] — configuration (with the warmup/measure/drain
//!   clock), results, load sweeps, route tables, traffic patterns, and
//!   the fluid-model cross-check.
//!
//! Routing algorithms (§VII): table-based minimal, Valiant, Compact
//! Valiant (random *neighbor* intermediate, ≤ 3 hops), UGAL-L, UGAL-PF
//! (Compact Valiant + ⅔ buffer-occupancy threshold), and adaptive ECMP
//! minimal routing which on a folded Clos is exactly fat-tree NCA routing.
//! [`Routing`] implements them all with one `match` per method and the
//! [`Engine`] holds the value. Every algorithm's minimal hop is the port
//! the serving route table stores ([`RouteTables::port`]).
//!
//! Differences from BookSim (documented in DESIGN.md): credits return with
//! zero latency (shared-memory model), the router pipeline is a fixed
//! per-hop delay rather than per-stage allocation, and endpoint channels
//! are aggregated per router. These shift absolute zero-load latencies by a
//! few cycles but preserve saturation points and ordering.

// panic-discipline: the engine propagates an error or states its
// invariant with an assert; every remaining site is an `#[expect]`
// that says why it may panic (a suppression without a reason is
// itself denied, a stale one fails `-D warnings`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

// The parity suites' shared comparer (`tests/common`) names this crate
// from outside; the in-crate suites include the same file.
#[cfg(test)]
extern crate self as pf_sim;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

mod alloc;
pub mod analytic;
mod config;
pub mod drive;
pub mod engine;
mod faults;
mod flow;
mod inject;
pub(crate) mod order;
mod packet;
pub mod router;
pub mod routing;
pub(crate) mod skip;
mod stats;
pub mod sweep;
pub mod tables;
pub mod telemetry;
pub mod traffic;

pub use analytic::{analyze, FluidAnalysis};
pub use config::{InFlightPolicy, SimConfig};
pub use drive::{simulate_workload, WorkloadDriver};
pub use engine::{simulate, Engine};
pub use router::FlitRings;
pub use routing::{HopContext, NetState, Port, RoutePlan, Routing};
pub use stats::{JobResult, PhaseResult, SimResult};
pub use sweep::{load_curve, LoadCurve};
pub use tables::RouteTables;
pub use telemetry::{EpochRecord, ProfPhase, TelemetryReport, TraceEvent};
pub use traffic::TrafficPattern;
