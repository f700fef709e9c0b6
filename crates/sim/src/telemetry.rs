//! Observation-only telemetry: epoch time-series, sampled packet
//! lifecycle traces, and (feature-gated) engine phase profiling.
//!
//! Everything in this module *observes* a run without perturbing it:
//! every record hook is a `TelemetryCtl` method over scalars, and the
//! epoch snapshot borrows the engine by `&self`, so no hook can write
//! simulator state or draw from the simulation RNG (the workspace has
//! no interior mutability to write through — `clippy.toml`) and every
//! [`crate::SimResult`] field is bit-identical with telemetry on or
//! off — pinned by `tests/telemetry_parity.rs` (and, on the dense test
//! reference, by `src/skip/tests.rs`).
//!
//! Three collectors, each zero-cost when its knob is off:
//!
//! * **Epoch time-series** ([`SimConfig::telemetry_interval`]): every
//!   `interval` cycles the engine snapshots its counters into an
//!   [`EpochRecord`] — offered/accepted flit deltas, per-link
//!   utilization, VOQ depth histogram, stall and fault counters, and
//!   the awake/dozing/asleep router census. Records are *deltas over
//!   the epoch* for monotone counters and point-in-time gauges for
//!   occupancy. Epoch boundaries do not depend on leaps: the tick
//!   runs at the top of each step, and the cycle-skip prologue catches
//!   up immediately after a whole-cycle leap (the leapt-over cycles
//!   are provable no-ops, so the deferred records carry exactly the
//!   counters a cycle-by-cycle walk would have seen).
//! * **Sampled packet traces** ([`SimConfig::trace_sample`]): a
//!   deterministic sampler keyed on the packet's *birth serial* (the
//!   value of `total_generated` at admission — packet pool ids are
//!   recycled, serials never are) records hop-by-hop [`TraceEvent`]s
//!   for every `sample`-th packet: inject, route decision (with its
//!   source: minimal / detour leg / fast-reroute pin / injection
//!   plan), VC allocation, per-flit grants, ejection, and
//!   fault-retransmissions. No RNG is drawn — sampling is a modulus.
//! * **Phase profiling** (`phase-profile` cargo feature, default off):
//!   wall-clock nanoseconds per engine phase (generate / eject / route
//!   / alloc / skip-leap). Wall time never feeds simulated state —
//!   the two `Instant` sites are the workspace's only `#[expect]`s of
//!   the clock ban and the whole mechanism compiles to nothing without
//!   the feature.
//!
//! The collected data leaves the engine as a [`TelemetryReport`] on
//! [`crate::SimResult::telemetry`] — execution observability, excluded
//! from parity comparisons.
//!
//! [`SimConfig::telemetry_interval`]: crate::SimConfig::telemetry_interval
//! [`SimConfig::trace_sample`]: crate::SimConfig::trace_sample

use crate::engine::Engine;
use crate::router::NONE32;

/// Trace event kind: packet admitted to its source queue (`a` = dst).
pub const TRACE_INJECT: u8 = 0;
/// Trace event kind: route decision (`a` = output port, `b` = source —
/// one of the `ROUTE_*` codes).
pub const TRACE_ROUTE: u8 = 1;
/// Trace event kind: output VC claimed (`a` = global output VC buffer
/// index, i.e. `out_port * vcs + vc`).
pub const TRACE_VC_ALLOC: u8 = 2;
/// Trace event kind: switch grant accepted, one flit traversed
/// (`a` = output port, `b` = flit sequence number).
pub const TRACE_GRANT: u8 = 3;
/// Trace event kind: tail flit ejected at the destination
/// (`a` = generation-to-tail-ejection latency in cycles).
pub const TRACE_EJECT: u8 = 4;
/// Trace event kind: packet returned to its source queue by the
/// drop-and-retransmit fault policy.
pub const TRACE_RETRANSMIT: u8 = 5;

/// Route-decision source: minimal path toward the destination.
pub const ROUTE_MIN: u32 = 0;
/// Route-decision source: Valiant/UGAL detour leg (routing toward the
/// intermediate, not the destination).
pub const ROUTE_DETOUR: u32 = 1;
/// Route-decision source: fast-reroute pinned around a masked link.
pub const ROUTE_FRR: u32 = 2;
/// Route-decision source: injection plan, minimal.
pub const ROUTE_INJECT_MIN: u32 = 3;
/// Route-decision source: injection plan, detour (Valiant mid chosen).
pub const ROUTE_INJECT_DETOUR: u32 = 4;

/// Epoch ring capacity; snapshots past this are counted in
/// [`TelemetryReport::epochs_dropped`] instead of stored.
pub const EPOCH_CAP: usize = 16_384;
/// Trace buffer capacity; events past this are counted in
/// [`TelemetryReport::traces_dropped`] instead of stored.
pub const TRACE_CAP: usize = 262_144;

/// Slot-map marker for an untraced packet id.
const UNTRACED: u64 = u64::MAX;

/// Human-readable label for a [`TraceEvent::kind`] code (JSONL
/// emitters; an out-of-range code degrades to `"unknown"`).
pub fn kind_label(kind: u8) -> &'static str {
    match kind {
        TRACE_INJECT => "inject",
        TRACE_ROUTE => "route",
        TRACE_VC_ALLOC => "vc_alloc",
        TRACE_GRANT => "grant",
        TRACE_EJECT => "eject",
        TRACE_RETRANSMIT => "retransmit",
        _ => "unknown",
    }
}

/// One hop-by-hop lifecycle event of a sampled packet.
///
/// The `a`/`b` operand meaning depends on [`TraceEvent::kind`] — see
/// the `TRACE_*` constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Birth serial of the packet (admission order, never recycled).
    pub serial: u64,
    /// Cycle the event happened.
    pub cycle: u32,
    /// Event kind (`TRACE_*` code).
    pub kind: u8,
    /// Router where the event happened.
    pub router: u32,
    /// First operand (kind-dependent).
    pub a: u32,
    /// Second operand (kind-dependent).
    pub b: u32,
}

/// One epoch of the time-series: counter deltas over
/// `[end_cycle - span, end_cycle)` plus point-in-time occupancy gauges
/// sampled at the epoch boundary.
///
/// The router census (`awake`/`dozing`/`asleep`) reflects the
/// engine's activity tracking (`crate::skip`) rather than the traffic
/// itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Exclusive end cycle of the epoch.
    pub end_cycle: u32,
    /// Cycles covered (== the configured interval except for a final
    /// partial epoch flushed at run end).
    pub span: u32,
    /// Packets admitted (offered) during the epoch.
    pub generated: u64,
    /// Packets fully delivered during the epoch.
    pub delivered: u64,
    /// Flits ejected (accepted) during the epoch.
    pub flits_ejected: u64,
    /// Flit-traversals across all links during the epoch.
    pub link_flits: u64,
    /// Links that carried at least one flit during the epoch.
    pub active_links: u32,
    /// Flits carried by the busiest link during the epoch.
    pub max_link_flits: u64,
    /// Histogram of nonzero input-VC queue depths at the boundary:
    /// bucket `i` counts queues with depth in `[2^i, 2^(i+1))`
    /// (`i` = 7 is open-ended).
    pub voq_hist: [u32; 8],
    /// Credit stalls (requests blocked on zero credits) during the
    /// epoch.
    pub credit_stalls: u64,
    /// VC-allocation stalls (all VCs of the class busy) during the
    /// epoch.
    pub vc_stalls: u64,
    /// Packets returned for retransmission by fault events during the
    /// epoch.
    pub retransmitted: u64,
    /// Flits dropped by fault events during the epoch.
    pub dropped_flits: u64,
    /// Routers awake at the boundary.
    pub awake_routers: u32,
    /// Routers dozing (flits in the router pipeline only) at the
    /// boundary.
    pub dozing_routers: u32,
    /// Routers asleep (provably idle) at the boundary.
    pub asleep_routers: u32,
    /// Flits buffered or on links at the boundary.
    pub in_flight_flits: u64,
    /// Packets waiting in source queues at the boundary.
    pub source_backlog: u64,
}

/// Engine phase tags for the (feature-gated) wall-clock profiler;
/// the discriminant indexes [`TelemetryReport::phase_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfPhase {
    /// Packet generation / workload release.
    Generate = 0,
    /// Ejection scan.
    Eject = 1,
    /// Request build and routing.
    Route = 2,
    /// Grant-and-accept switch allocation.
    Alloc = 3,
    /// Cycle-skip prologue (wheel drain and whole-cycle leaps).
    SkipLeap = 4,
}

/// Display labels for [`TelemetryReport::phase_ns`], indexed by
/// [`ProfPhase`] discriminant.
pub const PROF_PHASE_LABELS: [&str; 5] = ["generate", "eject", "route", "alloc", "skip_leap"];

/// Everything telemetry collected over one run, reported on
/// [`crate::SimResult::telemetry`]. Pure execution observability:
/// excluded from every parity comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Epoch time-series, ascending by `end_cycle`; empty when
    /// `telemetry_interval` is 0.
    pub epochs: Vec<EpochRecord>,
    /// Epoch snapshots discarded after [`EPOCH_CAP`] was reached.
    pub epochs_dropped: u64,
    /// Sampled packet lifecycle events, in commit order; empty when
    /// `trace_sample` is 0.
    pub traces: Vec<TraceEvent>,
    /// Trace events discarded after [`TRACE_CAP`] was reached.
    pub traces_dropped: u64,
    /// Wall-clock nanoseconds per engine phase, indexed by
    /// [`ProfPhase`]; all zeros unless the crate was built with the
    /// `phase-profile` feature.
    pub phase_ns: [u64; 5],
}

/// A wall-clock mark taken before a profiled phase (zero-sized and
/// free without the `phase-profile` feature).
pub(crate) struct ProfMark {
    #[cfg(feature = "phase-profile")]
    #[expect(
        clippy::disallowed_types,
        reason = "bench-only phase profiling; wall time is accumulated into TelemetryReport::phase_ns and never feeds simulated state (see DESIGN.md, \"Telemetry and tracing\")"
    )]
    t: std::time::Instant,
}

/// Takes a wall-clock mark for [`TelemetryCtl::prof_lap`].
#[inline]
pub(crate) fn prof_mark() -> ProfMark {
    ProfMark {
        #[cfg(feature = "phase-profile")]
        #[expect(
            clippy::disallowed_types,
            reason = "bench-only phase profiling mark; never feeds simulated state"
        )]
        t: std::time::Instant::now(),
    }
}

/// The engine's telemetry collector. `Default` is fully inert (both
/// knobs 0), which doubles as the detached placeholder for the
/// `mem::take` dance the epoch snapshot uses.
#[derive(Default)]
pub(crate) struct TelemetryCtl {
    /// Epoch length in cycles; 0 disables the time-series.
    interval: u32,
    /// Trace every `sample`-th packet by birth serial; 0 disables
    /// tracing.
    sample: u32,
    /// Next epoch boundary cycle (always a multiple of `interval`).
    next_due: u32,
    /// Inclusive start cycle of the epoch being accumulated.
    epoch_start: u32,
    /// Completed epoch records, ascending.
    epochs: Vec<EpochRecord>,
    /// Epochs discarded past [`EPOCH_CAP`].
    epochs_dropped: u64,
    /// Trace events, in commit order.
    traces: Vec<TraceEvent>,
    /// Events discarded past [`TRACE_CAP`].
    traces_dropped: u64,
    /// Packet-pool id → birth serial of the traced packet currently
    /// occupying the slot ([`UNTRACED`] otherwise). Pool ids are
    /// recycled; the admit hook rewrites the slot on every allocation
    /// and the eject hook clears it.
    slot: Vec<u64>,
    /// Counter snapshots at the last epoch boundary (deltas).
    prev_generated: u64,
    prev_delivered: u64,
    prev_ejected: u64,
    prev_credit_stalls: u64,
    prev_vc_stalls: u64,
    prev_retransmitted: u64,
    prev_dropped: u64,
    /// Per-link traversal counters at the last epoch boundary.
    prev_link_flits: Vec<u64>,
    /// Accumulated wall-clock nanoseconds per [`ProfPhase`].
    phase_ns: [u64; 5],
}

impl TelemetryCtl {
    /// Builds the collector from the config knobs.
    pub(crate) fn new(interval: u32, sample: u32) -> TelemetryCtl {
        TelemetryCtl {
            interval,
            sample,
            next_due: interval,
            ..TelemetryCtl::default()
        }
    }

    /// Whether packet tracing is on (gates every trace hook call site).
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.sample != 0
    }

    /// Whether any collector is on (gates report construction).
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.interval != 0 || self.sample != 0
    }

    /// Whether an epoch boundary at or before `cycle` is still
    /// unrecorded.
    #[inline]
    pub(crate) fn epoch_pending(&self, cycle: u32) -> bool {
        self.interval != 0 && cycle >= self.next_due
    }

    /// Birth serial of the packet in pool slot `pkt`, or [`UNTRACED`].
    #[inline]
    fn serial_of(&self, pkt: u32) -> u64 {
        let p = pkt as usize;
        if p < self.slot.len() {
            self.slot[p]
        } else {
            UNTRACED
        }
    }

    /// Appends `ev`, honoring [`TRACE_CAP`].
    #[inline]
    fn push_trace(&mut self, ev: TraceEvent) {
        if self.traces.len() < TRACE_CAP {
            self.traces.push(ev);
        } else {
            self.traces_dropped += 1;
        }
    }

    /// Admission hook: decides whether the packet is traced (pure
    /// modulus on its birth `serial` — no RNG), claims its pool slot,
    /// and records the inject event.
    pub(crate) fn trace_admit(&mut self, pkt: u32, serial: u64, router: u32, dst: u32, cycle: u32) {
        if self.sample == 0 {
            return;
        }
        let traced = serial.is_multiple_of(u64::from(self.sample));
        let p = pkt as usize;
        if p >= self.slot.len() {
            if !traced {
                return; // nothing to clear: slots default to untraced
            }
            self.slot.resize(p + 1, UNTRACED);
        }
        if traced {
            self.slot[p] = serial;
            self.push_trace(TraceEvent {
                serial,
                cycle,
                kind: TRACE_INJECT,
                router,
                a: dst,
                b: 0,
            });
        } else {
            // Pool ids are recycled: an untraced packet must overwrite
            // whatever traced packet used this slot before it.
            self.slot[p] = UNTRACED;
        }
    }

    /// The one record hook after admission: appends a `kind` event
    /// (operands `a`, `b` as the `TRACE_*` constants define them) if
    /// `pkt` is traced. A route decision is two calls, [`TRACE_ROUTE`]
    /// then [`TRACE_VC_ALLOC`]; trace events name the *downstream* input
    /// port and buffer the flits will arrive at, so route callers pass
    /// `PortMap::peer` of the port they claimed. [`TRACE_EJECT`] also
    /// clears the pool slot — the id is about to be recycled; a
    /// retransmitted packet keeps its id, serial and slot.
    pub(crate) fn trace(&mut self, pkt: u32, kind: u8, router: u32, a: u32, b: u32, cycle: u32) {
        if self.sample == 0 {
            return;
        }
        let serial = self.serial_of(pkt);
        if serial == UNTRACED {
            return;
        }
        self.push_trace(TraceEvent {
            serial,
            cycle,
            kind,
            router,
            a,
            b,
        });
        if kind == TRACE_EJECT {
            self.slot[pkt as usize] = UNTRACED;
        }
    }

    /// Accumulates the wall time since `mark` into `phase`'s counter.
    #[cfg(feature = "phase-profile")]
    #[inline]
    pub(crate) fn prof_lap(&mut self, phase: ProfPhase, mark: ProfMark) {
        let ns = u64::try_from(mark.t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = &mut self.phase_ns[phase as usize];
        *slot = slot.saturating_add(ns);
    }

    /// Feature-off profiling lap: compiles to nothing.
    #[cfg(not(feature = "phase-profile"))]
    #[inline]
    pub(crate) fn prof_lap(&mut self, _phase: ProfPhase, _mark: ProfMark) {}
}

impl Engine<'_> {
    /// Records every epoch boundary due at or before the current
    /// cycle. Called at the top of each step and immediately after a
    /// whole-cycle leap, so boundary snapshots are taken *before* the
    /// boundary cycle executes — a leapt-over boundary is recorded
    /// with the counters frozen across the leap, which are exactly the
    /// counters a cycle-by-cycle walk of those provably idle cycles
    /// would have carried to it.
    #[inline]
    pub(crate) fn telemetry_tick(&mut self) {
        if !self.telemetry.epoch_pending(self.cycle) {
            return;
        }
        // Detach the collector so the snapshot can read `&self` while
        // writing the (default-inert) telemetry field stays sound.
        let mut t = std::mem::take(&mut self.telemetry);
        while t.epoch_pending(self.cycle) {
            let end = t.next_due;
            self.telemetry_snapshot_epoch(&mut t, end);
        }
        self.telemetry = t;
    }

    /// Flushes any remaining whole epochs plus a final partial epoch,
    /// and converts the collector into the run's report (`None` when
    /// both knobs are off).
    pub(crate) fn telemetry_finish(&mut self) -> Option<Box<TelemetryReport>> {
        if !self.telemetry.active() {
            return None;
        }
        let mut t = std::mem::take(&mut self.telemetry);
        while t.epoch_pending(self.cycle) {
            let end = t.next_due;
            self.telemetry_snapshot_epoch(&mut t, end);
        }
        if t.interval != 0 && self.cycle > t.epoch_start {
            let end = self.cycle;
            self.telemetry_snapshot_epoch(&mut t, end);
        }
        Some(Box::new(TelemetryReport {
            epochs: t.epochs,
            epochs_dropped: t.epochs_dropped,
            traces: t.traces,
            traces_dropped: t.traces_dropped,
            phase_ns: t.phase_ns,
        }))
    }

    /// Snapshots one epoch ending at `end` (exclusive) into `t`.
    /// Observation-only by construction: takes the engine by `&self`,
    /// so the detached collector is the only thing it can write.
    fn telemetry_snapshot_epoch(&self, t: &mut TelemetryCtl, end: u32) {
        let span = end - t.epoch_start;
        let links = self.link_flits.len();
        if t.prev_link_flits.len() != links {
            t.prev_link_flits.resize(links, 0);
        }
        let mut link_total = 0u64;
        let mut active_links = 0u32;
        let mut max_link_flits = 0u64;
        for i in 0..links {
            let d = self.link_flits[i] - t.prev_link_flits[i];
            if d > 0 {
                active_links += 1;
                link_total += d;
                max_link_flits = max_link_flits.max(d);
            }
            t.prev_link_flits[i] = self.link_flits[i];
        }
        let mut voq_hist = [0u32; 8];
        for q in 0..self.credits.len() {
            let depth = self.bufs.len(q);
            if depth > 0 {
                let bucket = (depth.ilog2() as usize).min(7);
                voq_hist[bucket] += 1;
            }
        }
        let n = self.n as u32;
        let mut awake_routers = 0u32;
        let mut dozing_routers = 0u32;
        for r in 0..self.n {
            if self.skip.is_awake(r) {
                awake_routers += 1;
            } else if self.skip.wake_at(r) != NONE32 {
                dozing_routers += 1;
            }
        }
        let rec = EpochRecord {
            end_cycle: end,
            span,
            generated: self.total_generated - t.prev_generated,
            delivered: self.total_delivered - t.prev_delivered,
            flits_ejected: self.total_flits_ejected - t.prev_ejected,
            link_flits: link_total,
            active_links,
            max_link_flits,
            voq_hist,
            credit_stalls: self.diag_credit_stalls - t.prev_credit_stalls,
            vc_stalls: self.diag_vc_stalls - t.prev_vc_stalls,
            retransmitted: self.faults.retransmitted_packets - t.prev_retransmitted,
            dropped_flits: self.faults.dropped_flits - t.prev_dropped,
            awake_routers,
            dozing_routers,
            asleep_routers: n - awake_routers - dozing_routers,
            in_flight_flits: self.flits_in_network() as u64,
            source_backlog: self.source_backlog() as u64,
        };
        t.prev_generated = self.total_generated;
        t.prev_delivered = self.total_delivered;
        t.prev_ejected = self.total_flits_ejected;
        t.prev_credit_stalls = self.diag_credit_stalls;
        t.prev_vc_stalls = self.diag_vc_stalls;
        t.prev_retransmitted = self.faults.retransmitted_packets;
        t.prev_dropped = self.faults.dropped_flits;
        if t.epochs.len() < EPOCH_CAP {
            t.epochs.push(rec);
        } else {
            t.epochs_dropped += 1;
        }
        t.epoch_start = end;
        if end >= t.next_due {
            t.next_due = end + t.interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_a_pure_modulus_and_survives_id_recycling() {
        let mut t = TelemetryCtl::new(0, 4);
        // Serial 0 traced into pool slot 3.
        t.trace_admit(3, 0, 1, 2, 10);
        assert_eq!(t.serial_of(3), 0);
        // Serial 1 (untraced) recycles slot 3: the slot must clear.
        t.trace_admit(3, 1, 1, 2, 11);
        assert_eq!(t.serial_of(3), UNTRACED);
        // Serial 4 traced into a fresh slot.
        t.trace_admit(7, 4, 1, 5, 12);
        assert_eq!(t.serial_of(7), 4);
        t.trace(7, TRACE_EJECT, 5, 9, 0, 20);
        assert_eq!(t.serial_of(7), UNTRACED);
        let kinds: Vec<u8> = t.traces.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TRACE_INJECT, TRACE_INJECT, TRACE_EJECT]);
    }

    #[test]
    fn hooks_are_inert_when_tracing_is_off() {
        let mut t = TelemetryCtl::new(64, 0);
        t.trace_admit(0, 0, 0, 1, 0);
        for kind in TRACE_ROUTE..=TRACE_RETRANSMIT {
            t.trace(0, kind, 0, 0, 0, 0);
        }
        assert!(t.traces.is_empty());
        assert!(t.slot.is_empty());
    }

    #[test]
    fn trace_cap_counts_overflow_instead_of_growing() {
        let mut t = TelemetryCtl::new(0, 1);
        for s in 0..(TRACE_CAP as u64 + 10) {
            t.trace_admit(0, s, 0, 1, 0);
        }
        assert_eq!(t.traces.len(), TRACE_CAP);
        assert_eq!(t.traces_dropped, 10);
    }

    #[test]
    fn kind_labels_are_total() {
        for k in 0..=5u8 {
            assert_ne!(kind_label(k), "unknown");
        }
        assert_eq!(kind_label(200), "unknown");
    }
}
