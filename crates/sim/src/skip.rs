//! Which routers a cycle scans: the awake list. (Which ports of a
//! router a scan visits is the flit store's business — the port bitsets
//! of [`crate::router::FlitRings`], walked by `Engine::next_port`.)
//!
//! Below saturation most router-cycles do nothing, so the per-cycle
//! phases do not walk every router, port, and VC: this module tracks,
//! per router, whether a scan over it *could possibly act* this cycle,
//! and the phases iterate only the routers where it could. The contract
//! is exactness, not approximation: a router is skipped only when a
//! scan over it is *provably* a no-op (no buffered flit, no
//! source-queue packet, no injection stream, and no pipeline arrival
//! that has cleared the router pipeline), so results are bit-for-bit
//! those of a dense walk over every router, port and cycle — pinned
//! against exactly that walk, the `#[cfg(test)]` reference schedule
//! (`crate::engine::Reference`), by the parity suite in `skip/tests.rs`.
//! See DESIGN.md, "Event-driven cycle skipping", for the full
//! wake-condition argument.
//!
//! Router activity states:
//!
//! * **Awake** — in the [`SkipCtl::awake`] bitset; scanned by every
//!   phase.
//! * **Dozing** — holds buffered flits, but every one of them is still
//!   inside the router pipeline (`ready_at` in the future). Entered
//!   only on the first arrival at a fully idle router; `wake_at` is
//!   that flit's `ready_at` and the router sits in the timing
//!   [`SkipCtl::wheel`] until then. Arrival `ready_at`s are monotone in
//!   the arrival cycle, so later arrivals can never need an *earlier*
//!   wake.
//! * **Asleep** — no buffered flit, no queued packet, no active
//!   injection stream. Nothing a scan does at such a router can have
//!   any effect (and it draws no RNG), so the scan is skipped entirely
//!   and counted in [`SkipCtl::skipped_router_cycles`].
//!
//! [`SkipCtl`] keeps no count of a router's work. The sleep test,
//! [`Engine::maybe_sleep`], asks the three stores that own it: the flit
//! store's "holds a flit" port bitset, the source queue and the
//! injection pool.
//!
//! When *every* router is asleep or dozing and the link pipeline is
//! empty, the engine additionally leaps whole cycles forward to the
//! next interesting cycle (doze wake, open-loop arrival, workload
//! compute timer, fault event, staged table swap) — see
//! `Engine::maybe_leap`.

use crate::engine::Engine;
use crate::router::{BitSet, NONE32};

/// Per-router activity tracking: the domain of every per-cycle router
/// loop.
pub(crate) struct SkipCtl {
    /// Awake routers.
    awake: BitSet,
    /// Ascending list of awake routers, rebuilt each cycle after the
    /// generation phase (the last phase that can wake a router) by
    /// [`SkipCtl::build_awake_list`]. Phases that sleep a router
    /// mid-cycle leave it in the list — scanning a just-slept router is
    /// a no-op.
    pub(crate) awake_list: Vec<u32>,
    /// Doze target cycle (`NONE32` unless dozing).
    wake_at: Vec<u32>,
    /// Timing wheel: `wheel[c % wheel.len()]` holds the routers whose
    /// doze target is cycle `c`. Entries are lazily invalidated — a
    /// doze canceled by a fault purge leaves a stale entry that the
    /// drain filters out via the `wake_at` check.
    wheel: Vec<Vec<u32>>,
    /// Router-cycles proven idle and never scanned (reported as
    /// [`crate::SimResult::skipped_router_cycles`]).
    pub(crate) skipped_router_cycles: u64,
}

impl SkipCtl {
    /// Builds the controller for `n` routers. `pipeline_delay` sizes the
    /// timing wheel (a doze target is always within `pipeline_delay`
    /// cycles of the arrival that set it).
    pub(crate) fn new(n: usize, pipeline_delay: u32) -> SkipCtl {
        let wheel_len = pipeline_delay as usize + 1;
        SkipCtl {
            awake: BitSet::new(n),
            awake_list: Vec::new(),
            wake_at: vec![NONE32; n],
            wheel: vec![Vec::new(); wheel_len],
            skipped_router_cycles: 0,
        }
    }

    /// Whether router `r` is awake.
    #[inline]
    pub(crate) fn is_awake(&self, r: usize) -> bool {
        self.awake.contains(r)
    }

    /// Whether no router is awake (dozing routers do not count — their
    /// wake cycles are visible through [`SkipCtl::next_doze_wake`]).
    #[inline]
    pub(crate) fn none_awake(&self) -> bool {
        self.awake.is_empty()
    }

    /// Doze target of router `r` (`NONE32` unless dozing; invariant
    /// checks and the idle leap).
    #[inline]
    pub(crate) fn wake_at(&self, r: usize) -> u32 {
        self.wake_at[r]
    }

    /// Wakes router `r` immediately (source-queue push, ready arrival).
    /// Cancels any pending doze — its wheel entry goes stale and is
    /// filtered at drain time.
    #[inline]
    pub(crate) fn wake_now(&mut self, r: usize) {
        self.awake.insert(r);
        self.wake_at[r] = NONE32;
    }

    /// Puts router `r` to sleep, canceling any pending doze. The engine
    /// calls it only from `Engine::maybe_sleep`, once the flit store,
    /// the source queue and the injection pool all report the router
    /// empty.
    #[inline]
    pub(crate) fn sleep(&mut self, r: usize) {
        self.awake.remove(r);
        self.wake_at[r] = NONE32;
    }

    /// Records a flit arrival into router `r`'s input buffers. A fully
    /// idle router starts a doze until the flit clears the router
    /// pipeline at `ready_at` (or wakes outright when it is already
    /// clear); an awake or dozing router is left as it is — doze
    /// targets never need moving *earlier* because `ready_at` is
    /// monotone in the arrival cycle.
    #[inline]
    pub(crate) fn on_arrival(&mut self, r: usize, ready_at: u32, cycle: u32) {
        if !self.is_awake(r) && self.wake_at[r] == NONE32 {
            if ready_at <= cycle {
                self.wake_now(r);
            } else {
                self.wake_at[r] = ready_at;
                let w = ready_at as usize % self.wheel.len();
                self.wheel[w].push(r as u32);
            }
        }
    }

    /// Wakes every router dozing until `cycle` (called at the top of the
    /// step, before arrivals). Stale entries — dozes canceled or
    /// re-targeted since — are filtered by the `wake_at` check.
    pub(crate) fn wheel_wake(&mut self, cycle: u32) {
        let w = cycle as usize % self.wheel.len();
        let mut pend = std::mem::take(&mut self.wheel[w]);
        for r in pend.drain(..) {
            if self.wake_at[r as usize] == cycle {
                self.wake_now(r as usize);
            }
        }
        self.wheel[w] = pend;
    }

    /// The earliest valid doze wake in `(cycle, cycle + wheel_len)`,
    /// if any (the idle leap's bound from buffered-but-dozing flits).
    pub(crate) fn next_doze_wake(&self, cycle: u32) -> Option<u32> {
        for dc in 1..self.wheel.len() as u32 {
            let c = cycle.wrapping_add(dc);
            let w = c as usize % self.wheel.len();
            if self.wheel[w].iter().any(|&r| self.wake_at[r as usize] == c) {
                return Some(c);
            }
        }
        None
    }

    /// Rebuilds [`SkipCtl::awake_list`] from the bitset (ascending) and
    /// charges the skipped-router counter for this cycle. Runs after
    /// the generation phase — the last phase that can wake a router —
    /// so the list covers every router any later phase must scan.
    pub(crate) fn build_awake_list(&mut self, n: usize) {
        self.awake_list.clear();
        let mut from = 0;
        while let Some(r) = self.awake.next_in(from, n as u32) {
            self.awake_list.push(r);
            from = r + 1;
        }
        self.skipped_router_cycles += (n - self.awake_list.len()) as u64;
    }

    /// Charges `cycles` whole skipped cycles of `n` routers each (the
    /// engine-level idle leap).
    #[inline]
    pub(crate) fn charge_leap(&mut self, n: usize, cycles: u32) {
        self.skipped_router_cycles += n as u64 * u64::from(cycles);
    }
}

impl Engine<'_> {
    /// Sleeps router `r` if nothing is left — no buffered flit, no
    /// source-queue packet, no injection stream — canceling a doze whose
    /// flits were purged away (fault events). Called wherever a router
    /// can run out of work: a flit popped, ejected or purged, a lane
    /// retired.
    #[inline]
    pub(crate) fn maybe_sleep(&mut self, r: usize) {
        let (lo, hi) = self.geom.ports(r);
        if self.bufs.next_port(false, lo, hi).is_none()
            && self.src_q[r].is_empty()
            && self.inj.len(r) == 0
        {
            self.skip.sleep(r);
        }
    }
}

#[cfg(test)]
mod tests;
