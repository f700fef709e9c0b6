//! Event-driven idle-router skipping (`SimConfig::skip`).
//!
//! Below saturation most router-cycles do nothing, yet the dense
//! schedule walks every router, port, and VC every cycle. This module
//! tracks, per router, whether the *dense scan could possibly act* this
//! cycle, and lets the per-cycle phases iterate only the routers where
//! it could. The contract is exactness, not approximation: a router is
//! skipped only when the dense scan over it is *provably* a no-op (no
//! buffered flit, no source-queue packet, no injection stream, and no
//! pipeline arrival that has cleared the router pipeline), so results
//! are bit-for-bit identical with skipping on and off — pinned by the
//! dense-vs-skip parity suite. See DESIGN.md, "Event-driven cycle
//! skipping", for the full wake-condition argument.
//!
//! Router activity states:
//!
//! * **Awake** — in the [`SkipCtl::awake`] bitset; scanned by every
//!   phase, exactly like the dense schedule.
//! * **Dozing** — holds buffered flits, but every one of them is still
//!   inside the router pipeline (`ready_at` in the future). Entered
//!   only on the first arrival at a fully idle router; `wake_at` is
//!   that flit's `ready_at` and the router sits in the timing
//!   [`SkipCtl::wheel`] until then. Arrival `ready_at`s are monotone in
//!   the arrival cycle, so later arrivals can never need an *earlier*
//!   wake.
//! * **Asleep** — no buffered flit, no queued packet, no active
//!   injection stream. Nothing the dense scan does at such a router
//!   can have any effect (and it draws no RNG), so the scan is skipped
//!   entirely and counted in [`SkipCtl::skipped_router_cycles`].
//!
//! When *every* router is asleep or dozing and the link pipeline is
//! empty, the engine additionally leaps whole cycles forward to the
//! next interesting cycle (doze wake, open-loop arrival, workload
//! compute timer, fault event, staged table swap) — see
//! `Engine::maybe_leap`.

use crate::router::NONE32;

/// Per-router activity tracking for event-driven cycle skipping.
pub(crate) struct SkipCtl {
    /// Master switch ([`crate::SimConfig::skip`]). When false every
    /// other field is inert and the engine runs the dense schedule.
    pub(crate) enabled: bool,
    /// Whether the per-router port-occupancy bitmasks are maintained
    /// (requires every router degree ≤ 32; `false` falls back to the
    /// dense port scan for awake routers).
    pub(crate) masks: bool,
    /// Awake bitset (bit `r % 64` of word `r / 64`).
    awake: Vec<u64>,
    /// Ascending list of awake routers, rebuilt each cycle after the
    /// generation phase (the last phase that can wake a router) by
    /// [`SkipCtl::build_awake_list`]. Phases that sleep a router
    /// mid-cycle leave it in the list — scanning a just-slept router is
    /// a no-op, exactly as in the dense schedule.
    pub(crate) awake_list: Vec<u32>,
    /// Buffered flits per router (ready or not; all ports, all VCs).
    buffered: Vec<u32>,
    /// Doze target cycle (`NONE32` unless dozing).
    wake_at: Vec<u32>,
    /// Timing wheel: `wheel[c % wheel.len()]` holds the routers whose
    /// doze target is cycle `c`. Entries are lazily invalidated — a
    /// doze canceled by a fault purge leaves a stale entry that the
    /// drain filters out via the `wake_at` check.
    wheel: Vec<Vec<u32>>,
    /// Per-router bitmask of local input ports holding any flit
    /// (bit `i` ⇔ `port_flits[lo + i] > 0`; valid iff `masks`).
    pub(crate) occ: Vec<u32>,
    /// Per-router bitmask of local input ports holding flits that
    /// terminate at this router (bit `i` ⇔ `eject_flits[lo + i] > 0`;
    /// valid iff `masks`).
    pub(crate) eject_occ: Vec<u32>,
    /// Router-cycles proven idle and never scanned (reported as
    /// [`crate::SimResult::skipped_router_cycles`]).
    pub(crate) skipped_router_cycles: u64,
}

impl SkipCtl {
    /// Builds the controller for `n` routers. `pipeline_delay` sizes the
    /// timing wheel (a doze target is always within `pipeline_delay`
    /// cycles of the arrival that set it); `max_degree` gates the
    /// port-occupancy masks.
    pub(crate) fn new(n: usize, pipeline_delay: u32, max_degree: usize, enabled: bool) -> SkipCtl {
        let wheel_len = pipeline_delay as usize + 1;
        SkipCtl {
            enabled,
            masks: enabled && max_degree <= 32,
            awake: vec![0; n.div_ceil(64)],
            awake_list: Vec::new(),
            buffered: vec![0; n],
            wake_at: vec![NONE32; n],
            wheel: vec![Vec::new(); wheel_len],
            occ: vec![0; n],
            eject_occ: vec![0; n],
            skipped_router_cycles: 0,
        }
    }

    /// Whether router `r` is awake.
    #[inline]
    pub(crate) fn is_awake(&self, r: usize) -> bool {
        self.awake[r / 64] & (1u64 << (r % 64)) != 0
    }

    /// Whether no router is awake (dozing routers do not count — their
    /// wake cycles are visible through [`SkipCtl::next_doze_wake`]).
    #[inline]
    pub(crate) fn none_awake(&self) -> bool {
        self.awake.iter().all(|&w| w == 0)
    }

    /// Buffered-flit count of router `r` (invariant checks).
    #[inline]
    pub(crate) fn buffered(&self, r: usize) -> u32 {
        self.buffered[r]
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
        self.awake[r / 64] |= 1u64 << (r % 64);
        self.wake_at[r] = NONE32;
    }

    #[inline]
    fn sleep(&mut self, r: usize) {
        self.awake[r / 64] &= !(1u64 << (r % 64));
        self.wake_at[r] = NONE32;
    }

    /// Records a flit arrival into router `r`'s input buffers. A fully
    /// idle router starts a doze until the flit clears the router
    /// pipeline at `ready_at` (or wakes outright when it is already
    /// clear); an awake or dozing router just counts the flit — doze
    /// targets never need moving *earlier* because `ready_at` is
    /// monotone in the arrival cycle.
    #[inline]
    pub(crate) fn on_arrival(&mut self, r: usize, ready_at: u32, cycle: u32) {
        self.buffered[r] += 1;
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

    /// Records `k` buffered flits leaving router `r` (ejection, switch
    /// traversal, fault purge). Returns whether the router's buffers are
    /// now empty — only then can [`SkipCtl::maybe_sleep`] possibly act,
    /// so hot callers skip its source-queue/stream loads otherwise.
    #[inline]
    pub(crate) fn on_drain(&mut self, r: usize, k: u32) -> bool {
        debug_assert!(self.buffered[r] >= k);
        self.buffered[r] -= k;
        self.buffered[r] == 0
    }

    /// Sleeps router `r` if nothing is left: no buffered flit, no
    /// source-queue packet, no injection stream. Also cancels a doze
    /// whose flits were purged away (fault events).
    #[inline]
    pub(crate) fn maybe_sleep(&mut self, r: usize, srcq_empty: bool, inj_len: u32) {
        if self.buffered[r] == 0 && srcq_empty && inj_len == 0 {
            self.sleep(r);
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
        for (wi, &word) in self.awake.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let b = m.trailing_zeros();
                self.awake_list.push((wi * 64) as u32 + b);
                m &= m - 1;
            }
        }
        self.skipped_router_cycles += (n - self.awake_list.len()) as u64;
    }

    /// Charges `cycles` whole skipped cycles of `n` routers each (the
    /// engine-level idle leap).
    #[inline]
    pub(crate) fn charge_leap(&mut self, n: usize, cycles: u32) {
        self.skipped_router_cycles += n as u64 * u64::from(cycles);
    }

    /// Rebuilds router `r`'s port-occupancy masks from the engine's
    /// per-port counters (fault purges touch many queues at once; a
    /// rebuild is simpler than per-queue mask deltas there).
    pub(crate) fn rebuild_masks(
        &mut self,
        r: usize,
        lo: u32,
        hi: u32,
        port_flits: &[u32],
        eject_flits: &[u32],
    ) {
        if !self.masks {
            return;
        }
        let mut occ = 0u32;
        let mut eject = 0u32;
        for p in lo..hi {
            let bit = 1u32 << (p - lo);
            if port_flits[p as usize] > 0 {
                occ |= bit;
            }
            if eject_flits[p as usize] > 0 {
                eject |= bit;
            }
        }
        self.occ[r] = occ;
        self.eject_occ[r] = eject;
    }
}

/// Iterates the set bits of a ≤ 32-bit port mask in *rotated* order:
/// offsets `(start + j) % d` for ascending `j`, exactly the order the
/// dense rotated port scan visits them — but touching only occupied
/// ports. `d` is the router degree (≤ 32), `start < d` the rotation.
#[inline]
pub(crate) fn rotated_bits(mask: u32, d: usize, start: usize) -> RotatedBits {
    debug_assert!(d <= 32 && start < d.max(1));
    let doubled = (u64::from(mask) << d) | u64::from(mask);
    RotatedBits {
        mm: (doubled >> start) & ((1u64 << d) - 1),
        d,
        start,
    }
}

/// Iterator over [`rotated_bits`]; yields absolute port *offsets*
/// (`0..d`) in rotated visit order.
pub(crate) struct RotatedBits {
    mm: u64,
    d: usize,
    start: usize,
}

impl Iterator for RotatedBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.mm == 0 {
            return None;
        }
        let j = self.mm.trailing_zeros() as usize;
        self.mm &= self.mm - 1;
        Some((self.start + j) % self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_doze_sleep_lifecycle() {
        let mut s = SkipCtl::new(100, 2, 32, true);
        assert!(s.none_awake());
        assert!(!s.is_awake(5));

        // First arrival at an idle router dozes it until ready_at.
        s.on_arrival(5, 12, 10);
        assert!(!s.is_awake(5));
        assert_eq!(s.wake_at(5), 12);
        assert_eq!(s.next_doze_wake(10), Some(12));
        // A later arrival (monotone ready_at) changes nothing.
        s.on_arrival(5, 13, 11);
        assert_eq!(s.wake_at(5), 12);

        // The wheel wakes it at exactly cycle 12.
        s.wheel_wake(11);
        assert!(!s.is_awake(5));
        s.wheel_wake(12);
        assert!(s.is_awake(5));
        assert_eq!(s.wake_at(5), NONE32);

        // Draining both flits puts it back to sleep.
        s.on_drain(5, 2);
        s.maybe_sleep(5, true, 0);
        assert!(!s.is_awake(5));
        assert!(s.none_awake());
    }

    #[test]
    fn maybe_sleep_requires_all_three_empty() {
        let mut s = SkipCtl::new(8, 2, 8, true);
        s.wake_now(3);
        s.maybe_sleep(3, false, 0); // source queue still holds a packet
        assert!(s.is_awake(3));
        s.maybe_sleep(3, true, 1); // an injection stream is active
        assert!(s.is_awake(3));
        s.maybe_sleep(3, true, 0);
        assert!(!s.is_awake(3));
    }

    #[test]
    fn canceled_doze_leaves_no_valid_wheel_entry() {
        let mut s = SkipCtl::new(8, 3, 8, true);
        s.on_arrival(2, 7, 4);
        assert_eq!(s.next_doze_wake(4), Some(7));
        // Fault purge removes the flit: the doze is canceled.
        s.on_drain(2, 1);
        s.maybe_sleep(2, true, 0);
        assert_eq!(s.next_doze_wake(4), None);
        // Draining the stale entry does not wake the router.
        s.wheel_wake(7);
        assert!(!s.is_awake(2));
    }

    #[test]
    fn awake_list_is_ascending_and_counts_skips() {
        let mut s = SkipCtl::new(130, 2, 32, true);
        for r in [129, 0, 64, 63] {
            s.wake_now(r);
        }
        s.build_awake_list(130);
        assert_eq!(s.awake_list, vec![0, 63, 64, 129]);
        assert_eq!(s.skipped_router_cycles, 126);
        s.charge_leap(130, 3);
        assert_eq!(s.skipped_router_cycles, 126 + 390);
    }

    #[test]
    fn rotated_bits_match_dense_rotated_scan() {
        // Every (mask, d, start): the iterator yields exactly the
        // occupied offsets in the dense scan's rotated visit order.
        for d in 1..=8usize {
            let full = if d == 32 { u32::MAX } else { (1u32 << d) - 1 };
            for mask in 0..=full {
                for start in 0..d {
                    let dense: Vec<usize> = (0..d)
                        .map(|off| (start + off) % d)
                        .filter(|&o| mask & (1 << o) != 0)
                        .collect();
                    let fast: Vec<usize> = rotated_bits(mask, d, start).collect();
                    assert_eq!(fast, dense, "mask={mask:#b} d={d} start={start}");
                }
            }
        }
    }

    #[test]
    fn rotated_bits_full_width() {
        let fast: Vec<usize> = rotated_bits(u32::MAX, 32, 31).collect();
        let dense: Vec<usize> = (0..32).map(|off| (31 + off) % 32).collect();
        assert_eq!(fast, dense);
    }
}
