//! The engine's deterministic tie-break orders, in one place.
//!
//! Simulation results depend on *iteration order* wherever the cycle
//! engine resolves a many-to-one contention: which output link is
//! considered first, which requester a granted output scans first, and
//! which port ejection drains first. The engine's scans and the dense
//! test reference they are pinned against (`crate::engine::Reference`)
//! must walk these orders identically or lose bit-for-bit parity. This
//! module is the single definition — and the audit of what the orders
//! are:
//!
//! * **Router scan order** — ascending router id. Every phase
//!   (ejection, injection start, request build) walks the awake list,
//!   which is ascending.
//! * **Port scan order** — ascending port id within a router (ports are
//!   numbered by neighbor index; `BitSet::next_in` yields set ports in
//!   exactly this order). Ejection rotates its *starting* port by
//!   [`eject_start`] but still walks ascending offsets from it.
//! * **VC scan order** — ascending VC index within a port, both for
//!   request building and ejection ([`crate::router::VcIter`] yields
//!   set mask bits in exactly this order).
//! * **Output grant order** — two touched lists, one rotation over their
//!   concatenation: first the outputs some transit head requested, in
//!   order of their first such request (ascending (router, port, VC));
//!   then the outputs only injection lanes requested, in order of their
//!   first request (ascending (router, stream)); the whole rotated by
//!   [`output_rotation`] of the combined length. An output belongs to
//!   one router and a router's heads are scanned before its lanes, so
//!   the lists are the same whether a pass visits each router once
//!   (heads, then lanes — what the engine does) or sweeps all heads and
//!   then all lanes. Outputs granted earlier win input ports earlier
//!   (accept is first-come), so this rotation doubles as the
//!   input-accept tie-break.
//! * **Requester order at one output** — the per-output request list in
//!   discovery order (the owning router's heads, then its lanes),
//!   rotated by [`requester_rotation`] of the cycle and the output's
//!   *downstream input port* id, scanned in two passes
//!   (packet-continuation flits before new heads). The engine indexes
//!   outputs by the sender's port and derives the downstream id for this
//!   hash alone, so the hash — hence every grant — does not depend on
//!   how the arrays are laid out.
//! * **What a later allocator pass replays.** Pass k + 1 of a cycle
//!   reruns only the requesters pass k left *stalled*: heads that found
//!   no free VC of their class or no credit, and the lanes of routers
//!   with a lane whose output was free but out of credit. Everyone else
//!   is settled for the cycle, so a full rescan would register the same
//!   requests in the same per-output order: no head becomes ready
//!   mid-cycle (arrivals and ejection precede allocation); a granted
//!   requester has sent (its input port is `port_used`, its lane's
//!   `last_sent` is this cycle); one that registered and lost faces an
//!   output that is now `out_taken`, or an input port that accepted
//!   another grant (`port_used`), or an `inj_budget` of 0 — all
//!   monotone within a cycle; it already holds its route and VC, and
//!   nobody else can spend the credits of a (link, VC) it owns, so its
//!   rerun would reach the taken-output check without counting a stall
//!   or drawing from the RNG. The dense test reference rescans anyway
//!   and must agree bit for bit, stall counters included.
//!
//! The rotations are multiplicative hashes of the cycle (and output
//! port), chosen to decorrelate consecutive cycles; their exact values
//! are pinned by regression tests because changing them silently
//! changes every simulation result.

/// Rotated start index into the touched-outputs list for this cycle's
/// grant phase (`olen` = list length).
#[inline]
pub(crate) fn output_rotation(cycle: u32, olen: usize) -> usize {
    if olen == 0 {
        0
    } else {
        (cycle as usize).wrapping_mul(0x9E37_79B9) % olen
    }
}

/// Rotated start index into output `out_port`'s requester list
/// (`len` = requester count, must be nonzero).
#[inline]
pub(crate) fn requester_rotation(cycle: u32, out_port: usize, len: usize) -> usize {
    (cycle as usize ^ out_port).wrapping_mul(0x85EB_CA6B) % len
}

/// Rotated starting *offset* of the ejection port scan at a router with
/// `ports` input ports (the scan walks `ports` ascending offsets from
/// it, wrapping).
#[inline]
pub(crate) fn eject_start(cycle: u32, ports: usize) -> usize {
    (cycle as usize) % ports.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rotation constants are part of every simulation's semantics:
    /// changing them changes results. Pin exact values so an accidental
    /// edit fails loudly instead of silently shifting goldens.
    #[test]
    fn rotation_values_are_pinned() {
        assert_eq!(output_rotation(0, 7), 0);
        assert_eq!(output_rotation(1, 7), 0x9E37_79B9usize % 7);
        assert_eq!(
            output_rotation(12345, 997),
            12345usize.wrapping_mul(0x9E37_79B9) % 997
        );
        assert_eq!(output_rotation(12345, 0), 0);

        assert_eq!(requester_rotation(0, 0, 5), 0);
        assert_eq!(
            requester_rotation(3, 10, 5),
            (3usize ^ 10).wrapping_mul(0x85EB_CA6B) % 5
        );
        assert_eq!(requester_rotation(7, 7, 9), 0);

        assert_eq!(eject_start(5, 4), 1);
        assert_eq!(
            eject_start(5, 0),
            0,
            "portless router must not divide by zero"
        );
    }

    /// The VC scan order contract: `VcIter` yields occupied VCs in
    /// ascending order, up to the top bit of the mask.
    #[test]
    fn vc_iter_is_ascending() {
        let got: Vec<usize> = crate::router::VcIter(0b1010_0110).collect();
        assert_eq!(got, vec![1, 2, 5, 7]);
        let all: Vec<usize> = crate::router::VcIter(u32::MAX).collect();
        assert_eq!(all, (0..crate::router::MAX_VCS).collect::<Vec<_>>());
        assert_eq!(crate::router::VcIter(0).count(), 0);
    }
}
