//! Flow control: the link pipeline, credit accounting, and output-VC
//! (wormhole) ownership.
//!
//! Credits model downstream buffer space with zero return latency (see
//! DESIGN.md). The counter lives with the *sender*: `credits[p·vcs + v]`,
//! `p` the sender's own port, counts the free slots of VC `v` of the
//! input buffer at the far end of that link; the sender decrements it on
//! link traversal and the receiver increments it (through
//! `PortMap::peer`) on dequeue. Output-VC ownership (`out_owner`, same
//! index, holding the owning packet or `NONE32`) implements wormhole
//! switching: a packet holds its claimed (link, VC) from head allocation
//! to tail traversal. The pipeline's arrival lists are the one record
//! of the flits on links; the in-flight count sums their lengths.

use crate::router::NONE32;

/// A flit in flight on a link, addressed to a downstream buffer queue.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Destination (input-buffer, VC) queue index.
    pub buf: u32,
    /// Packet id.
    pub pkt: u32,
    /// Flit sequence number within the packet.
    pub seq: u16,
    /// Whether the packet terminates at the receiving router. Computed
    /// at departure, where the packet's destination is already in cache
    /// from the routing decision — the arrival path then never touches
    /// the packet-pool `dst` array (a cache miss per flit otherwise).
    pub term: bool,
}

/// Fixed-latency link pipeline: a circular schedule of arrival lists,
/// indexed by arrival cycle modulo (latency + 1).
pub struct LinkPipeline {
    slots: Vec<Vec<Arrival>>,
}

impl LinkPipeline {
    /// A pipeline for links of the given latency (cycles).
    pub fn new(link_latency: u32) -> LinkPipeline {
        LinkPipeline {
            slots: vec![Vec::new(); link_latency as usize + 1],
        }
    }

    #[inline]
    fn slot_of(&self, cycle: u32) -> usize {
        cycle as usize % self.slots.len()
    }

    /// Schedules a flit to arrive at `arrive_cycle`.
    #[inline]
    pub fn depart(&mut self, arrive_cycle: u32, a: Arrival) {
        let s = self.slot_of(arrive_cycle);
        self.slots[s].push(a);
    }

    /// Takes this cycle's arrivals. The returned buffer must be handed
    /// back via [`LinkPipeline::recycle`] to reuse its allocation.
    #[inline]
    pub fn arrivals(&mut self, cycle: u32) -> Vec<Arrival> {
        let s = self.slot_of(cycle);
        std::mem::take(&mut self.slots[s])
    }

    /// Returns a drained arrival buffer for reuse.
    #[inline]
    pub fn recycle(&mut self, cycle: u32, mut buf: Vec<Arrival>) {
        buf.clear();
        let s = self.slot_of(cycle);
        if self.slots[s].is_empty() && buf.capacity() > self.slots[s].capacity() {
            self.slots[s] = buf;
        }
    }

    /// Flits currently on links: O(link latency).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// All scheduled arrivals, in no particular order (fault-event scan).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arrival> {
        self.slots.iter().flatten()
    }

    /// Removes every scheduled arrival matching `pred` and returns them
    /// (the caller restores the credits the senders spent). O(in-flight)
    /// — called only at (rare) fault events.
    pub(crate) fn purge<F: FnMut(&Arrival) -> bool>(&mut self, mut pred: F) -> Vec<Arrival> {
        let mut removed = Vec::new();
        for slot in &mut self.slots {
            slot.retain(|a| {
                if pred(a) {
                    removed.push(*a);
                    false
                } else {
                    true
                }
            });
        }
        removed
    }
}

/// Claims a free VC of `class` on `out_port` (the sender's port) for
/// `pkt`: returns the VC index and records `pkt` as its owner, or `None`
/// when the whole class is held by in-flight packets (a VC-exhaustion
/// stall).
#[inline]
pub(crate) fn claim_vc(
    out_owner: &mut [u32],
    out_port: u32,
    vcs: usize,
    class: usize,
    per_class: usize,
    pkt: u32,
) -> Option<u8> {
    for sub in 0..per_class {
        let ovc = class * per_class + sub;
        let out_idx = out_port as usize * vcs + ovc;
        if out_owner[out_idx] == NONE32 {
            out_owner[out_idx] = pkt;
            return Some(ovc as u8);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_delivers_at_latency() {
        let mut p = LinkPipeline::new(2);
        p.depart(
            5,
            Arrival {
                buf: 1,
                pkt: 10,
                seq: 0,
                term: false,
            },
        );
        p.depart(
            6,
            Arrival {
                buf: 2,
                pkt: 11,
                seq: 1,
                term: false,
            },
        );
        assert_eq!(p.in_flight(), 2);
        assert!(p.arrivals(4).is_empty());
        let a5 = p.arrivals(5);
        assert_eq!(a5.len(), 1);
        assert_eq!((a5[0].buf, a5[0].pkt, a5[0].seq), (1, 10, 0));
        p.recycle(5, a5);
        let a6 = p.arrivals(6);
        assert_eq!(a6.len(), 1);
        assert_eq!(a6[0].pkt, 11);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn claim_vc_walks_the_class_and_respects_ownership() {
        let vcs = 4;
        let per_class = 2;
        let mut owner = vec![NONE32; 2 * vcs];
        // Claim both VCs of class 1 on port 1 (indices 1*4+2, 1*4+3).
        assert_eq!(claim_vc(&mut owner, 1, vcs, 1, per_class, 10), Some(2));
        assert_eq!(claim_vc(&mut owner, 1, vcs, 1, per_class, 11), Some(3));
        assert_eq!(claim_vc(&mut owner, 1, vcs, 1, per_class, 12), None);
        assert_eq!((owner[vcs + 2], owner[vcs + 3]), (10, 11));
        // Class 0 of the same port is untouched.
        assert_eq!(claim_vc(&mut owner, 1, vcs, 0, per_class, 12), Some(0));
        // Releasing re-enables the class.
        owner[vcs + 2] = NONE32;
        assert_eq!(claim_vc(&mut owner, 1, vcs, 1, per_class, 13), Some(2));
        assert_eq!(owner[vcs + 2], 13);
    }
}
