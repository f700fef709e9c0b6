//! Source-side queues: packets generated but not yet injected.
//!
//! Each router's pending queue is a growable power-of-two ring over one
//! contiguous `u32` allocation. The injection logic only ever removes
//! from the first `INJECT_WINDOW` logical slots (`inject.rs`), so
//! removal compacts the front window in O(window) instead of shifting
//! the (possibly huge, under saturation) backlog.

/// One growable power-of-two ring of `u32` ids.
#[derive(Clone, Default)]
pub(crate) struct Ring32 {
    buf: Vec<u32>,
    head: usize,
    pub(crate) len: usize,
}

impl Ring32 {
    #[inline]
    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    fn grow(&mut self) {
        let old_cap = self.buf.len();
        let new_cap = (old_cap * 2).max(8);
        let mut buf = vec![0u32; new_cap];
        for (i, slot) in buf.iter_mut().enumerate().take(self.len) {
            *slot = self.buf[(self.head + i) & (old_cap - 1)];
        }
        self.buf = buf;
        self.head = 0;
    }

    #[inline]
    pub(crate) fn push_back(&mut self, v: u32) {
        if self.buf.is_empty() || self.len == self.buf.len() {
            self.grow();
        }
        let m = self.mask();
        self.buf[(self.head + self.len) & m] = v;
        self.len += 1;
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        self.buf[(self.head + i) & self.mask()]
    }

    #[inline]
    fn set(&mut self, i: usize, v: u32) {
        debug_assert!(i < self.len);
        let m = self.mask();
        self.buf[(self.head + i) & m] = v;
    }

    /// Removes the ascending logical indices `idxs` (all `< upto`,
    /// `upto ≤ len`) by compacting the front window: O(`upto`), not
    /// O(queue length).
    pub(crate) fn remove_front(&mut self, idxs: &[usize], upto: usize) {
        if idxs.is_empty() {
            return;
        }
        let k = idxs.len();
        debug_assert!(upto <= self.len && idxs[k - 1] < upto);
        let mut write = upto as isize - 1;
        let mut skip = k as isize - 1;
        for read in (0..upto as isize).rev() {
            if skip >= 0 && idxs[skip as usize] == read as usize {
                skip -= 1;
                continue;
            }
            let v = self.get(read as usize);
            self.set(write as usize, v);
            write -= 1;
        }
        self.head = (self.head + k) & self.mask();
        self.len -= k;
    }
}

/// Per-router source queues: packets generated but not yet injected.
pub struct SourceQueues {
    q: Vec<Ring32>,
}

impl SourceQueues {
    /// One empty queue per router.
    pub fn new(routers: usize) -> SourceQueues {
        SourceQueues {
            q: vec![Ring32::default(); routers],
        }
    }

    /// Appends a packet id at router `r`.
    ///
    /// Skip contract: a non-empty source queue forces its router awake
    /// (`Engine::maybe_sleep` sleeps a router only when this queue is
    /// empty), so every engine call site pairs a `push` with
    /// `SkipCtl::wake_now`.
    #[inline]
    pub fn push(&mut self, r: usize, pkt: u32) {
        self.q[r].push_back(pkt);
    }

    /// Queue length at router `r`.
    #[inline]
    pub fn len(&self, r: usize) -> usize {
        self.q[r].len
    }

    /// Whether router `r` has no queued packets.
    #[inline]
    pub fn is_empty(&self, r: usize) -> bool {
        self.q[r].len == 0
    }

    /// Packet id at logical position `i` of router `r`'s queue.
    #[inline]
    pub fn get(&self, r: usize, i: usize) -> u32 {
        self.q[r].get(i)
    }

    /// Removes the ascending positions `idxs` (all within the first
    /// `window` slots) from router `r`'s queue.
    #[inline]
    pub fn remove_front(&mut self, r: usize, idxs: &[usize], window: usize) {
        self.q[r].remove_front(idxs, window);
    }

    /// Total queued packets across all routers.
    pub fn total(&self) -> usize {
        self.q.iter().map(|r| r.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring32_remove_front_keeps_order() {
        let mut r = Ring32::default();
        for v in 0..10u32 {
            r.push_back(v);
        }
        // Remove logical positions 0, 2, 3 out of the first 5.
        r.remove_front(&[0, 2, 3], 5);
        let got: Vec<u32> = (0..r.len).map(|i| r.get(i)).collect();
        assert_eq!(got, vec![1, 4, 5, 6, 7, 8, 9]);
        // And again across a wrapped head.
        r.remove_front(&[1], 3);
        let got: Vec<u32> = (0..r.len).map(|i| r.get(i)).collect();
        assert_eq!(got, vec![1, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn source_queue_growth_preserves_fifo() {
        let mut q = SourceQueues::new(1);
        for v in 0..1000u32 {
            q.push(0, v);
        }
        assert_eq!(q.len(0), 1000);
        for i in 0..1000usize {
            assert_eq!(q.get(0, i), i as u32);
        }
    }

    #[test]
    fn interleaved_push_and_window_removal() {
        let mut q = SourceQueues::new(1);
        let mut expect: Vec<u32> = Vec::new();
        let mut next = 0u32;
        for round in 0..200 {
            for _ in 0..3 {
                q.push(0, next);
                expect.push(next);
                next += 1;
            }
            // Remove positions 0 and 2 of the first 3 every other round.
            if round % 2 == 0 && q.len(0) >= 3 {
                q.remove_front(0, &[0, 2], 3);
                expect.remove(2);
                expect.remove(0);
            }
        }
        let got: Vec<u32> = (0..q.len(0)).map(|i| q.get(0, i)).collect();
        assert_eq!(got, expect);
    }
}
