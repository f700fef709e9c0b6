//! Per-router state in structure-of-arrays form.
//!
//! The cycle engine's innermost loops scan every input port and VC each
//! cycle. The original implementation kept a `VecDeque<BufFlit>` per
//! (port, VC) queue — hundreds of thousands of separate heap rings whose
//! heads the hot loop chased through pointers. This module replaces them
//! with flat arrays over a handful of contiguous allocations:
//!
//! * [`FlitRings`] — every VC buffer of every port: a dense 16-byte
//!   record per queue holding its occupancy, a copy of its head flit and
//!   the wormhole route claim of the packet at its head, and one shared
//!   pool of linked nodes for the flits *behind* heads,
//!   so memory follows the flits actually buffered rather than
//!   ports × VCs × depth (the credit loop still bounds each queue to its
//!   depth). It also owns the per-port indexes the scans walk — the
//!   nonempty-VC mask, the terminating-flit count and the two port
//!   bitsets (`BitSet`) — and every push, pop and purge keeps them in
//!   step with the queues.
//! * [`InjPool`] — active injection streams in SoA arrays partitioned by
//!   router (capacity `2·endpoints(r)`, the engine's stream cap).
//! * `crate::packet::PacketPool` — in-flight packet records in SoA arrays with a free
//!   list.
//! * [`PortMap`] — the port geometry: prefix-summed port ids (one id
//!   names a router's input *and* output toward the same neighbor) and
//!   the `out_link` involution between the two ends of a link.

use pf_graph::Csr;

/// Sentinel for "no packet / no link / no route".
pub const NONE32: u32 = u32::MAX;

/// A fixed-size bitset over router ids or over the input ports of the
/// whole network. A router's ports are the contiguous range
/// [`PortMap::ports`], so a router's port scan is a walk of
/// [`BitSet::next_in`] over that range — at any router degree, across
/// any number of 64-bit words.
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest member in `[from, to)`, if any. An ascending scan of
    /// `[lo, hi)` restarts it from each hit + 1; a scan rotated to start
    /// at `mid` walks `[mid, hi)` and then `[lo, mid)`.
    #[inline]
    pub(crate) fn next_in(&self, from: u32, to: u32) -> Option<u32> {
        if from >= to {
            return None;
        }
        let first = (from / 64) as usize;
        let m = self.words[first] >> (from % 64);
        let i = if m != 0 {
            from + m.trailing_zeros()
        } else {
            let last = ((to - 1) / 64) as usize;
            let w = (first + 1..=last).find(|&w| self.words[w] != 0)?;
            w as u32 * 64 + self.words[w].trailing_zeros()
        };
        (i < to).then_some(i)
    }
}

/// Port geometry of the whole network.
///
/// Port `port_base[r] + i` is router `r`'s end of its link to
/// `neighbors(r)[i]`, in both directions: as an *input* port it names the
/// buffers receiving from that neighbor, as an *output* (`tx`) port the
/// sender-side state of the direction `r → neighbors(r)[i]` (credits,
/// VC ownership, link counters — everything the allocator keeps per
/// output is indexed by it, so a router's outputs are contiguous).
/// `out_link` maps a port to the other end of its link: the neighbor's
/// port whose neighbor is `r`.
pub struct PortMap {
    pub(crate) port_base: Vec<u32>,
    pub(crate) out_link: Vec<u32>,
}

impl PortMap {
    /// Builds the geometry from an undirected router graph.
    pub fn build(g: &Csr) -> PortMap {
        let n = g.vertex_count();
        let mut port_base = vec![0u32; n + 1];
        for r in 0..n {
            port_base[r + 1] = port_base[r] + g.degree(r as u32) as u32;
        }
        let num_ports = port_base[n] as usize;
        let mut out_link = vec![0u32; num_ports];
        // Rows are ascending, so walking r upwards the reverse of the link
        // r → t, t > r, is the next unclaimed entry of row t, and the
        // entries of row r below its cursor were claimed by smaller routers.
        let mut cursor = port_base[..n].to_vec();
        for r in 0..n {
            let row = g.neighbors(r as u32);
            for port in cursor[r]..port_base[r + 1] {
                let t = row[(port - port_base[r]) as usize] as usize;
                let back = cursor[t];
                // Csr stores both directions of every edge; a panic at
                // build beats a silent misroute.
                assert!(
                    t > r
                        && back < port_base[t + 1]
                        && g.neighbors(t as u32)[(back - port_base[t]) as usize] == r as u32,
                    "undirected graph: {r} lists {t}, {t} does not list {r}"
                );
                cursor[t] += 1;
                out_link[port as usize] = back;
                out_link[back as usize] = port;
            }
        }
        PortMap {
            port_base,
            out_link,
        }
    }

    /// Total number of (directed) input ports.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.port_base.last().map_or(0, |&p| p as usize)
    }

    /// Port id range `[lo, hi)` of router `r`.
    #[inline]
    pub fn ports(&self, r: usize) -> (u32, u32) {
        (self.port_base[r], self.port_base[r + 1])
    }

    /// Router `r`'s own port toward its neighbor-index `i` — the sender
    /// side of that link.
    #[inline]
    pub fn tx(&self, r: u32, i: usize) -> u32 {
        self.port_base[r as usize] + i as u32
    }

    /// The other end of port `p`'s link (an involution): a sender's port
    /// maps to the input port its flits arrive at, an input port to the
    /// upstream sender's port.
    #[inline]
    pub fn peer(&self, p: u32) -> u32 {
        self.out_link[p as usize]
    }

    /// Downstream input port of local output `i` at router `r`:
    /// `peer(tx(r, i))`.
    #[inline]
    pub fn downstream(&self, r: u32, i: usize) -> u32 {
        self.peer(self.tx(r, i))
    }
}

/// One buffered flit: packet id, arrival-ready cycle, sequence number,
/// and whether the packet *terminates* at the buffering router, packed
/// so a head probe touches one cache line instead of three (the hot
/// loops' dominant memory traffic). `term` is computed once at arrival
/// (`dst == port owner`; both are immutable while the flit is buffered)
/// so the eject and request scans never chase the packet-pool `dst`
/// array.
#[derive(Debug, Clone, Copy, Default)]
struct FlitSlot {
    pkt: u32,
    ready: u32,
    seq: u16,
    term: bool,
}

/// The wormhole route claim of a queue's head packet: the output it
/// holds from head allocation until its tail leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim {
    /// The claimed output as the holding router's neighbor index: its tx
    /// port is `PortMap::tx(r, out)`. A byte suffices — the engine
    /// refuses degrees above [`crate::tables::MAX_DEGREE`], so
    /// [`UNROUTED`] is never a neighbor index.
    pub(crate) out: u8,
    /// Claimed output VC.
    pub(crate) vc: u8,
    /// Whether the packet terminates at the downstream router (cached at
    /// route time, where `dst` is in cache; every departing flit of the
    /// packet carries it — see [`crate::flow::Arrival::term`]).
    pub(crate) term_next: bool,
}

/// [`Claim::out`] of a queue without a claim.
const UNROUTED: u8 = u8::MAX;

impl Claim {
    const NONE: Claim = Claim {
        out: UNROUTED,
        vc: 0,
        term_next: false,
    };
}

/// One queue's record: the head flit's fields, the occupancy and the
/// head packet's route claim, packed into 16 bytes so a head probe, a
/// push into an empty queue, a pop that empties one and the route
/// lookup of a head touch a single cache line (four queues per line).
/// The head fields are valid iff `len > 0`. The claim is not tied to
/// them: push, pop and purge never touch it, so a claim survives a
/// queue that empties mid-packet (its body flits still upstream).
#[derive(Debug, Clone, Copy)]
struct QueueMeta {
    pkt: u32,
    ready: u32,
    seq: u16,
    len: u16,
    term: bool,
    claim: Claim,
}

const _: () = assert!(std::mem::size_of::<QueueMeta>() == 16);

impl QueueMeta {
    const EMPTY: QueueMeta = QueueMeta {
        pkt: 0,
        ready: 0,
        seq: 0,
        len: 0,
        term: false,
        claim: Claim::NONE,
    };

    #[inline]
    fn head(&self) -> FlitSlot {
        FlitSlot {
            pkt: self.pkt,
            ready: self.ready,
            seq: self.seq,
            term: self.term,
        }
    }

    #[inline]
    fn set_head(&mut self, f: FlitSlot) {
        self.pkt = f.pkt;
        self.ready = f.ready;
        self.seq = f.seq;
        self.term = f.term;
    }
}

/// A pooled flit *behind* a queue's head. `next` is the following flit
/// of the same queue (meaningless on the queue's tail), or the next free
/// node while the node sits on the free list.
#[derive(Debug, Clone, Copy)]
struct Node {
    f: FlitSlot,
    next: u32,
}

/// All (port, VC) flit buffers, stored by occupancy, with the per-port
/// indexes the engine's scans walk.
///
/// Queue `q = port · vcs + vc`'s head flit lives in `meta[q]`, the copy
/// every scan reads, next to the queue's route claim
/// (`FlitRings::claim`); the flits behind it are a singly linked chain
/// of nodes in one shared `pool`, entered through
/// `links[q] = [first behind head, tail]` (valid iff `len ≥ 2`). Freed
/// nodes go on a LIFO free list threaded through `Node::next` and are
/// reused hottest-first; the pool grows only when that list is empty. So
/// the queues cost a fixed 24 B each (the 16-byte `meta`, route claim
/// included, + 8-byte `links`, the latter untouched — not even paged in —
/// until a queue first holds two flits)
/// and a live part of one 16-byte node per flit behind a head at the
/// busiest moment so far; queue depth (`cap`) costs nothing until flits
/// use it.
///
/// Per port the store also keeps the mask of its nonempty VCs
/// ([`FlitRings::vc_mask`]), the count of its flits whose packet
/// terminates at the port's router ([`FlitRings::term_flits`]), and one
/// bit each in two port bitsets — "holds a flit" (mask ≠ 0, the request
/// scan's domain) and "holds a terminating flit" (count > 0, the
/// ejection scan's domain), walked by [`FlitRings::next_port`]. Only
/// [`FlitRings::push_back`], [`FlitRings::pop_front`] and
/// [`FlitRings::purge_queue`] mutate the flits, and each updates the
/// queue and its indexes together; only `set_claim` mutates a claim.
/// They take the (port, VC) the caller already holds, so the store
/// divides nothing.
///
/// `cap` is still the credit protocol's bound: a sender never pushes
/// into a full buffer, and [`FlitRings::push_back`] checks it in debug
/// builds. Head reads ([`FlitRings::front`], [`FlitRings::head_term`])
/// take a queue index and never leave `meta`. There is no global
/// occupancy counter ([`FlitRings::total_flits`] sums on demand).
pub struct FlitRings {
    cap: u32,
    vcs: usize,
    meta: Vec<QueueMeta>,
    links: Vec<[u32; 2]>,
    pool: Vec<Node>,
    /// Top of the free list (`NONE32` when empty).
    free: u32,
    /// Per port, bit `v` set ⇔ queue `port · vcs + v` is nonempty.
    vc_mask: Vec<u32>,
    /// Per port, buffered flits whose packet terminates at its router.
    term: Vec<u32>,
    /// Ports whose `vc_mask` is nonzero.
    occ: BitSet,
    /// Ports whose `term` count is nonzero.
    eject_occ: BitSet,
}

impl FlitRings {
    /// `vcs` buffers of at most `cap` flits on each of `ports` ports.
    ///
    /// # Panics
    /// If `vcs` exceeds the 32 bits of a port's VC mask.
    pub fn new(ports: usize, vcs: usize, cap: u32) -> FlitRings {
        assert!(cap > 0, "flit ring capacity must be positive");
        assert!(
            cap <= u16::MAX as u32,
            "flit ring capacity exceeds the packed u16 occupancy"
        );
        assert!(
            vcs <= MAX_VCS,
            "{vcs} allocated VCs per port exceed the {MAX_VCS}-VC ceiling of the per-port \
             occupancy mask; lower SimConfig::vcs_per_class or vc_classes"
        );
        let queues = ports * vcs;
        FlitRings {
            cap,
            vcs,
            meta: vec![QueueMeta::EMPTY; queues],
            // An all-zero array type takes the allocator's zeroed path:
            // no page is touched here.
            links: vec![[0; 2]; queues],
            pool: Vec::new(),
            free: NONE32,
            vc_mask: vec![0; ports],
            term: vec![0; ports],
            occ: BitSet::new(ports),
            eject_occ: BitSet::new(ports),
        }
    }

    /// Per-queue capacity.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    /// Occupancy of queue `q`.
    #[inline]
    pub fn len(&self, q: usize) -> u32 {
        u32::from(self.meta[q].len)
    }

    /// Whether queue `q` is empty.
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.meta[q].len == 0
    }

    /// Total flits across all queues. O(queues) — diagnostic/test use,
    /// never on the hot path.
    #[inline]
    pub fn total_flits(&self) -> usize {
        self.meta.iter().map(|m| m.len as usize).sum()
    }

    /// Bytes the queues have allocated (Σ capacity × element size):
    /// 24 per queue plus 16 per pool node ever needed at once (the
    /// per-port indexes, 8 B and two bits a port, are not counted).
    /// Diagnostic — pins that the footprint follows live flits.
    pub fn resident_bytes(&self) -> usize {
        self.meta.capacity() * std::mem::size_of::<QueueMeta>()
            + self.links.capacity() * std::mem::size_of::<[u32; 2]>()
            + self.pool.capacity() * std::mem::size_of::<Node>()
    }

    /// The nonempty VCs of `port` as a bitmask (bit `v` ⇔ queue
    /// `port · vcs + v` holds a flit); the VC scans walk its set bits.
    #[inline]
    pub fn vc_mask(&self, port: usize) -> u32 {
        self.vc_mask[port]
    }

    /// Flits buffered at `port` whose packet terminates at the port's
    /// router.
    #[inline]
    pub fn term_flits(&self, port: usize) -> u32 {
        self.term[port]
    }

    /// The lowest port in `[from, to)` holding a flit — with `eject`, a
    /// flit that terminates at the port's router.
    #[inline]
    pub fn next_port(&self, eject: bool, from: u32, to: u32) -> Option<u32> {
        let ports = if eject { &self.eject_occ } else { &self.occ };
        ports.next_in(from, to)
    }

    /// Appends a flit to queue (`port`, `vc`) and records it in the
    /// port's indexes; panics (debug) on overflow — the credit loop must
    /// prevent it. `term` marks a flit whose packet terminates at the
    /// buffering router (see [`FlitRings::head_term`]).
    #[inline]
    pub fn push_back(
        &mut self,
        port: usize,
        vc: usize,
        pkt: u32,
        seq: u16,
        ready: u32,
        term: bool,
    ) {
        let f = FlitSlot {
            pkt,
            ready,
            seq,
            term,
        };
        self.enqueue(port * self.vcs + vc, f);
        self.vc_mask[port] |= 1 << vc;
        self.occ.insert(port);
        if term {
            self.term[port] += 1;
            self.eject_occ.insert(port);
        }
    }

    /// The queue half of [`FlitRings::push_back`].
    #[inline]
    fn enqueue(&mut self, q: usize, f: FlitSlot) {
        let m = &mut self.meta[q];
        debug_assert!(
            u32::from(m.len) < self.cap,
            "flit ring overflow: credits out of sync"
        );
        let len = m.len;
        m.len = len + 1;
        if len == 0 {
            m.set_head(f);
            return;
        }
        let node = Node { f, next: NONE32 };
        let i = match self.free {
            NONE32 => {
                assert!(
                    self.pool.len() < NONE32 as usize,
                    "flit pool index overflow"
                );
                self.pool.push(node);
                (self.pool.len() - 1) as u32
            }
            i => {
                self.free = self.pool[i as usize].next;
                self.pool[i as usize] = node;
                i
            }
        };
        let l = &mut self.links[q];
        if len == 1 {
            l[0] = i;
        } else {
            self.pool[l[1] as usize].next = i;
        }
        l[1] = i;
    }

    /// Head flit of queue `q` as `(pkt, seq, ready_at)`.
    #[inline]
    pub fn front(&self, q: usize) -> Option<(u32, u16, u32)> {
        let m = self.meta[q];
        if m.len == 0 {
            return None;
        }
        Some((m.pkt, m.seq, m.ready))
    }

    /// Whether the head flit of queue `q` terminates at the buffering
    /// router. Only valid when the queue is nonempty; reads the
    /// cache-resident head copy, sparing the packet-pool `dst` lookup on
    /// the eject/request hot paths.
    #[inline]
    pub fn head_term(&self, q: usize) -> bool {
        debug_assert!(self.meta[q].len > 0);
        self.meta[q].term
    }

    /// The route claim of queue `q`'s head packet, if it holds one.
    #[inline]
    pub(crate) fn claim(&self, q: usize) -> Option<Claim> {
        let c = self.meta[q].claim;
        (c.out != UNROUTED).then_some(c)
    }

    /// Sets (`Some`) or releases (`None`) queue `q`'s route claim.
    #[inline]
    pub(crate) fn set_claim(&mut self, q: usize, claim: Option<Claim>) {
        debug_assert!(claim.is_none_or(|c| c.out != UNROUTED));
        self.meta[q].claim = claim.unwrap_or(Claim::NONE);
    }

    /// Removes the head flit of queue (`port`, `vc`) and drops it from
    /// the port's indexes; the flit behind it (if any) moves from its
    /// pool node into the head copy and the node is freed.
    #[inline]
    pub fn pop_front(&mut self, port: usize, vc: usize) {
        let q = port * self.vcs + vc;
        if self.dequeue(q).term {
            let t = &mut self.term[port];
            *t -= 1;
            if *t == 0 {
                self.eject_occ.remove(port);
            }
        }
        if self.meta[q].len == 0 {
            let mask = &mut self.vc_mask[port];
            *mask &= !(1 << vc);
            if *mask == 0 {
                self.occ.remove(port);
            }
        }
    }

    /// The queue half of [`FlitRings::pop_front`]; returns the removed
    /// head.
    #[inline]
    fn dequeue(&mut self, q: usize) -> FlitSlot {
        let m = &mut self.meta[q];
        debug_assert!(m.len > 0);
        let head = m.head();
        m.len -= 1;
        if m.len > 0 {
            let l = &mut self.links[q];
            let i = l[0];
            let node = &mut self.pool[i as usize];
            m.set_head(node.f);
            l[0] = node.next;
            node.next = self.free;
            self.free = i;
        }
        head
    }

    /// The flits of queue `q`, head first.
    fn slots(&self, q: usize) -> impl Iterator<Item = FlitSlot> + '_ {
        let m = self.meta[q];
        let mut at = if m.len > 1 { self.links[q][0] } else { NONE32 };
        (0..m.len).map(move |i| {
            if i == 0 {
                return m.head();
            }
            let node = self.pool[at as usize];
            at = node.next;
            node.f
        })
    }

    /// The flits of queue `q` as `(pkt, seq, ready_at)`, head first
    /// (test/diagnostic/fault-event access; O(queue length)).
    pub fn iter(&self, q: usize) -> impl Iterator<Item = (u32, u16, u32)> + '_ {
        self.slots(q).map(|f| (f.pkt, f.seq, f.ready))
    }

    /// Flit `i` positions behind the head — an O(`i`) walk; loops use
    /// [`FlitRings::iter`].
    pub fn get(&self, q: usize, i: u32) -> (u32, u16, u32) {
        assert!(i < self.len(q), "queue {q} holds no flit {i}");
        let f = self.slots(q).nth(i as usize).unwrap_or_default();
        (f.pkt, f.seq, f.ready)
    }

    /// Removes every flit of queue (`port`, `vc`) whose packet satisfies
    /// `victim` (asked once per flit, head first), preserving the FIFO
    /// order of survivors, returning the victims' nodes to the free list
    /// and dropping them from the port's indexes; returns the number
    /// removed. O(queue length) — called only at (rare) fault events,
    /// never from the hot loops.
    pub fn purge_queue<F: FnMut(u32) -> bool>(
        &mut self,
        port: usize,
        vc: usize,
        mut victim: F,
    ) -> u32 {
        let q = port * self.vcs + vc;
        let len = self.len(q);
        let kept: Vec<FlitSlot> = self.slots(q).filter(|f| !victim(f.pkt)).collect();
        let removed = len - kept.len() as u32;
        if removed == 0 {
            return 0;
        }
        while !self.is_empty(q) {
            self.pop_front(port, vc);
        }
        for f in kept {
            self.push_back(port, vc, f.pkt, f.seq, f.ready, f.term);
        }
        removed
    }

    /// Asserts the store's own accounting (part of
    /// [`crate::engine::Engine::validate_flow_invariants`]; panics with
    /// a diagnostic on violation): no queue exceeds `cap`, every queue's
    /// chain holds exactly `len − 1` nodes and ends at its recorded
    /// tail, every pool node is either on such a chain or on the free
    /// list — a leaked node would make the two sides differ — and every
    /// port's indexes match what its queues actually hold: the VC mask
    /// their occupancy, the count their terminating flits, and the two
    /// bits the mask and the count.
    pub fn validate(&self) {
        let mut chained = 0usize;
        for (q, m) in self.meta.iter().enumerate() {
            let len = u32::from(m.len);
            assert!(
                len <= self.cap,
                "queue {q}: {len} flits exceed buffer depth {}",
                self.cap
            );
            let [mut at, tail] = self.links[q];
            for k in 1..len {
                assert!(
                    (at as usize) < self.pool.len(),
                    "queue {q}: chain leaves the pool at flit {k}"
                );
                if k + 1 == len {
                    assert_eq!(at, tail, "queue {q}: chain does not end at its tail");
                } else {
                    at = self.pool[at as usize].next;
                }
            }
            chained += len.saturating_sub(1) as usize;
        }
        let mut free = 0usize;
        let mut at = self.free;
        while at != NONE32 {
            free += 1;
            assert!(
                (at as usize) < self.pool.len() && free <= self.pool.len(),
                "flit pool free list is corrupt"
            );
            at = self.pool[at as usize].next;
        }
        assert_eq!(
            self.pool.len(),
            free + chained,
            "flit pool leak: {} nodes, {free} free + {chained} behind queue heads",
            self.pool.len()
        );
        for port in 0..self.vc_mask.len() {
            let q0 = port * self.vcs;
            let mask = (0..self.vcs)
                .filter(|&v| !self.is_empty(q0 + v))
                .fold(0u32, |m, v| m | 1 << v);
            let term = (q0..q0 + self.vcs)
                .flat_map(|q| self.slots(q))
                .filter(|f| f.term)
                .count() as u32;
            assert_eq!(self.vc_mask[port], mask, "port {port}: VC mask drift");
            assert_eq!(
                self.term[port], term,
                "port {port}: terminating-flit count drift"
            );
            assert_eq!(
                self.occ.contains(port),
                mask != 0,
                "port {port}: occupancy bit drift"
            );
            assert_eq!(
                self.eject_occ.contains(port),
                term > 0,
                "port {port}: eject bit drift"
            );
        }
    }
}

/// The most VCs per port a store holds: one `u32` mask
/// ([`FlitRings::vc_mask`]) covers a port's queues, and
/// [`FlitRings::new`] refuses more.
pub(crate) const MAX_VCS: usize = 32;

/// Iterates the occupied VCs of one port in ascending order — the
/// engine's canonical VC scan order (see `crate::order`) — by walking
/// the set bits of the port's mask ([`FlitRings::vc_mask`]).
pub(crate) struct VcIter(pub(crate) u32);

impl Iterator for VcIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let v = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(v as usize)
    }
}

/// Active injection streams, SoA, partitioned per router.
///
/// Router `r` owns stream slots `[base[r], base[r] + len[r])` with a hard
/// capacity of `base[r+1] - base[r]` slots (the engine sizes this to
/// `2·endpoints(r)`). Finished streams are swap-removed.
pub struct InjPool {
    base: Vec<u32>,
    len: Vec<u32>,
    pub(crate) pkt: Vec<u32>,
    pub(crate) next_seq: Vec<u16>,
    /// The claimed first-hop (tx port, VC): `tx · vcs + vc`, the index of
    /// the lane's credit counter and `out_owner` entry.
    pub(crate) out_buf: Vec<u32>,
    pub(crate) last_sent: Vec<u32>,
    /// Whether the stream's packet terminates at the downstream router
    /// (cached at injection start — see [`crate::flow::Arrival::term`]).
    pub(crate) term: Vec<bool>,
}

impl InjPool {
    /// Builds the pool from per-router stream capacities.
    pub fn new(stream_caps: &[usize]) -> InjPool {
        let n = stream_caps.len();
        let mut base = vec![0u32; n + 1];
        for (r, &c) in stream_caps.iter().enumerate() {
            base[r + 1] = base[r] + c as u32;
        }
        let slots = base[n] as usize;
        InjPool {
            base,
            len: vec![0; n],
            pkt: vec![0; slots],
            next_seq: vec![0; slots],
            out_buf: vec![0; slots],
            last_sent: vec![0; slots],
            term: vec![false; slots],
        }
    }

    /// Active stream count at router `r`.
    #[inline]
    pub fn len(&self, r: usize) -> u32 {
        self.len[r]
    }

    /// Whether router `r` can start another stream.
    #[inline]
    pub fn has_capacity(&self, r: usize) -> bool {
        self.base[r] + self.len[r] < self.base[r + 1]
    }

    /// Global slot index of stream `s` at router `r`.
    #[inline]
    pub fn slot(&self, r: usize, s: u32) -> usize {
        debug_assert!(s < self.len[r]);
        (self.base[r] + s) as usize
    }

    /// Starts a stream; caller must have checked [`InjPool::has_capacity`].
    #[inline]
    pub fn push(&mut self, r: usize, pkt: u32, out_buf: u32, term: bool) {
        debug_assert!(self.has_capacity(r));
        let s = (self.base[r] + self.len[r]) as usize;
        self.pkt[s] = pkt;
        self.next_seq[s] = 0;
        self.out_buf[s] = out_buf;
        self.last_sent[s] = NONE32;
        self.term[s] = term;
        self.len[r] += 1;
    }

    /// Swap-removes stream `s` of router `r` (fault-event victim
    /// cleanup; the caller releases the stream's output-VC claim).
    pub(crate) fn remove(&mut self, r: usize, s: u32) {
        debug_assert!(s < self.len[r]);
        let slot = (self.base[r] + s) as usize;
        let last = (self.base[r] + self.len[r] - 1) as usize;
        self.pkt[slot] = self.pkt[last];
        self.next_seq[slot] = self.next_seq[last];
        self.out_buf[slot] = self.out_buf[last];
        self.last_sent[slot] = self.last_sent[last];
        self.term[slot] = self.term[last];
        self.len[r] -= 1;
    }

    /// Swap-removes every stream of router `r` whose `next_seq` reached
    /// `packet_flits` (i.e. fully injected).
    pub fn sweep_finished(&mut self, r: usize, packet_flits: u16) {
        let mut s = 0;
        while s < self.len[r] {
            if self.next_seq[(self.base[r] + s) as usize] >= packet_flits {
                self.remove(r, s);
            } else {
                s += 1;
            }
        }
    }

    /// Total active streams across all routers.
    pub fn total(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_ring_fifo_and_node_reuse() {
        let mut r = FlitRings::new(1, 2, 4);
        for round in 0..5u32 {
            for i in 0..4u32 {
                r.push_back(0, 1, 100 + i, i as u16, round, i % 2 == 0);
            }
            assert!(r.head_term(1));
            assert_eq!(r.len(1), 4);
            assert!(r.is_empty(0));
            for i in 0..4u32 {
                let (pkt, seq, ready) = r.front(1).unwrap();
                assert_eq!((pkt, seq, ready), (100 + i, i as u16, round));
                r.pop_front(0, 1);
            }
            assert!(r.front(1).is_none());
            r.validate();
        }
        assert_eq!(r.total_flits(), 0);
        // Five rounds of depth 4 never needed more than 3 nodes at once.
        assert_eq!(r.pool.len(), 3);
    }

    /// Push, pop and purge never touch a queue's route claim: it
    /// survives the queue emptying mid-packet and a purge of other
    /// packets' flits, and only `set_claim` changes it.
    #[test]
    fn claim_outlives_push_pop_and_purge() {
        let mut r = FlitRings::new(1, 2, 4);
        assert_eq!((r.claim(0), r.claim(1)), (None, None));
        let c = Claim {
            out: 3,
            vc: 1,
            term_next: true,
        };
        r.set_claim(1, Some(c));
        r.push_back(0, 1, 7, 0, 0, false);
        r.push_back(0, 1, 7, 1, 0, false);
        r.pop_front(0, 1);
        r.pop_front(0, 1);
        assert!(r.is_empty(1));
        assert_eq!(r.claim(1), Some(c));
        r.push_back(0, 1, 7, 2, 5, false);
        r.push_back(0, 1, 9, 0, 6, true);
        assert_eq!(r.purge_queue(0, 1, |p| p == 9), 1);
        assert_eq!(r.front(1), Some((7, 2, 5)));
        assert_eq!((r.claim(0), r.claim(1)), (None, Some(c)));
        r.set_claim(1, None);
        assert_eq!(r.claim(1), None);
        r.validate();
    }

    #[test]
    fn inj_pool_push_and_sweep() {
        let mut p = InjPool::new(&[2, 3]);
        assert!(p.has_capacity(0));
        p.push(0, 7, 100, false);
        p.push(0, 8, 101, true);
        assert!(!p.has_capacity(0));
        // Finish stream 0 and sweep: stream 1 survives via swap-remove.
        let s0 = p.slot(0, 0);
        p.next_seq[s0] = 4;
        p.sweep_finished(0, 4);
        assert_eq!(p.len(0), 1);
        assert_eq!(p.pkt[p.slot(0, 0)], 8);
        assert_eq!(p.total(), 1);
    }

    /// `peer` is an involution pairing the two ends of every link:
    /// `peer(tx(r, i))` is `downstream(r, i)`, a port of `neighbors(r)[i]`
    /// whose own neighbor is `r` — on a ring, the Petersen graph and ER_7
    /// (whose quadric vertices have a smaller degree).
    #[test]
    fn portmap_links_are_symmetric() {
        use pf_graph::GraphBuilder;
        let mut ring = GraphBuilder::new(5);
        let mut petersen = GraphBuilder::new(10);
        for i in 0..5u32 {
            ring.add_edge(i, (i + 1) % 5);
            petersen.add_edge(i, (i + 1) % 5);
            petersen.add_edge(i, i + 5);
            petersen.add_edge(i + 5, (i + 2) % 5 + 5);
        }
        let er7 = polarfly::PolarFly::new(7).unwrap();
        for g in [&ring.build(), &petersen.build(), er7.graph()] {
            let pm = PortMap::build(g);
            assert_eq!(pm.num_ports(), 2 * g.edge_count());
            let mut port_owner = vec![0u32; pm.num_ports()];
            for r in 0..g.vertex_count() {
                let (lo, hi) = pm.ports(r);
                port_owner[lo as usize..hi as usize].fill(r as u32);
            }
            for r in 0..g.vertex_count() as u32 {
                for (i, &t) in g.neighbors(r).iter().enumerate() {
                    let tx = pm.tx(r, i);
                    let down = pm.peer(tx);
                    assert_eq!(pm.peer(down), tx);
                    assert_eq!(down, pm.downstream(r, i));
                    assert_eq!(port_owner[tx as usize], r);
                    assert_eq!(port_owner[down as usize], t);
                    let j = (down - pm.ports(t as usize).0) as usize;
                    assert_eq!(g.neighbors(t)[j], r);
                }
            }
        }
    }
}
