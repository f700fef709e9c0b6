//! Simulator configuration.

/// What happens to packets with flits committed to a link that dies
/// mid-run (transient faults; see `pf_topo::Topology::with_faults` and the
/// fault-model section of DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InFlightPolicy {
    /// Drop-and-retransmit at source: every packet with a flit in flight
    /// on the dying link, or a wormhole claim across it that already
    /// carried flits, is removed from the network wherever its flits are
    /// and returned to its source queue for a fresh injection.
    #[default]
    DropRetransmit,
    /// Drain: wormholes already committed to the link finish crossing it
    /// (the link goes "administratively down" first, "physically down"
    /// once the last committed tail has passed); only new allocations see
    /// the dead link immediately. Router faults always drop-and-retransmit
    /// regardless of this policy — a dead router cannot drain.
    Drain,
}

/// Simulator configuration (defaults follow §VIII-A of the paper).
/// Every field is a parameter of the *modelled network* or of what is
/// observed about it; none selects how the engine executes — there is
/// one schedule (DESIGN.md, "Event-driven cycle skipping") — and
/// [`SimConfig::default`] reads nothing from the environment.
///
/// Construct with [`SimConfig::default`] and chain the builder setters:
///
/// ```
/// use pf_sim::SimConfig;
///
/// let cfg = SimConfig::default().warmup(300).measure(700).drain_max(1000);
/// assert_eq!(cfg.warmup, 300);
/// assert_eq!(cfg.packet_flits, 4); // untouched fields keep their defaults
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Flits per packet (paper: 4).
    pub packet_flits: u16,
    /// Virtual-channel *classes* — one per hop index, so paths of up to
    /// `vc_classes` hops are deadlock-free. MIN on a diameter-2 graph
    /// needs 2, Valiant/UGAL 4; the engine allocates `min(vc_classes,
    /// need)` with `need` = [`crate::Routing::max_hops`] of the
    /// routed diameter (all of them on transient runs), while the
    /// buffer split ([`SimConfig::cap_per_vc`]) always uses the full
    /// budget.
    pub vc_classes: u8,
    /// VCs per class. Two per class lets consecutive packets of the same
    /// hop class overlap their wormhole allocation on a link, compensating
    /// for the inter-packet bubble our single-stage pipeline introduces
    /// relative to BookSim's (see DESIGN.md).
    pub vcs_per_class: u8,
    /// Input buffer flits per port, shared evenly across VCs (paper: 128).
    pub buffer_flits_per_port: u32,
    /// Separable-allocator iterations per cycle (iSLIP-style).
    pub alloc_iters: u8,
    /// Router traversal delay in cycles (route + VC + switch pipeline).
    pub pipeline_delay: u32,
    /// Link traversal delay in cycles.
    pub link_latency: u32,
    /// Warmup cycles (not measured).
    pub warmup: u32,
    /// Measurement window in cycles.
    pub measure: u32,
    /// Maximum drain cycles past the measurement window.
    pub drain_max: u32,
    /// RNG seed (workload + tie-breaks).
    pub seed: u64,
    /// UGAL-PF adaptation threshold (paper: 2/3).
    pub ugal_pf_threshold: f64,
    /// Stop generating new packets after this cycle (tests use this to
    /// verify full drain; `u32::MAX` = generate throughout).
    pub gen_cutoff: u32,
    /// In-flight-flit policy when a link dies mid-run (transient runs).
    pub fault_policy: InFlightPolicy,
    /// Control-plane convergence delay (cycles): after a fault event the
    /// old route tables keep serving for this long before the rebuilt
    /// tables swap in atomically.
    pub convergence_delay: u32,
    /// Hard stop (cycles) for closed-loop workload runs
    /// (`Engine::run_workload`): a job DAG that has not drained by this
    /// cycle is reported unfinished (`SimResult::saturated`) instead of
    /// spinning forever. Ignored by open-loop runs.
    pub workload_deadline: u32,
    /// Epoch length (cycles) of the observation-only telemetry
    /// time-series (see [`crate::telemetry`]): every `telemetry_interval`
    /// cycles the engine snapshots its counters into an
    /// [`crate::telemetry::EpochRecord`] on
    /// [`crate::SimResult::telemetry`]. `0` (the default) disables the
    /// time-series entirely — zero cost, and every simulated field is
    /// bit-identical either way (pinned by `tests/telemetry_parity.rs`).
    pub telemetry_interval: u32,
    /// Packet-lifecycle trace sampling rate (see [`crate::telemetry`]):
    /// every `trace_sample`-th packet *by birth serial* (a deterministic
    /// modulus — no RNG) records hop-by-hop
    /// [`crate::telemetry::TraceEvent`]s. `0` (the default) disables
    /// tracing; like the epoch series it is observation-only and
    /// parity-pinned.
    pub trace_sample: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_flits: 4,
            vc_classes: 4,
            vcs_per_class: 2,
            buffer_flits_per_port: 128,
            alloc_iters: 2,
            pipeline_delay: 2,
            link_latency: 1,
            warmup: 1000,
            measure: 2000,
            drain_max: 4000,
            seed: 1,
            ugal_pf_threshold: 2.0 / 3.0,
            gen_cutoff: u32::MAX,
            fault_policy: InFlightPolicy::DropRetransmit,
            convergence_delay: 200,
            workload_deadline: 1_000_000,
            telemetry_interval: 0,
            trace_sample: 0,
        }
    }
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {$(
        $(#[$doc])*
        #[must_use]
        pub fn $field(mut self, v: $ty) -> Self {
            self.$field = v;
            self
        }
    )*};
}

impl SimConfig {
    /// A reduced-cycle configuration for quick shape checks and CI.
    pub fn quick() -> Self {
        SimConfig::default()
            .warmup(300)
            .measure(700)
            .drain_max(1500)
    }

    builder_setters! {
        /// Sets flits per packet.
        packet_flits: u16,
        /// Sets the VC class count (max deadlock-free path hops).
        vc_classes: u8,
        /// Sets VCs per class.
        vcs_per_class: u8,
        /// Sets input buffer flits per port.
        buffer_flits_per_port: u32,
        /// Sets allocator iterations per cycle.
        alloc_iters: u8,
        /// Sets the router pipeline delay (cycles).
        pipeline_delay: u32,
        /// Sets the link traversal delay (cycles).
        link_latency: u32,
        /// Sets warmup cycles.
        warmup: u32,
        /// Sets the measurement window (cycles).
        measure: u32,
        /// Sets the maximum drain length (cycles).
        drain_max: u32,
        /// Sets the RNG seed.
        seed: u64,
        /// Sets the UGAL-PF adaptation threshold.
        ugal_pf_threshold: f64,
        /// Sets the generation cutoff cycle.
        gen_cutoff: u32,
        /// Sets the in-flight-flit policy for mid-run link deaths.
        fault_policy: InFlightPolicy,
        /// Sets the table re-convergence delay (cycles).
        convergence_delay: u32,
        /// Sets the closed-loop workload deadline (cycles).
        workload_deadline: u32,
        /// Sets the telemetry epoch length (cycles; 0 = off).
        telemetry_interval: u32,
        /// Sets the packet-trace sampling rate (1/N packets; 0 = off).
        trace_sample: u32,
    }

    /// Does nothing: the engine is single-threaded; every K produced
    /// identical results by contract, so ignoring K is exact — kept only
    /// until the benchmark package drops the call (ROADMAP item 3).
    #[doc(hidden)]
    #[must_use]
    pub fn shards(self, _k: usize) -> Self {
        self
    }

    /// Does nothing: the engine has one schedule; both values produced
    /// identical results by contract, so ignoring the flag is exact —
    /// kept only until the benchmark package drops the call (ROADMAP
    /// item 3).
    #[doc(hidden)]
    #[must_use]
    pub fn skip(self, _on: bool) -> Self {
        self
    }

    /// Total virtual channels per port, as configured (the engine may
    /// allocate fewer — see [`SimConfig::vc_classes`]).
    #[inline]
    pub fn vcs(&self) -> usize {
        usize::from(self.vc_classes) * usize::from(self.vcs_per_class)
    }

    /// Whether packets generated at `cycle` are measured: the window
    /// `[warmup, warmup + measure)`. (Subtraction form: immune to
    /// `warmup + measure` overflow for sentinel-sized warmups.)
    #[inline]
    pub fn in_measurement(&self, cycle: u32) -> bool {
        cycle >= self.warmup && cycle - self.warmup < self.measure
    }

    /// First cycle past the measurement window.
    #[inline]
    pub fn steady_end(&self) -> u32 {
        self.warmup.saturating_add(self.measure)
    }

    /// Hard stop of an open-loop run: measurement end plus the drain
    /// budget.
    #[inline]
    pub fn deadline(&self) -> u32 {
        self.steady_end().saturating_add(self.drain_max)
    }

    /// Flit capacity of one VC buffer (per-port budget split across VCs,
    /// floored at one packet so wormhole never wedges on capacity).
    #[inline]
    pub fn cap_per_vc(&self) -> u32 {
        (self.buffer_flits_per_port / self.vcs() as u32).max(u32::from(self.packet_flits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_consistent() {
        let cfg = SimConfig::quick();
        assert!(cfg.warmup < SimConfig::default().warmup);
        assert_eq!(cfg.packet_flits, 4);
        assert_eq!(cfg.vc_classes, 4);
    }

    #[test]
    fn builders_touch_only_their_field() {
        let cfg = SimConfig::default()
            .seed(99)
            .link_latency(3)
            .convergence_delay(4);
        let def = SimConfig::default();
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.link_latency, 3);
        assert_eq!(cfg.convergence_delay, 4);
        assert_eq!(cfg.packet_flits, def.packet_flits);
        assert_eq!(cfg.warmup, def.warmup);
        assert_eq!(cfg.ugal_pf_threshold, def.ugal_pf_threshold);
    }

    #[test]
    fn phases_partition_the_timeline() {
        let c = SimConfig::default().warmup(10).measure(20).drain_max(5);
        assert!(!c.in_measurement(0));
        assert!(!c.in_measurement(9));
        assert!(c.in_measurement(10));
        assert!(c.in_measurement(29));
        assert!(!c.in_measurement(30));
        assert_eq!(c.steady_end(), 30);
        assert_eq!(c.deadline(), 35);
    }

    #[test]
    fn sentinel_warmup_never_measures_and_never_overflows() {
        let c = SimConfig::default()
            .warmup(u32::MAX)
            .measure(2000)
            .drain_max(4000);
        assert!(!c.in_measurement(0));
        assert!(!c.in_measurement(u32::MAX - 1));
        assert_eq!(c.steady_end(), u32::MAX);
        assert_eq!(c.deadline(), u32::MAX);
    }

    #[test]
    fn derived_geometry() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.vcs(), 8);
        assert_eq!(cfg.cap_per_vc(), 16);
        // The per-VC floor: tiny buffers still hold one whole packet.
        let tiny = SimConfig::default().buffer_flits_per_port(8);
        assert_eq!(tiny.cap_per_vc(), 4);
    }
}
