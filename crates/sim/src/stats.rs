//! Simulation results and latency statistics.

/// Outcome of one simulation run at a fixed offered load.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Offered load as a fraction of per-endpoint injection bandwidth.
    pub offered_load: f64,
    /// Accepted throughput: flits ejected per endpoint per cycle during the
    /// measurement window, in the same units as `offered_load`.
    pub accepted_load: f64,
    /// Mean generation-to-tail-ejection latency (cycles) over measured
    /// packets that were delivered.
    pub avg_latency: f64,
    /// Median latency (cycles) of delivered measured packets.
    pub p50_latency: f64,
    /// 99th-percentile latency (cycles) of delivered measured packets.
    pub p99_latency: f64,
    /// 99.9th-percentile latency (cycles) of delivered measured packets.
    /// Exact only once enough packets drained (`n ≥ 1000`); below that
    /// the nearest-rank definition reports the maximum.
    pub p999_latency: f64,
    /// Mean hop count of delivered measured packets.
    pub avg_hops: f64,
    /// Measured packets generated in the measurement window.
    pub generated: u64,
    /// Measured packets delivered within the drain budget.
    pub delivered: u64,
    /// `true` when not all measured packets drained — the network is past
    /// saturation at this offered load and `avg_latency` is a lower bound.
    /// Closed-loop runs set it only when the deadline expired *and* the
    /// network was still moving traffic (over-slow, not wedged).
    pub saturated: bool,
    /// `true` when the run's deadline cut it short: the drain budget on
    /// open-loop runs (where it equals `saturated`), or
    /// `SimConfig::workload_deadline` on closed-loop runs — where
    /// `deadline_expired && !saturated` distinguishes a *wedged* DAG
    /// (nothing left in flight, yet undrained) from an over-slow but
    /// live one.
    pub deadline_expired: bool,
    /// Router-cycles the engine proved idle and never scanned. A pure
    /// execution counter: every simulated field is bit-identical to a
    /// walk of every router every cycle (pinned against that reference
    /// by the parity tests in `src/skip/tests.rs`).
    pub skipped_router_cycles: u64,
    /// Flits dropped by the transient-fault drop-and-retransmit policy
    /// (0 on healthy/static runs and under the drain policy).
    pub dropped_flits: u64,
    /// Packets returned to their source queue for retransmission after a
    /// fault event (0 on healthy/static runs).
    pub retransmitted_packets: u64,
    /// Route-table re-convergence swaps completed during the run.
    pub table_swaps: u32,
    /// Flits that traversed a link while it was down and not draining.
    /// Any nonzero value is a routing bug — the transient tests and the
    /// `transient_sweep` binary assert this stays 0.
    pub down_link_flits: u64,
    /// Hops that exceeded the hop-indexed VC class budget and were
    /// clamped to the top class (abandoning the deadlock-freedom
    /// argument for that packet). Must stay 0 in a correctly provisioned
    /// run; fault sweeps assert it.
    pub vc_class_clamps: u64,
    /// Per-job completion results of a closed-loop workload run
    /// ([`crate::Engine::run_workload`]); empty on open-loop Bernoulli
    /// runs, whose behavior and fields are unchanged.
    pub jobs: Vec<JobResult>,
    /// Telemetry collected during the run (`None` unless
    /// `SimConfig::telemetry_interval` or `SimConfig::trace_sample` is
    /// set). Pure execution observability — excluded from parity
    /// comparisons; every other field is bit-identical with telemetry
    /// on or off (pinned by the telemetry parity tests).
    pub telemetry: Option<Box<crate::telemetry::TelemetryReport>>,
}

/// Completion outcome of one closed-loop job (see `pf_sim::drive`).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Workload display name (generator + parameters).
    pub name: String,
    /// Ranks the job ran over.
    pub ranks: u32,
    /// Elapsed cycles from run start to the job's last event (all tasks
    /// fired, all messages delivered); `None` if the run's deadline
    /// expired first.
    pub makespan: Option<u32>,
    /// Messages the workload defines.
    pub messages: u64,
    /// Messages fully delivered (== `messages` when `makespan` is set).
    pub messages_delivered: u64,
    /// Total payload flits across all messages.
    pub payload_flits: u64,
    /// Algorithmic bandwidth: `payload_flits / makespan` (flits per
    /// cycle, aggregate over the job; 0 if unfinished).
    pub alg_bandwidth: f64,
    /// Per-phase latency breakdown, ascending by phase tag.
    pub phases: Vec<PhaseResult>,
}

/// Observed span of one workload phase (tasks and message deliveries
/// sharing the phase tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseResult {
    /// The phase tag the workload generator assigned.
    pub phase: u32,
    /// Cycle of the phase's first event (a task firing).
    pub start: u32,
    /// Cycle of the phase's last event (a firing or delivery).
    pub end: u32,
    /// Messages delivered under this phase tag.
    pub messages: u64,
}

impl SimResult {
    /// Delivered fraction of measured packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }
}

/// Latencies below this bound are counted in a dense histogram; the rare
/// ones at or above it are kept one by one, so a pathological latency
/// cannot size the histogram.
const DENSE_LATENCIES: u32 = 1 << 16;

/// Online latency accumulator: an exact counting histogram, so its size
/// follows the largest latency seen (a few KB) and not the packet count.
#[derive(Debug, Default, Clone)]
pub struct LatencyStats {
    /// `counts[l]`: packets of latency `l < DENSE_LATENCIES`, grown to the
    /// largest such latency recorded.
    counts: Vec<u64>,
    /// Every latency `≥ DENSE_LATENCIES`, unordered.
    overflow: Vec<u32>,
    packets: u64,
    latency_sum: u64,
    hop_sum: u64,
}

impl LatencyStats {
    /// Records a delivered packet.
    pub fn record(&mut self, latency: u32, hops: u32) {
        if latency < DENSE_LATENCIES {
            let l = latency as usize;
            if l >= self.counts.len() {
                self.counts.resize(l + 1, 0);
            }
            self.counts[l] += 1;
        } else {
            self.overflow.push(latency);
        }
        self.packets += 1;
        self.latency_sum += u64::from(latency);
        self.hop_sum += u64::from(hops);
    }

    /// Number of recorded packets.
    pub fn count(&self) -> u64 {
        self.packets
    }

    /// Mean latency (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }

    /// Mean hop count (0 if empty).
    pub fn mean_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.packets as f64
        }
    }

    /// The `pct` percentile (e.g. 0.99) of recorded latencies, by the
    /// nearest-rank definition: the smallest sample such that at least
    /// `pct` of the samples are ≤ it (rank `ceil(pct·n)`, clamped to
    /// `[1, n]` so out-of-range `pct` degrades to min/max instead of
    /// panicking). 0 if empty. Exact for tiny samples: `n < 1/(1-pct)`
    /// (e.g. p99 of under 100 packets) reports the maximum, never an
    /// interpolated or out-of-bounds rank.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        let n = self.packets;
        let rank_f = (pct * n as f64).ceil();
        // NaN would cast to 0 and silently clamp to the *minimum*; the
        // conservative degradation for a meaningless pct is the max.
        let rank = if rank_f.is_nan() { n } else { rank_f as u64 };
        let rank = rank.clamp(1, n);
        let mut below = 0u64;
        for (latency, &c) in self.counts.iter().enumerate() {
            below += c;
            if below >= rank {
                return latency as f64;
            }
        }
        // The rank falls among the overflow latencies, all of which exceed
        // every counted one.
        let mut rest = self.overflow.clone();
        let (_, v, _) = rest.select_nth_unstable((rank - below - 1) as usize);
        f64::from(*v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basics() {
        let mut s = LatencyStats::default();
        for (l, h) in [(10u32, 2u32), (20, 2), (30, 3)] {
            s.record(l, h);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert!((s.mean_hops() - 7.0 / 3.0).abs() < 1e-12);
        assert!((s.percentile(0.99) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.percentile(0.99), 0.0);
    }

    fn stats_of(samples: &[u32]) -> LatencyStats {
        let mut s = LatencyStats::default();
        for &l in samples {
            s.record(l, 1);
        }
        s
    }

    #[test]
    fn percentile_nearest_rank_tiny_samples() {
        // n = 1: every percentile is the single sample.
        let s = stats_of(&[42]);
        assert_eq!(s.percentile(0.0), 42.0);
        assert_eq!(s.percentile(0.5), 42.0);
        assert_eq!(s.percentile(0.99), 42.0);
        assert_eq!(s.percentile(1.0), 42.0);

        // n = 3: p50 rank = ceil(1.5) = 2, p99 rank = ceil(2.97) = 3.
        let s = stats_of(&[30, 10, 20]);
        assert_eq!(s.percentile(0.5), 20.0);
        assert_eq!(s.percentile(0.99), 30.0);

        // n = 4: p50 rank = ceil(2.0) = 2 exactly — the classic
        // nearest-rank half-sample case (NOT the 3rd sample).
        let s = stats_of(&[40, 10, 30, 20]);
        assert_eq!(s.percentile(0.5), 20.0);
        assert_eq!(s.percentile(0.75), 30.0);
        assert_eq!(s.percentile(0.99), 40.0);

        // n = 10: p50 rank = ceil(5.0) = 5; p90 rank = 9; p99 rank = 10.
        let s = stats_of(&[100, 10, 90, 20, 80, 30, 70, 40, 60, 50]);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(0.99), 100.0);
    }

    #[test]
    fn percentile_p99_under_100_samples_is_max() {
        // With fewer than 100 samples, rank ceil(0.99·n) = n: p99 must
        // be the maximum, never an interpolated lower sample.
        for n in [2usize, 5, 50, 99] {
            let samples: Vec<u32> = (1..=n as u32).collect();
            let s = stats_of(&samples);
            assert_eq!(s.percentile(0.99), n as f64, "n = {n}");
        }
        // At exactly n = 100 the rank drops below the max for the first
        // time: ceil(99.0) = 99 → the 99th smallest.
        let samples: Vec<u32> = (1..=100).collect();
        let s = stats_of(&samples);
        assert_eq!(s.percentile(0.99), 99.0);
    }

    #[test]
    fn percentile_out_of_range_pct_clamps() {
        let s = stats_of(&[10, 20, 30]);
        // Degenerate pct values clamp to min/max instead of panicking.
        assert_eq!(s.percentile(-1.0), 10.0);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(1.0), 30.0);
        assert_eq!(s.percentile(2.0), 30.0);
        // A NaN pct degrades to the maximum (the conservative bound),
        // not the minimum a raw `NaN as usize` cast would pick.
        assert_eq!(s.percentile(f64::NAN), 30.0);
        let one = stats_of(&[42]);
        assert_eq!(one.percentile(f64::NAN), 42.0);
    }

    #[test]
    fn percentile_p50_p999_tiny_samples() {
        // 0 samples: all percentiles are 0.
        let s = LatencyStats::default();
        assert_eq!(s.percentile(0.999), 0.0);
        // 1 sample: all percentiles are the sample.
        let s = stats_of(&[7]);
        assert_eq!(s.percentile(0.5), 7.0);
        assert_eq!(s.percentile(0.999), 7.0);
        // 2 samples: p50 rank = ceil(1.0) = 1 (the smaller); p999 rank
        // = ceil(1.998) = 2 (the max).
        let s = stats_of(&[20, 10]);
        assert_eq!(s.percentile(0.5), 10.0);
        assert_eq!(s.percentile(0.999), 20.0);
        // Below 1000 samples p999 is pinned to the max; at exactly
        // n = 1000 the rank drops to 999 for the first time.
        let s = stats_of(&(1..=999).collect::<Vec<u32>>());
        assert_eq!(s.percentile(0.999), 999.0);
        let s = stats_of(&(1..=1000).collect::<Vec<u32>>());
        assert_eq!(s.percentile(0.999), 999.0);
        let s = stats_of(&(1..=1001).collect::<Vec<u32>>());
        assert_eq!(s.percentile(0.999), 1000.0);
    }

    #[test]
    fn histogram_equals_sorted_samples() {
        // Latencies on both sides of the dense bound, duplicates, and one
        // far outlier that must not size the histogram.
        let b = DENSE_LATENCIES;
        let mut samples: Vec<u32> = (0..4_000u32).map(|i| i * i % 977).collect();
        samples.extend([b - 1, b, b, b + 5, 7, 7, u32::MAX]);
        let s = stats_of(&samples);
        assert_eq!(s.counts.len(), b as usize);
        assert_eq!(s.overflow.len(), 4);
        assert_eq!(s.count(), samples.len() as u64);
        let sum: u64 = samples.iter().map(|&l| u64::from(l)).sum();
        assert_eq!(s.mean(), sum as f64 / samples.len() as f64);
        samples.sort_unstable();
        let n = samples.len();
        for pct in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9985, 0.9995, 1.0] {
            let rank = ((pct * n as f64).ceil() as usize).clamp(1, n);
            assert_eq!(s.percentile(pct), f64::from(samples[rank - 1]), "pct {pct}");
        }
        // Only overflow samples.
        let s = stats_of(&[b + 9, b + 1, b + 5]);
        assert_eq!(s.percentile(0.0), f64::from(b + 1));
        assert_eq!(s.percentile(0.5), f64::from(b + 5));
        assert_eq!(s.percentile(1.0), f64::from(b + 9));
    }
}
