//! Shared by the parity suites: the one bit-for-bit [`SimResult`]
//! comparer.

use pf_sim::SimResult;

/// Asserts every simulated field of two results is bit-identical
/// (floating-point fields compared by bit pattern, not tolerance) —
/// everything the benchmark's `sim_digest` hashes. Execution
/// observability — `skipped_router_cycles` and `telemetry` — is
/// deliberately excluded: it describes *how* the run executed, not what
/// it computed.
pub fn assert_bit_identical(a: &SimResult, b: &SimResult, label: &str) {
    for (name, x, y) in [
        ("offered_load", a.offered_load, b.offered_load),
        ("accepted_load", a.accepted_load, b.accepted_load),
        ("avg_latency", a.avg_latency, b.avg_latency),
        ("p50_latency", a.p50_latency, b.p50_latency),
        ("p99_latency", a.p99_latency, b.p99_latency),
        ("p999_latency", a.p999_latency, b.p999_latency),
        ("avg_hops", a.avg_hops, b.avg_hops),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {name} {x} vs {y}");
    }
    for (name, x, y) in [
        ("generated", a.generated, b.generated),
        ("delivered", a.delivered, b.delivered),
        ("dropped_flits", a.dropped_flits, b.dropped_flits),
        (
            "retransmitted_packets",
            a.retransmitted_packets,
            b.retransmitted_packets,
        ),
        (
            "table_swaps",
            u64::from(a.table_swaps),
            u64::from(b.table_swaps),
        ),
        ("down_link_flits", a.down_link_flits, b.down_link_flits),
        ("vc_class_clamps", a.vc_class_clamps, b.vc_class_clamps),
    ] {
        assert_eq!(x, y, "{label}: {name}");
    }
    assert_eq!(a.saturated, b.saturated, "{label}: saturated");
    assert_eq!(
        a.deadline_expired, b.deadline_expired,
        "{label}: deadline_expired"
    );
    assert_eq!(a.jobs.len(), b.jobs.len(), "{label}: job count");
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        let jl = format!("{label}: job {}", ja.name);
        assert_eq!(ja.name, jb.name, "{jl}: name");
        assert_eq!(ja.ranks, jb.ranks, "{jl}: ranks");
        assert_eq!(ja.makespan, jb.makespan, "{jl}: makespan");
        assert_eq!(ja.messages, jb.messages, "{jl}: messages");
        assert_eq!(
            ja.messages_delivered, jb.messages_delivered,
            "{jl}: messages_delivered"
        );
        assert_eq!(ja.payload_flits, jb.payload_flits, "{jl}: payload_flits");
        assert_eq!(
            ja.alg_bandwidth.to_bits(),
            jb.alg_bandwidth.to_bits(),
            "{jl}: alg_bandwidth"
        );
        assert_eq!(ja.phases, jb.phases, "{jl}: phases");
    }
}
