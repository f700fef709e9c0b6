//! The open-loop generator against the law it realises. The per-endpoint
//! draw loop it replaced survives as `Engine::generate_reference`; these
//! tests hold the skip-ahead stream to the same Bernoulli law (counts,
//! per-router spread, order, idle cycles), to the reference's end-to-end
//! statistics over the same seeds, and to its edge cases.

use super::geometric_gap;
use crate::engine::Reference;
use crate::traffic::{resolve, DestMap, TrafficPattern};
use crate::{Engine, RouteTables, Routing, SimConfig, SimResult};
use pf_topo::{PolarFlyTopo, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LOADS: [f64; 3] = [0.02, 0.3, 0.9];
/// Sixteen seeds: the mean of n runs leaves the min..max of n other runs
/// of the same law about 3 % of the time at n = 8 (per metric), well
/// under 0.1 % at 16.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=16;

/// PF q=7 p=4: 57 routers, 228 endpoints.
fn pf7() -> (Topology, RouteTables, DestMap) {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let tables = RouteTables::build(topo.graph(), 5);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        5,
    );
    (topo, tables, dests)
}

/// Asserts `observed` lies within 4σ of Binomial(`trials`, `prob`).
fn assert_binomial(observed: u64, trials: u64, prob: f64, label: &str) {
    let mean = trials as f64 * prob;
    let sigma = (mean * (1.0 - prob)).sqrt();
    assert!(
        (observed as f64 - mean).abs() <= 4.0 * sigma,
        "{label}: {observed} is outside {mean:.1} ± 4·{sigma:.2}"
    );
}

/// Packet counts of a generation-only walk: whole run, per router and
/// per cycle follow iid Bernoulli(`prob`) trials, and a cycle admits in
/// ascending router order. Both generators must pass, so the bounds are
/// shown not to be vacuous for the oracle either.
#[test]
fn arrivals_follow_the_bernoulli_law() {
    const CYCLES: u32 = 2000;
    let (topo, tables, dests) = pf7();
    for reference in [false, true] {
        for load in LOADS {
            for seed in SEEDS {
                let label = format!("reference={reference} load {load} seed {seed}");
                let cfg = SimConfig::default().seed(seed);
                let prob = load / f64::from(cfg.packet_flits);
                let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, load, cfg);
                if reference {
                    e.reference = Reference::PerEndpointDraws;
                }
                let mut idle_cycles = 0u64;
                for cycle in 0..CYCLES {
                    let before = e.packets.capacity();
                    e.generate(cycle);
                    // Nothing is released here, so this cycle's packets
                    // are the pool's tail, in admission order.
                    let born = &e.packets.src[before..];
                    assert!(
                        born.windows(2).all(|w| w[0] <= w[1]),
                        "{label}: cycle {cycle} admitted out of router order"
                    );
                    idle_cycles += u64::from(born.is_empty());
                }

                let trials = e.gen_trials();
                assert_eq!(trials, 228);
                let all = trials * u64::from(CYCLES);
                assert_binomial(e.total_generated(), all, prob, &label);

                // Per-router counts: Σ z² over 57 independent binomials
                // is χ²(57) — mean 57, variance 114 — checked two-sided
                // (a too-regular stream fails as surely as a skewed one).
                let chi2: f64 = (0..e.n)
                    .map(|r| {
                        let mean = f64::from(e.endpoints[r] * CYCLES) * prob;
                        (e.src_q[r].len() as f64 - mean).powi(2) / (mean * (1.0 - prob))
                    })
                    .sum();
                let (df, spread) = (e.n as f64, 4.0 * (2.0 * e.n as f64).sqrt());
                assert!(
                    (chi2 - df).abs() <= spread,
                    "{label}: per-router χ² {chi2:.1} outside {df} ± {spread:.1}"
                );

                // Cycles with no arrival probe the carry across cycle
                // boundaries (only where the law expects enough of them).
                let p_idle = (1.0 - prob).powi(trials as i32);
                if p_idle * f64::from(CYCLES) >= 10.0 {
                    assert_binomial(idle_cycles, u64::from(CYCLES), p_idle, &label);
                }
            }
        }
    }
}

fn seed_runs(load: f64, reference: bool) -> Vec<SimResult> {
    let (topo, tables, dests) = pf7();
    SEEDS
        .map(|seed| {
            let cfg = SimConfig::quick().seed(seed);
            let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, load, cfg);
            if reference {
                e.reference = Reference::PerEndpointDraws;
            }
            e.run()
        })
        .collect()
}

/// End-to-end: over the same seeds, the new stream's seed-mean accepted
/// load, latency (mean and p99) and hop count lie inside the reference
/// generator's seed-to-seed range — the RNG realisation moved, the
/// modelled network did not.
#[test]
fn run_statistics_sit_inside_the_reference_generators_spread() {
    type Metric = (&'static str, fn(&SimResult) -> f64);
    let metrics: [Metric; 4] = [
        ("accepted_load", |r| r.accepted_load),
        ("avg_latency", |r| r.avg_latency),
        ("p99_latency", |r| r.p99_latency),
        ("avg_hops", |r| r.avg_hops),
    ];
    for load in LOADS {
        let new = seed_runs(load, false);
        let reference = seed_runs(load, true);
        assert!(new.iter().all(|r| r.delivered > 0), "load {load}: vacuous");
        for (name, metric) in metrics {
            let mean = new.iter().map(metric).sum::<f64>() / new.len() as f64;
            let lo = reference.iter().map(metric).fold(f64::INFINITY, f64::min);
            let hi = reference
                .iter()
                .map(metric)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                (lo..=hi).contains(&mean),
                "load {load} {name}: seed-mean {mean} outside the reference's {lo}..{hi}"
            );
        }
    }
}

/// Load 0 draws nothing — not at construction, not per cycle — and never
/// admits; the whole idle run is one leap (the dense reference walks
/// it). This is what keeps closed-loop engines (built at load 0) on
/// their pre-change streams.
#[test]
fn load_zero_draws_no_rng_and_never_admits() {
    let (topo, tables, dests) = pf7();
    for reference in [Reference::DenseSchedule, Reference::Off] {
        let cfg = SimConfig::quick().seed(77);
        let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.0, cfg);
        e.reference = reference;
        assert_eq!(e.gen_next, u64::MAX);
        let mut steps = 0;
        while e.cycle() < 1000 {
            e.step();
            e.validate_skip_invariants();
            steps += 1;
        }
        assert_eq!(
            steps == 1000,
            reference.dense_schedule(),
            "only the reference walks every cycle"
        );
        assert_eq!(e.total_generated(), 0);
        assert_eq!(e.gen_next, u64::MAX);
        // Seed mixing is the identity at load 0 (`0.0f64.to_bits() == 0`).
        let mut fresh = StdRng::seed_from_u64(77);
        assert_eq!(e.rng.gen::<u64>(), fresh.gen::<u64>());
    }
}

/// `prob == 1` (one-flit packets at load 1): every gap is 0, so every
/// endpoint admits every cycle.
#[test]
fn probability_one_admits_every_endpoint_every_cycle() {
    let (topo, tables, dests) = pf7();
    let cfg = SimConfig::default().packet_flits(1).seed(3);
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 1.0, cfg);
    assert_eq!(e.gen_next, 0);
    for cycle in 0..50u32 {
        e.generate(cycle);
        assert_eq!(e.gen_next, u64::from(cycle + 1) * e.gen_trials());
        for r in 0..e.n {
            assert_eq!(e.src_q[r].len(), (e.endpoints[r] * (cycle + 1)) as usize);
        }
    }
}

/// Gap arithmetic saturates: a vanishing probability inverts to "never"
/// (`u64::MAX`), and adding that to the trial index stays there instead
/// of wrapping back into the run.
#[test]
fn gaps_saturate_instead_of_wrapping() {
    let almost_one = 1.0 - f64::EPSILON / 2.0;
    assert_eq!(geometric_gap(almost_one, (-1e-300f64).ln_1p()), u64::MAX);
    assert_eq!(geometric_gap(0.0, (-0.5f64).ln_1p()), 0);
    assert_eq!(geometric_gap(almost_one, f64::NEG_INFINITY), 0);
    // Inversion at prob = 1/2: u in [1/2, 3/4) is exactly one failure.
    assert_eq!(geometric_gap(0.49, (-0.5f64).ln_1p()), 0);
    assert_eq!(geometric_gap(0.5, (-0.5f64).ln_1p()), 1);
    assert_eq!(geometric_gap(0.76, (-0.5f64).ln_1p()), 2);

    let (topo, tables, dests) = pf7();
    let cfg = SimConfig::default().seed(9);
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.3, cfg);
    // One arrival due at cycle 4, then a law whose every gap saturates.
    e.gen_next = 4 * e.gen_trials() + 17;
    e.gen_ln_q = (-1e-300f64).ln_1p();
    for cycle in 0..200 {
        e.generate(cycle);
        assert_eq!(e.total_generated(), u64::from(cycle >= 4));
    }
    assert_eq!(e.gen_next, u64::MAX);
}

/// `gen_cutoff` stops admission at exactly that cycle, while the run
/// goes on draining.
#[test]
fn gen_cutoff_stops_admission_at_the_exact_cycle() {
    const CUTOFF: u32 = 120;
    let (topo, tables, dests) = pf7();
    let cfg = SimConfig::quick().gen_cutoff(CUTOFF).seed(4);
    let mut e = Engine::new(&topo, &tables, &dests, Routing::Min, 0.9, cfg);
    let mut at_cutoff = 0;
    while e.cycle() < CUTOFF + 200 {
        let before = e.total_generated();
        e.step();
        if e.cycle() <= CUTOFF {
            // ~51 packets a cycle at this load: each generating cycle,
            // the last one included, admits something.
            assert!(e.total_generated() > before, "cycle {}", e.cycle() - 1);
            at_cutoff = e.total_generated();
        }
    }
    assert_eq!(e.total_generated(), at_cutoff);
    assert!(e.total_delivered() > 0);
}
