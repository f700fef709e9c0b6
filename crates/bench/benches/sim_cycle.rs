//! Hot-path micro-benchmarks for the cycle engine at the paper's Table V
//! configuration (`q = 31`, `p = 16`: 993 routers, radix 32).
//!
//! Two views of the same hot loop:
//!
//! * `step_*` — a single steady-state [`Engine::step`] call (the engine is
//!   pre-warmed so buffers carry realistic traffic);
//! * `load_curve_*` — a short end-to-end [`load_curve`] sweep, the shape
//!   every figure binary runs.
//!
//! Run with `CRITERION_JSON=BENCH_sim.json cargo bench -p pf-bench
//! --bench sim_cycle` to refresh the committed baseline.

#![allow(missing_docs)] // criterion_group! expands to undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use pf_sim::engine::{Engine, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{load_curve, Routing};
use pf_topo::{PolarFlyTopo, Topology};

/// Far enough out that the measurement window never opens (latency-sample
/// accumulation would distort a pure `step()` benchmark), while staying
/// clear of `u32` overflow in warmup+measure arithmetic.
const NEVER: u32 = 1 << 30;

fn single_cycle(c: &mut Criterion) {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let tables = RouteTables::build(topo.graph(), 1);
    let dests = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        1,
    );

    let mut grp = c.benchmark_group("sim");
    grp.sample_size(10);
    // Load 0.02 is the idle-router regime: most routers asleep, the
    // awake list and the port bitsets doing the work.
    for &(load, routing) in &[
        (0.2, Routing::Min),
        (0.6, Routing::UgalPf),
        (0.02, Routing::Min),
    ] {
        let cfg = SimConfig::default().warmup(NEVER).measure(1).drain_max(0);
        let mut e = Engine::new(&topo, &tables, &dests, routing, load, cfg);
        for _ in 0..300 {
            e.step(); // reach steady-state occupancy before timing
        }
        let name = format!("step_q31_p16_{}_load{load}", routing.label().to_lowercase());
        grp.bench_function(name, |b| b.iter(|| e.step()));
    }
    grp.finish();
}

fn short_load_curve(c: &mut Criterion) {
    let topo = PolarFlyTopo::new(31, 16).unwrap();
    let cfg = SimConfig::default().warmup(100).measure(300).drain_max(300);

    let mut grp = c.benchmark_group("sim");
    grp.sample_size(10);
    grp.bench_function("load_curve_q31_p16_min_3pts", |b| {
        b.iter(|| {
            let curve = load_curve(
                &topo,
                Routing::Min,
                TrafficPattern::Uniform,
                &[0.1, 0.5, 0.9],
                &cfg,
            );
            curve.saturation_throughput()
        })
    });
    grp.finish();
}

/// One load point at `q = 79` (6 321 routers, radix 80) — the largest
/// PolarFly the paper tabulates. A single below-saturation point with a
/// full drain pins that the engine completes (delivers and drains all
/// in-flight traffic) at this scale, and tracks the cost of a
/// large-instance point.
fn large_instance_point(c: &mut Criterion) {
    let topo = PolarFlyTopo::new(79, 40).unwrap();
    let cfg = SimConfig::default().warmup(50).measure(100).drain_max(400);

    let mut grp = c.benchmark_group("sim");
    grp.sample_size(10);
    grp.bench_function("load_point_q79_p40_min", |b| {
        b.iter(|| {
            let curve = load_curve(&topo, Routing::Min, TrafficPattern::Uniform, &[0.2], &cfg);
            let pt = &curve.points[0];
            assert!(pt.delivered > 0 && !pt.saturated, "q79 point must drain");
            pt.accepted_load
        })
    });
    grp.finish();
}

criterion_group!(
    benches,
    single_cycle,
    short_load_curve,
    large_instance_point
);
criterion_main!(benches);
