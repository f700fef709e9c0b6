//! Criterion benchmarks for the graph substrate: BFS/APSP, route-table
//! build, failure trials, triangles, bisection, and random-regular
//! generation at evaluation scale.

#![allow(missing_docs)] // criterion_group! expands to undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use pf_graph::failures::failure_trial;
use pf_graph::{bfs, partition, random_regular, triangles, DistanceMatrix};
use pf_sim::tables::RouteTables;
use polarfly::PolarFly;

fn graph_benches(c: &mut Criterion) {
    let pf = PolarFly::new(31).unwrap();
    let g = pf.graph();

    c.bench_function("bfs_single_source_q31", |b| {
        b.iter(|| bfs::bfs_distances(g, 0))
    });

    let mut grp = c.benchmark_group("heavy");
    grp.sample_size(10);
    grp.bench_function("apsp_q31_993_routers", |b| {
        b.iter(|| DistanceMatrix::build(g))
    });
    let pf47 = PolarFly::new(47).unwrap();
    let g47 = pf47.graph();
    grp.bench_function("apsp_q47", |b| b.iter(|| DistanceMatrix::build(g47)));
    grp.bench_function("route_tables_build_q31", |b| {
        b.iter(|| RouteTables::build(g, 1))
    });
    grp.bench_function("route_tables_build_q47", |b| {
        b.iter(|| RouteTables::build(g47, 1))
    });
    grp.bench_function("failure_trial_q47", |b| {
        b.iter(|| failure_trial(g47, &[0.1, 0.3, 0.5], 1))
    });
    grp.bench_function("triangle_count_q31", |b| b.iter(|| triangles::count(g)));
    for q in [19u64, 47, 127] {
        let pf = PolarFly::new(q).unwrap();
        grp.bench_function(format!("bisection_q{q}"), |b| {
            b.iter(|| partition::bisect(pf.graph(), 2, 1).cut_edges)
        });
    }
    grp.bench_function("jellyfish_gen_993x32", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            random_regular::random_regular(993, 32, seed).edge_count()
        })
    });
    grp.finish();
}

criterion_group!(benches, graph_benches);
criterion_main!(benches);
