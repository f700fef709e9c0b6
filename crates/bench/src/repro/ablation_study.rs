//! Ablation study for the design choices called out in DESIGN.md §6:
//!
//! 1. allocator iterations (1/2/3) — matching quality vs saturation;
//! 2. VCs per hop class (1/2/4) — wormhole interleaving vs buffer depth;
//! 3. UGAL-PF adaptation threshold (1/3, 1/2, 2/3, 5/6);
//! 4. Compact Valiant vs full Valiant path lengths and throughput;
//! 5. bisection: spectral+FM vs FM-from-random-seeds only.

use crate::Args;
use pf_graph::partition;
use pf_sim::engine::{simulate, SimConfig};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::Routing;
use pf_topo::PolarFlyTopo;
use polarfly::PolarFly;

pub fn run(_: &Args) -> Result<(), String> {
    let topo = PolarFlyTopo::balanced(13).unwrap();
    let tables = RouteTables::build(topo.graph(), 5);
    let uni = resolve(
        TrafficPattern::Uniform,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let tor = resolve(
        TrafficPattern::Tornado,
        topo.graph(),
        &topo.host_routers(),
        3,
    );
    let base = SimConfig::default().warmup(300).measure(800).drain_max(600);

    println!("=== Ablation 1: allocator iterations (uniform, MIN, offered 0.95) ===");
    for iters in [1u8, 2, 3] {
        let r = simulate(
            &topo,
            &tables,
            &uni,
            Routing::Min,
            0.95,
            base.clone().alloc_iters(iters),
        );
        println!("  iters={iters}: accepted={:.3}", r.accepted_load);
    }

    println!("\n=== Ablation 2: VCs per hop class (uniform, MIN, offered 0.95) ===");
    for per in [1u8, 2, 4] {
        let r = simulate(
            &topo,
            &tables,
            &uni,
            Routing::Min,
            0.95,
            base.clone().vcs_per_class(per),
        );
        println!(
            "  vcs_per_class={per} (total {}): accepted={:.3}",
            4 * per,
            r.accepted_load
        );
    }

    println!("\n=== Ablation 3: UGAL-PF threshold (tornado, offered 0.5) ===");
    for th in [1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0] {
        let r = simulate(
            &topo,
            &tables,
            &tor,
            Routing::UgalPf,
            0.5,
            base.clone().ugal_pf_threshold(th),
        );
        println!(
            "  threshold={th:.2}: accepted={:.3} latency={:.0}",
            r.accepted_load, r.avg_latency
        );
    }

    println!("\n=== Ablation 4: Valiant variants (tornado, offered 0.4) ===");
    for routing in [
        Routing::Valiant,
        Routing::CompactValiant,
        Routing::Ugal,
        Routing::UgalPf,
    ] {
        let r = simulate(&topo, &tables, &tor, routing, 0.4, base.clone());
        println!(
            "  {:>6}: accepted={:.3} hops={:.2} latency={:.0}",
            routing.label(),
            r.accepted_load,
            r.avg_hops,
            r.avg_latency
        );
    }

    println!("\n=== Ablation 5: partitioner seeding (PF q=19 bisection) ===");
    let pf = PolarFly::new(19).unwrap();
    let spectral = partition::bisect(pf.graph(), 0, 1);
    let restarts = partition::bisect(pf.graph(), 6, 1);
    println!(
        "  spectral+FM only  : cut fraction {:.4}",
        spectral.cut_fraction
    );
    println!(
        "  + 6 random starts : cut fraction {:.4}",
        restarts.cut_fraction
    );
    Ok(())
}
