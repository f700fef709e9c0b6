//! Figure 11: incrementally expanded PolarFly under uniform traffic with
//! UGAL-PF — quadric vs non-quadric cluster replication at ~10/19/29/39%
//! growth (paper: quadric replication loses ~31% throughput at +39%,
//! non-quadric only ~19%, flat after the first replication).

use crate::Args;
use pf_bench::{load_points, print_curve_rows, sim_config};
use pf_sim::sweep::load_curve;
use pf_sim::{Routing, TrafficPattern};
use pf_topo::GraphTopo;
use pf_topo::PolarFlyTopo;
use polarfly::expansion::{replicate_non_quadric, replicate_quadric};
use polarfly::Layout;

pub fn run(args: &Args) -> Result<(), String> {
    let (q, p) = if args.full { (31u64, 16usize) } else { (13, 7) };
    let base = PolarFlyTopo::new(q, p).unwrap();
    let pf = base.polarfly().expect("a PolarFly network carries its algebra");
    let layout = Layout::new(pf);
    let cfg = sim_config(args.full);
    let loads = load_points(args.full);

    println!("=== Figure 11: base PF(q={q}) ===\n");
    let curve = load_curve(
        &base,
        Routing::UgalPf,
        TrafficPattern::Uniform,
        &loads,
        &cfg,
    );
    print_curve_rows(&curve);

    // ~10/19/29/39% growth: quadric replication adds q+1 routers/step,
    // non-quadric adds q/step; the paper adds 3/6/9/12 clusters at q=31.
    let steps: Vec<usize> = if args.full {
        vec![3, 6, 9, 12]
    } else {
        vec![1, 2, 4, 5]
    };
    for method in ["quadric", "non-quadric"] {
        println!("=== Figure 11: {method} replication ===\n");
        for &s in &steps {
            let (graph, growth) = if method == "quadric" {
                let ex = replicate_quadric(pf, &layout, s);
                (ex.graph.clone(), ex.growth())
            } else {
                let ex = replicate_non_quadric(pf, &layout, s);
                (ex.graph.clone(), ex.growth())
            };
            let name = format!("PF(q={q})+{:.0}%-{method}", growth * 100.0);
            let topo = GraphTopo::new(name, graph, p);
            let curve = load_curve(
                &topo,
                Routing::UgalPf,
                TrafficPattern::Uniform,
                &loads,
                &cfg,
            );
            print_curve_rows(&curve);
        }
    }
    Ok(())
}
