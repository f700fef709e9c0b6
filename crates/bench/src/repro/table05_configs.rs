//! Table V: the simulated configurations — constructed and verified.

use crate::Args;
use pf_bench::comparison_topologies;
use pf_graph::DistanceHistogram;

pub fn run(args: &Args) -> Result<(), String> {
    println!(
        "Table V — simulated configurations ({}; paper scale: PF 993/32, SF 1058/35,\nDF1 876/17, DF2 978/32, JF 993/32, FT 972/36)\n",
        if args.full { "--full: paper scale" } else { "reduced scale; pass --full for paper scale" }
    );
    println!(
        "{:<18} {:>9} {:>12} {:>10} {:>10} {:>9}",
        "Network", "routers", "net radix", "endpoints", "diameter", "ASPL"
    );
    for t in comparison_topologies(args.full) {
        let g = t.graph();
        let hist = DistanceHistogram::build(g);
        println!(
            "{:<18} {:>9} {:>12} {:>10} {:>10} {:>9.3}",
            t.name(),
            t.router_count(),
            g.max_degree(),
            t.total_endpoints(),
            hist.diameter()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "inf".into()),
            hist.average_shortest_path()
        );
    }
    Ok(())
}
