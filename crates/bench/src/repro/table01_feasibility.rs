//! Table I: qualitative feasibility of candidate data-center topologies.

use crate::Args;
use pf_topo::feasibility::{feasibility_table, Support};

fn sym(s: Support) -> &'static str {
    match s {
        Support::Full => "full",
        Support::Partial => "partial",
        Support::None => "no",
    }
}

pub fn run(_: &Args) -> Result<(), String> {
    println!("Table I — feasibility matrix (paper §III)\n");
    println!(
        "{:<12} {:>8} {:>8} {:>11} {:>9} {:>11}",
        "Topology", "Direct", "Modular", "Expandable", "Flexible", "Diameter-2"
    );
    for r in feasibility_table() {
        println!(
            "{:<12} {:>8} {:>8} {:>11} {:>9} {:>11}",
            r.topology,
            sym(r.direct),
            sym(r.modular),
            sym(r.expandable),
            sym(r.flexible),
            sym(r.diameter2)
        );
    }
    Ok(())
}
