//! Quickstart: build a PolarFly, inspect its structure, route packets.
//!
//! ```sh
//! cargo run --release -p pf-bench -- quickstart
//! ```

use crate::Args;
use polarfly::{Layout, PolarFly, VertexClass};

pub fn run(_: &Args) -> Result<(), String> {
    // PolarFly for q = 31: the radix-32 instance from the paper's Table V.
    let pf = PolarFly::new(31).expect("31 is a prime power");
    println!("PolarFly q = {}", pf.q());
    println!("  routers       : {} (= q² + q + 1)", pf.router_count());
    println!("  network radix : {} (= q + 1)", pf.degree());
    println!("  diameter      : {}", pf.measured_diameter().unwrap());
    println!(
        "  Moore bound   : {:.2}% of 1 + k²",
        100.0 * pf.moore_fraction()
    );

    // Vertex classes (paper §IV-F).
    let w = pf.quadrics().len();
    let v1 = pf.routers_in_class(VertexClass::V1).len();
    let v2 = pf.routers_in_class(VertexClass::V2).len();
    println!("  classes       : |W| = {w}, |V1| = {v1}, |V2| = {v2}");

    // Minimal routing: unique paths of at most 2 hops, computable
    // algebraically from the router vectors (no tables needed).
    let (src, dst) = (0u32, 500u32);
    let route = pf.minimal_route(src, dst);
    println!("\nminimal route {src} -> {dst}: {route:?}");
    println!(
        "  via vectors {:?} -> {:?}",
        pf.vector(src).0,
        pf.vector(dst).0
    );
    if route.len() == 3 {
        let mid = route[1];
        println!(
            "  intermediate {} = normalized cross product {:?}",
            mid,
            pf.vector(mid).0
        );
    }

    // The modular rack layout (paper §V, Algorithm 1).
    let layout = Layout::new(&pf);
    println!(
        "\nlayout: {} racks (1 quadric rack + q fan racks)",
        layout.cluster_count()
    );
    println!(
        "  rack C0 (quadrics): {} routers, no internal links",
        layout.cluster(0).len()
    );
    println!(
        "  rack C1: center router {}, {} fan-blade triangles",
        layout.center(1),
        layout.fan_blades(&pf, 1).len()
    );
    let c1_to_c2 = layout.inter_cluster_edges(&pf, 1, 2).len();
    let c1_to_c0 = layout.inter_cluster_edges(&pf, 1, 0).len();
    println!("  C1 <-> C2 links: {c1_to_c2} (= q - 2), C1 <-> C0 links: {c1_to_c0} (= q + 1)");
    Ok(())
}
