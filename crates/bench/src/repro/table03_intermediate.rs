//! Table III: class of the alternative-2-hop-path intermediate between
//! adjacent non-quadric vertices, as a function of q mod 4.

use crate::Args;
use polarfly::triangles::{intermediate_type_table, verify_intermediate_types};
use polarfly::{PolarFly, VertexClass};

fn label(c: VertexClass) -> &'static str {
    match c {
        VertexClass::V1 => "v1",
        VertexClass::V2 => "v2",
        VertexClass::Quadric => "w",
    }
}

pub fn run(_: &Args) -> Result<(), String> {
    println!("Table III — intermediate vertex classes for adjacent non-quadric pairs\n");
    for q in [13u64, 17, 19, 23] {
        let t = intermediate_type_table(q);
        println!("q = {q} (q mod 4 = {}):", q % 4);
        println!("        v1   v2");
        println!("  v1  {:>4} {:>4}", label(t[0][0]), label(t[0][1]));
        println!("  v2  {:>4} {:>4}", label(t[1][0]), label(t[1][1]));
        let pf = PolarFly::new(q).unwrap();
        assert!(
            verify_intermediate_types(&pf),
            "verification failed for q={q}"
        );
        println!(
            "  verified by exhaustive edge scan ({} edges)\n",
            pf.graph().edge_count()
        );
    }
    Ok(())
}
