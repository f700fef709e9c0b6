//! Table II: distribution of inter-cluster triangles by corner classes,
//! enumerated and checked against the closed forms.

use crate::Args;
use polarfly::triangles::{census, expected_census};
use polarfly::{Layout, PolarFly};

pub fn run(args: &Args) -> Result<(), String> {
    println!("Table II — inter-cluster triangle distribution (measured = closed form)\n");
    println!(
        "{:>4} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "q", "q mod 4", "total", "intra", "inter", "(v1,v1,v1)", "(v1,v1,v2)", "…"
    );
    let qs: Vec<u64> = if args.full {
        vec![13, 17, 19, 23, 25, 29, 31]
    } else {
        vec![13, 17, 19, 23]
    };
    for q in qs {
        let pf = PolarFly::new(q).unwrap();
        let layout = Layout::new(&pf);
        let m = census(&pf, &layout);
        let e = expected_census(q);
        assert_eq!(m, e, "census mismatch at q={q}");
        println!(
            "{:>4} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}   v1v2v2={} v2v2v2={}",
            q,
            q % 4,
            m.total,
            m.intra_cluster,
            m.inter_cluster,
            m.inter_by_type[0],
            m.inter_by_type[1],
            m.inter_by_type[2],
            m.inter_by_type[3]
        );
    }
    println!("\nAll rows verified against Table II formulas:");
    println!("  q=1 mod 4: (v1v1v1)=q(q-1)(q-5)/24, (v1v2v2)=q(q-1)^2/8");
    println!("  q=3 mod 4: (v1v1v2)=q(q-1)(q-3)/8, (v2v2v2)=(q+1)q(q-1)/24");
    Ok(())
}
