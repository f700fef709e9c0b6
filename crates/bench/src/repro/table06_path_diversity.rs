//! Table VI: path diversity of ER_q for path lengths 1–4, by vertex-pair
//! case — enumerated, with the paper's closed forms alongside.

use crate::Args;
use polarfly::paths::{
    expected_diversity, measured_diversity, paper_table_vi, surviving_3hop_paths,
};
use polarfly::{PolarFly, VertexClass};
use std::collections::BTreeMap;

fn class_label(c: VertexClass) -> &'static str {
    match c {
        VertexClass::Quadric => "W",
        VertexClass::V1 => "V1",
        VertexClass::V2 => "V2",
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let q: u64 = if args.full { 11 } else { 7 };
    println!("Table VI — path diversity in ER_q (q={q}, q²={})\n", q * q);
    let pf = PolarFly::new(q).unwrap();
    let n = pf.router_count() as u32;

    // Group pairs by case, verify constancy, and print one row per case.
    let mut rows: BTreeMap<String, (u64, u64, u64, u64, u64, u64)> = BTreeMap::new();
    for v in 0..n {
        for w in (v + 1)..n {
            let m = measured_diversity(&pf, v, w);
            let e = expected_diversity(&pf, v, w);
            assert_eq!(m, e, "closed form mismatch at ({v},{w})");
            let paper = paper_table_vi(&pf, v, w);
            let surv3 = surviving_3hop_paths(&pf, v, w);
            assert_eq!(
                surv3, paper.len3,
                "paper len-3 convention mismatch at ({v},{w})"
            );
            let adj = pf.graph().has_edge(v, w);
            let xq = pf
                .intermediate(v, w)
                .map(|x| pf.is_quadric(x))
                .unwrap_or(false);
            let mut cs = [class_label(pf.class(v)), class_label(pf.class(w))];
            cs.sort();
            let key = format!(
                "{} {}-{}{}",
                if adj { "adj   " } else { "nonadj" },
                cs[0],
                cs[1],
                if xq { " xW" } else { "   " }
            );
            let entry = rows
                .entry(key)
                .or_insert((m.len1, m.len2, m.len3, m.len4, surv3, paper.len4));
            assert_eq!(
                (entry.0, entry.1, entry.2, entry.3),
                (m.len1, m.len2, m.len3, m.len4),
                "case not constant"
            );
        }
    }
    println!(
        "{:<20} {:>4} {:>4} {:>6} {:>6} {:>10} {:>10}",
        "case", "L1", "L2", "L3all", "L4", "L3-avoid-x", "L4(paper)"
    );
    for (k, (l1, l2, l3, l4, s3, p4)) in rows {
        println!("{k:<20} {l1:>4} {l2:>4} {l3:>6} {l4:>6} {s3:>10} {p4:>10}");
    }
    println!("\nL3-avoid-x matches the paper's length-3 rows (q-1 / q).");
    println!("L4(paper) differs from enumeration only on quadric-endpoint rows");
    println!("(paper errata; see DESIGN.md and polarfly::paths docs).");
    Ok(())
}
