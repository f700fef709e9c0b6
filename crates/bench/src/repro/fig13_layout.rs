//! Figure 13: the modular layout of ER_17 vs ER_19 — fan-blade structure
//! and the q mod 4 pairing of V1/V2 vertices, exported via
//! `polarfly::export` as DOT + JSON plus textual statistics.

use crate::Args;
use polarfly::export::{to_dot, to_json};
use polarfly::{Layout, PolarFly};

pub fn run(_: &Args) -> Result<(), String> {
    std::fs::create_dir_all("target").ok();
    for q in [17u64, 19] {
        let pf = PolarFly::new(q).unwrap();
        let layout = Layout::new(&pf);
        let mut mixed = 0usize;
        let mut same = 0usize;
        for i in 1..=q as u32 {
            for (_, a, b) in layout.fan_blades(&pf, i) {
                if pf.class(a) == pf.class(b) {
                    same += 1;
                } else {
                    mixed += 1;
                }
            }
        }
        println!(
            "ER_{q} (q mod 4 = {}): {} clusters, {} fan blades per cluster",
            q % 4,
            layout.cluster_count(),
            (q - 1) / 2
        );
        println!("  blade pairings: same-class {same}, mixed V1/V2 {mixed}");
        println!("  paper: q=1 mod 4 pairs within layers (no vertical edges);");
        println!("         q=3 mod 4 pairs across layers (vertical edges)");

        let dot_path = format!("target/fig13_er{q}.dot");
        let json_path = format!("target/fig13_er{q}.json");
        std::fs::write(&dot_path, to_dot(&pf, &layout))
            .map_err(|e| format!("write {dot_path}: {e}"))?;
        std::fs::write(&json_path, to_json(&pf, &layout))
            .map_err(|e| format!("write {json_path}: {e}"))?;
        println!("  wrote {dot_path} and {json_path}\n");
    }
    Ok(())
}
