//! `pf_analysis`: the workspace determinism-contract static analyzer.
//!
//! The simulator's headline guarantees — bit-for-bit dense/skip and
//! telemetry on/off parity, seeded reproducibility of every golden pin
//! — are *contracts about code shape*, not just runtime properties: an
//! unseeded RNG draw, a `HashMap` iteration feeding `SimResult`, or a
//! side effect inside a telemetry hook can break parity on inputs no
//! test covers.
//! This crate turns those contracts into named, testable rules enforced
//! at merge time by the `pf_analyze` binary (wired into CI beside
//! clippy):
//!
//! * **rng-discipline** — no `thread_rng`/`from_entropy`/OS entropy
//!   anywhere; every RNG is built from an explicit seed.
//! * **telemetry-purity** — everything reachable from the telemetry
//!   record hooks (`trace_*`, `prof_lap`, the epoch snapshot) takes no
//!   `&mut self` outside the collector types and draws no RNG, so
//!   results stay bit-identical with telemetry on or off.
//! * **ordered-iteration** — no `HashMap`/`HashSet` in modules feeding
//!   `SimResult` or route tables; `BTreeMap` or an explicit sort.
//! * **wall-clock-ban** — `Instant`/`SystemTime` only in the bench
//!   harness and pragma'd observability sites.
//! * **unsafe-ban** — no `unsafe` anywhere in the workspace.
//! * **panic-discipline** — no `unwrap`/`expect`/`panic!` in engine
//!   hot-path modules (asserts stating invariants are allowed).
//!
//! Each rule is suppressible only by an inline
//! `// pf-analyze: allow(<rule>) — <reason>` pragma, which the report
//! records; malformed or unused pragmas are violations themselves.
//! The JSON report is deterministic (sorted, timestamp-free) and
//! byte-identical across runs — pinned by an integration test.

pub mod callgraph;
pub mod config;
pub mod items;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;

use callgraph::CallGraph;
use config::{Config, RULES};
use items::FileItems;
use lexer::Lexed;
use report::{Report, ReportPragma, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directory names never descended into, whatever the configuration.
const ALWAYS_SKIP: &[&str] = &["target", "vendor", ".git", ".github"];

/// Collects every in-scope `.rs` file under `root`, sorted by relative
/// path — the scan order (and therefore the report) is deterministic.
fn walk(root: &Path, cfg: &Config) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for top in &cfg.scan_roots {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(&dir, root, cfg, &mut out);
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn walk_dir(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let rel = p
            .strip_prefix(root)
            .map(|r| r.to_string_lossy().replace('\\', "/"))
            .unwrap_or_default();
        if cfg.scan_exclude.iter().any(|x| rel.starts_with(x.as_str())) {
            continue;
        }
        if p.is_dir() {
            if !ALWAYS_SKIP.contains(&name) {
                walk_dir(&p, root, cfg, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(src) = std::fs::read_to_string(&p) {
                out.push((rel, src));
            }
        }
    }
}

/// Runs the full analysis over the workspace at `root`.
pub fn analyze(root: &Path, cfg: &Config) -> Report {
    let files = walk(root, cfg);
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut lexed: BTreeMap<String, Lexed> = BTreeMap::new();
    let mut items: BTreeMap<String, FileItems> = BTreeMap::new();
    // (file, target_line) → pragma indices into `report.pragmas`.
    let mut pragma_index: BTreeMap<(String, u32), Vec<usize>> = BTreeMap::new();
    for (path, src) in &files {
        let lx = lexer::lex(src);
        let it = items::extract(&lx);
        let (pragmas, errors) = pragma::extract(&lx, RULES, &lx.code_lines());
        for e in errors {
            report.violations.push(Violation {
                rule: "pragma",
                file: path.clone(),
                line: e.line,
                message: format!("malformed pragma: {}", e.message),
                suppressed: None,
            });
        }
        for p in pragmas {
            let idx = report.pragmas.len();
            report.pragmas.push(ReportPragma {
                file: path.clone(),
                line: p.line,
                rules: p.rules,
                reason: p.reason,
            });
            pragma_index
                .entry((path.clone(), p.target_line))
                .or_default()
                .push(idx);
        }
        lexed.insert(path.clone(), lx);
        items.insert(path.clone(), it);
    }

    // Token-scan rules.
    for (path, _) in &files {
        rules::scan_file(
            path,
            &lexed[path],
            &items[path],
            cfg,
            &mut report.violations,
        );
    }

    // Telemetry purity over the call graph (library sources, test mods
    // excluded: a test helper sharing a hot-path name must not wire the
    // graph into test code).
    let mut graph_fns: BTreeMap<String, Vec<items::FnItem>> = BTreeMap::new();
    let mut bodies: BTreeMap<(String, usize), (usize, usize)> = BTreeMap::new();
    for (path, _) in &files {
        if !cfg.purity_scope.contains(path) {
            continue;
        }
        let it = &items[path];
        let fns: Vec<items::FnItem> = it
            .fns
            .iter()
            .filter(|f| !it.in_test_mod(f.line))
            .cloned()
            .collect();
        for (idx, f) in fns.iter().enumerate() {
            if let Some(b) = f.body {
                bodies.insert((path.clone(), idx), b);
            }
        }
        graph_fns.insert(path.clone(), fns);
    }
    let graph = CallGraph::build(&lexed, &graph_fns);
    rules::check_telemetry_purity(&graph, &lexed, &bodies, cfg, &mut report.violations);

    // Apply suppressions.
    let mut used = vec![false; report.pragmas.len()];
    for v in &mut report.violations {
        if v.rule == "pragma" {
            continue; // the meta-rule cannot be suppressed
        }
        if let Some(idxs) = pragma_index.get(&(v.file.clone(), v.line)) {
            for &i in idxs {
                if report.pragmas[i].rules.iter().any(|r| r == v.rule) {
                    v.suppressed = Some(report.pragmas[i].reason.clone());
                    used[i] = true;
                    break;
                }
            }
        }
    }
    for (i, p) in report.pragmas.iter().enumerate() {
        if !used[i] {
            report.violations.push(Violation {
                rule: "pragma",
                file: p.file.clone(),
                line: p.line,
                message: format!(
                    "unused pragma: allow({}) suppresses no violation — remove it",
                    p.rules.join(", ")
                ),
                suppressed: None,
            });
        }
    }

    report.finalize();
    report
}
