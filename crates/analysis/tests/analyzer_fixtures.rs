//! Fixture-corpus tests: every rule class produces its exact
//! diagnostics (rule id, file, line, suppression state), and the real
//! workspace analyzes clean with a byte-stable JSON report.

use pf_analysis::analyze;
use pf_analysis::config::{Config, Scope};
use pf_analysis::report::Report;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A config mirroring the workspace one, scoped to the corpus: every
/// rule everywhere, `src/hot.rs` as the hot-path module, `record_epoch`
/// as the telemetry root.
fn fixture_config() -> Config {
    Config {
        scan_roots: vec!["src".to_string()],
        scan_exclude: Vec::new(),
        rng_scope: Scope::of(&[""]),
        ordered_scope: Scope::of(&[""]),
        wall_clock_scope: Scope::of(&[""]),
        unsafe_scope: Scope::of(&[""]),
        purity_scope: Scope::of(&[""]),
        hot_path_files: vec!["src/hot.rs".to_string()],
        telemetry_roots: vec!["record_epoch".to_string()],
        telemetry_types: vec!["TelemetrySink".to_string()],
    }
}

fn run_fixtures() -> Report {
    analyze(&fixture_root(), &fixture_config())
}

#[test]
fn fixture_diagnostics_are_exact() {
    let r = run_fixtures();
    let got: Vec<(&str, &str, u32, bool)> = r
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line, v.suppressed.is_some()))
        .collect();
    // Canonical report order: sorted by (file, line, rule, message).
    let want: Vec<(&str, &str, u32, bool)> = vec![
        ("wall-clock-ban", "src/bad_clock.rs", 3, false),
        ("wall-clock-ban", "src/bad_clock.rs", 7, true),
        ("ordered-iteration", "src/bad_hash.rs", 3, false),
        ("ordered-iteration", "src/bad_hash.rs", 6, false),
        ("rng-discipline", "src/bad_rng.rs", 3, false),
        ("rng-discipline", "src/bad_rng.rs", 6, false),
        ("rng-discipline", "src/bad_rng.rs", 11, false),
        ("unsafe-ban", "src/bad_unsafe.rs", 4, false),
        ("panic-discipline", "src/hot.rs", 4, false),
        ("panic-discipline", "src/hot.rs", 7, false),
        ("panic-discipline", "src/hot.rs", 18, false),
        ("pragma", "src/pragmas.rs", 3, false),
        ("rng-discipline", "src/pragmas.rs", 4, false),
        ("pragma", "src/pragmas.rs", 6, false),
        ("rng-discipline", "src/pragmas.rs", 11, true),
        ("telemetry-purity", "src/telemetry.rs", 26, false),
        ("telemetry-purity", "src/telemetry.rs", 31, false),
    ];
    assert_eq!(got, want, "full report:\n{}", r.to_text());
    assert_eq!(r.unsuppressed(), 15);
    assert_eq!(r.files_scanned, 8);
}

#[test]
fn fixture_messages_name_the_cause() {
    let r = run_fixtures();
    let msg = |file: &str, line: u32| -> &str {
        &r.violations
            .iter()
            .find(|v| v.file == file && v.line == line)
            .unwrap()
            .message
    };
    // The telemetry-purity chain names the hook; the collector's own
    // `&mut self` (`TelemetrySink::record_epoch`) is exempt.
    assert!(msg("src/telemetry.rs", 26).contains("TelemetrySink::record_epoch → EngineState::bump"));
    assert!(msg("src/telemetry.rs", 31).contains("gen_range"));
    assert!(!r
        .violations
        .iter()
        .any(|v| v.file == "src/telemetry.rs" && v.line == 10));
    // The assert-masked `unwrap` in `masked()` (hot.rs:13) is exempt.
    assert!(!r
        .violations
        .iter()
        .any(|v| v.file == "src/hot.rs" && v.line == 13));
    // Malformed vs unused pragma diagnostics are distinct.
    assert!(msg("src/pragmas.rs", 3).contains("malformed"));
    assert!(msg("src/pragmas.rs", 6).contains("unused"));
}

#[test]
fn fixture_pragmas_are_recorded_with_reasons() {
    let r = run_fixtures();
    // Both well-formed pragmas (used and unused) land in the report.
    assert_eq!(r.pragmas.len(), 3);
    assert!(r.pragmas.iter().all(|p| !p.reason.is_empty()));
}

#[test]
fn workspace_is_clean_and_report_is_byte_stable() {
    let cfg = Config::workspace();
    let r1 = analyze(&workspace_root(), &cfg);
    assert_eq!(r1.unsuppressed(), 0, "full report:\n{}", r1.to_text());
    assert!(r1.files_scanned > 100, "scan missed the tree");
    // Every suppression in the real tree carries a recorded reason.
    assert!(r1
        .violations
        .iter()
        .all(|v| v.suppressed.as_deref().is_some_and(|s| !s.is_empty())));
    let r2 = analyze(&workspace_root(), &cfg);
    assert_eq!(r1.to_json(), r2.to_json(), "JSON report is not byte-stable");
}

#[test]
fn binary_exit_codes_follow_the_report() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_pf_analyze");
    // The fixture corpus has unsuppressed violations under any config
    // that scans `src/` — nonzero exit.
    let dirty = Command::new(bin)
        .args([
            "--root",
            fixture_root().to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("spawn pf_analyze");
    assert!(!dirty.status.success());
    // The real workspace is clean — exit 0.
    let clean = Command::new(bin)
        .args([
            "--root",
            workspace_root().to_str().unwrap(),
            "--format",
            "text",
        ])
        .output()
        .expect("spawn pf_analyze");
    assert!(
        clean.status.success(),
        "workspace not clean:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
}
