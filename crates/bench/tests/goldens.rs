//! Every file in `crates/bench/golden/` is the exact stdout of one `repro`
//! run: `<name>.txt` of `repro <name>` and `<name>_smoke.txt` of
//! `repro <name> --smoke`. All runs start at once, from the workspace
//! root, so fig13's DOT/JSON files land in the ignored `target/`.
//!
//! No golden depends on the thread count. The three sweep smokes are the
//! only runs that reach the static-failure and transient inputs of the
//! engine's VC class budget rule (DESIGN.md, "VC class budget").
//!
//! The two fault sweeps also run with engine telemetry on: stripped of
//! the telemetry banner and report rows, their stdout must still be the
//! `--smoke` golden.

use std::collections::BTreeSet;
use std::process::{Command, Stdio};

#[test]
fn every_golden_is_the_stdout_of_its_repro_run() {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    let mut goldens: Vec<_> = std::fs::read_dir(golden_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    goldens.sort();
    assert!(!goldens.is_empty());

    let runs: Vec<_> = goldens
        .into_iter()
        .map(|golden| {
            let stem = golden.file_stem().unwrap().to_str().unwrap();
            let argv = match stem.strip_suffix("_smoke") {
                Some(name) => format!("{name} --smoke"),
                None => stem.to_owned(),
            };
            let child = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(argv.split(' '))
                .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap();
            (golden, argv, child)
        })
        .collect();

    let mut failures = Vec::new();
    for (golden, argv, child) in runs {
        let out = child.wait_with_output().unwrap();
        let (got, want) = (
            String::from_utf8_lossy(&out.stdout),
            std::fs::read_to_string(&golden).unwrap(),
        );
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            failures.push(format!("repro {argv}: {}\n{stderr}", out.status));
        } else if got != want {
            let same = got.lines().zip(want.lines()).take_while(|(g, w)| g == w);
            let line = same.count() + 1;
            failures.push(format!("repro {argv}: line {line} differs from {golden:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `resilience_sweep` / `transient_sweep --smoke` with
/// `--telemetry-interval` and `--trace-sample`: telemetry only observes,
/// so the banner and data rows are the golden's byte for byte, and every
/// data row is followed by exactly one report (epoch rows, trace rows,
/// then its summary) under a label no other load point uses.
#[test]
fn fault_sweep_telemetry_reports_follow_their_rows() {
    let runs: Vec<_> = [
        ("resilience_sweep", "resilience"),
        ("transient_sweep", "transient"),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([name, "--smoke", "--telemetry-interval", "256"])
            .args(["--trace-sample", "1024"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        (name, kind, child)
    })
    .collect();

    for (name, kind, child) in runs {
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "repro {name}: {}\n{stderr}",
            out.status
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let golden = format!("{}/golden/{name}_smoke.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(golden).unwrap();

        let data_row = format!(r#"{{"kind":"{kind}""#);
        let (mut rows, mut epochs, mut traces) = (String::new(), 0, 0);
        let mut labels = BTreeSet::new();
        // Whether the last data row still awaits its report's summary.
        let mut open = false;
        let mut banners = 0;
        for line in stdout.lines() {
            if line == "(telemetry: epoch interval 256, trace sample 1/1024)" {
                banners += 1;
                continue;
            }
            let telemetry = ["epoch", "trace", "telemetry_summary"]
                .iter()
                .find(|k| line.starts_with(&format!(r#"{{"kind":"{k}","run":""#)));
            match telemetry {
                Some(k) => {
                    assert!(open, "{name}: a report row outside a report: {line}");
                    match *k {
                        "epoch" => epochs += 1,
                        "trace" => traces += 1,
                        _ => {
                            let label = line.split('"').nth(7).unwrap();
                            assert!(labels.insert(label.to_owned()), "{name}: {label} twice");
                            open = false;
                        }
                    }
                }
                None => {
                    assert!(!open, "{name}: no report after a data row, then: {line}");
                    open = line.starts_with(&data_row);
                    rows.push_str(line);
                    rows.push('\n');
                }
            }
        }
        assert!(!open, "{name}: the last data row has no report");
        assert_eq!(banners, 1, "{name}: telemetry banner");
        assert!(
            rows == want,
            "{name}: the rows differ from the --smoke golden"
        );
        let points = want.lines().filter(|l| l.starts_with(&data_row)).count();
        assert_eq!(labels.len(), points, "{name}: one report per load point");
        assert!(
            epochs >= points && traces > 0,
            "{name}: {epochs} epochs, {traces} traces"
        );
    }
}
