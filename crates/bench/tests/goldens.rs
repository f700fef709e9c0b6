//! Every file in `crates/bench/golden/` is the exact stdout of one `repro`
//! run: `<name>.txt` of `repro <name>` and `<name>_smoke.txt` of
//! `repro <name> --smoke`. All runs start at once, from the workspace
//! root, so fig13's DOT/JSON files land in the ignored `target/`.
//!
//! No golden depends on the thread count. The three sweep smokes are the
//! only runs that reach the static-failure and transient inputs of the
//! engine's VC class budget rule (DESIGN.md, "VC class budget").

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
