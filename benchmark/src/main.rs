//! Worker of the repo benchmark: one process runs **one rep of one
//! workload** and prints one JSON line. `benchmark/run` starts these
//! processes (pinned, in rounds), aggregates them and checks them; see
//! `benchmark/README.md` for the measurement design.
//!
//! Both binaries of the package are this file: `pfbench` (timed) and
//! `pfbench-traced` (package feature `trace`: span recorder on,
//! `pf-sim/phase-profile` compiled in).
//!
//! Every layer is driven from outside through public functions only.
//! All times are host time; simulated statistics are exact-repeat
//! counts used as checks and per-layer numbers.

mod span;
mod workloads;

use span::Recorder;
use std::process::ExitCode;
use std::time::Instant;

/// One correctness check of a rep.
struct Check {
    name: &'static str,
    ok: bool,
    /// The observed value(s).
    detail: String,
}

fn check(name: &'static str, ok: bool, detail: impl std::fmt::Display) -> Check {
    Check {
        name,
        ok,
        detail: detail.to_string(),
    }
}

/// What one rep produced.
struct Rep {
    /// Process start → ready for the timed call.
    setup_s: f64,
    /// The timed region.
    run_s: f64,
    /// FNV-1a digest of the rep's results (must match across rounds).
    digest: u64,
    checks: Vec<Check>,
    /// Routers of the simulated network (0 when no engine runs).
    routers: usize,
    /// Per-layer metrics (traced build only; empty in the timed build).
    layers: Vec<(&'static str, f64)>,
}

/// FNV-1a over the integer fields and float bit patterns of a result.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn int(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.int(v.to_bits());
    }
}

/// Peak resident set (`VmHWM`, kB) of this process so far.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Args {
    workload: String,
    seed: u64,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        trace_out,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the rep named on the command line and prints its JSON line.
/// Exit code 0 means the rep ran; whether its checks passed is in the
/// line (the runner counts failed operations).
fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let traced = cfg!(feature = "trace");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut rec = Recorder::new(origin);
    let Some(rep) = workloads::run(&args.workload, args.seed, &mut rec) else {
        eprintln!("pfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };

    if let Some(path) = &args.trace_out {
        if let Err(e) = rec.write_jsonl(path, &args.workload) {
            eprintln!("pfbench: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let checks: Vec<String> = rep
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_string(c.name),
                c.ok,
                json_string(&c.detail)
            )
        })
        .collect();
    let layers: Vec<String> = rep
        .layers
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"traced\":{traced},\"threads\":{threads},\
         \"setup_s\":{},\"run_s\":{},\"peak_rss_kb\":{},\"routers\":{},\"digest\":\"{:016x}\",\
         \"checks\":[{}],\"layers\":{{{}}}}}",
        json_string(&args.workload),
        args.seed,
        rep.setup_s,
        rep.run_s,
        peak_rss_kb(),
        rep.routers,
        rep.digest,
        checks.join(","),
        layers.join(",")
    );
    ExitCode::SUCCESS
}
