//! `repro <name> [flags]`: one subcommand per figure, table, sweep and
//! walkthrough of the PolarFly reproduction (`src/repro/<name>.rs`);
//! `repro all` runs the fast ones in sequence.
//!
//! Default scale is reduced (~100–300 routers); `--full` selects the
//! paper's Table V scale where a subcommand has one. Bad input — an
//! unknown name, a flag the subcommand does not read, a malformed value —
//! prints the usage and exits 2; a run that fails its own checks exits 1.
//!
//! ```sh
//! cargo run --release -p pf-bench -- fig12_bisection
//! cargo run --release -p pf-bench -- resilience_sweep --smoke
//! ```

#![allow(clippy::print_stdout)] // every subcommand prints its artifact

use std::process::ExitCode;
use InAll::{List, Run, Skip};
use Operand::{Number, OneOf};

/// The options of one invocation. A subcommand reads only those its
/// [`COMMANDS`] entry lists; the parser rejects the rest.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// `--full`: the paper's scale.
    pub full: bool,
    /// `--smoke`: a sweep's CI-sized run.
    pub smoke: bool,
    /// `--telemetry-interval N`: an engine epoch record every N cycles
    /// (0 = off).
    pub telemetry_interval: u32,
    /// `--trace-sample N`: trace every N-th packet (0 = off).
    pub trace_sample: u32,
    /// Positional operands, each already checked against its slot.
    pub operands: Vec<String>,
}

impl Args {
    /// The `i`-th operand of a [`Operand::Number`] slot, if given.
    pub fn number(&self, i: usize) -> Option<u64> {
        self.operands.get(i).and_then(|s| s.parse().ok())
    }

    /// `cfg` with the engine telemetry `--telemetry-interval` and
    /// `--trace-sample` ask for, announced on stdout when either is on.
    /// Both default to 0 (off), which leaves `cfg` and the output as
    /// they were.
    pub fn telemetry(&self, cfg: pf_sim::SimConfig) -> pf_sim::SimConfig {
        let (interval, sample) = (self.telemetry_interval, self.trace_sample);
        if interval > 0 || sample > 0 {
            println!("(telemetry: epoch interval {interval}, trace sample 1/{sample})");
        }
        cfg.telemetry_interval(interval).trace_sample(sample)
    }
}

/// One optional positional slot of a subcommand.
enum Operand {
    /// An unsigned integer; the name is its usage placeholder.
    Number(&'static str),
    /// One word of a fixed set.
    OneOf(&'static [&'static str]),
}

/// A subcommand: its body, the flags it reads (a value flag is spelled
/// with its ` N` placeholder), its optional positionals, in order, and
/// what `repro all` does with it.
struct Cmd {
    name: &'static str,
    run: fn(&Args) -> Result<(), String>,
    flags: &'static [&'static str],
    operands: &'static [Operand],
    in_all: InAll,
}

/// `repro all` runs the fast experiments and lists the simulation
/// figures (minutes to hours) with their commands.
#[derive(PartialEq)]
enum InAll {
    Run,
    List,
    Skip,
}

const NONE: &[&str] = &[];
const FULL: &[&str] = &["--full"];
const FAULT_SWEEP: &[&str] = &[
    "--full",
    "--smoke",
    "--telemetry-interval N",
    "--trace-sample N",
];
const COLLECTIVE: &[&str] = &["--smoke", "--telemetry-interval N", "--trace-sample N"];

/// Declares the module of each subcommand and [`COMMANDS`], in usage order
/// (which is also the order `repro all` runs and lists them in).
macro_rules! subcommands {
    ($($in_all:ident $name:ident $flags:expr, $operands:expr;)*) => {
        mod repro { $(pub mod $name;)* }
        const COMMANDS: &[Cmd] = &[$(Cmd {
            name: stringify!($name),
            run: repro::$name::run,
            flags: $flags,
            operands: $operands,
            in_all: $in_all,
        },)*];
    };
}

subcommands! {
    Skip all                    FULL, &[];
    Run  fig01_design_space     NONE, &[];
    Run  fig02_moore_bound      NONE, &[];
    Run  table01_feasibility    NONE, &[];
    Run  table02_triangles      FULL, &[];
    Run  table03_intermediate   NONE, &[];
    Run  table04_expansion      FULL, &[];
    Run  table05_configs        FULL, &[];
    Run  table06_path_diversity FULL, &[];
    Run  fig13_layout           NONE, &[];
    Run  fig15_cost             NONE, &[];
    List fig08_comparison       FULL, &[OneOf(&repro::fig08_comparison::PANELS)];
    List fig09_perm_hops        FULL, &[];
    List fig10_size_sweep       FULL, &[];
    List fig11_expansion        FULL, &[];
    List fig12_bisection        FULL, &[];
    List fig14_resilience       FULL, &[];
    List ablation_study         NONE, &[];
    Skip resilience_sweep       FAULT_SWEEP, &[];
    Skip transient_sweep        FAULT_SWEEP, &[];
    Skip collective_sweep       COLLECTIVE, &[];
    Skip quickstart             NONE, &[];
    Skip design_explorer        NONE, &[Number("RADIX"), Number("TARGET")];
}

fn find(name: &str) -> Option<&'static Cmd> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Splits `argv` (without the program name) into a subcommand and its
/// checked options; `Err` says what is wrong with the input.
fn parse(argv: &[String]) -> Result<(&'static Cmd, Args), String> {
    let (name, rest) = argv.split_first().ok_or("no subcommand given")?;
    let cmd = find(name).ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut args = Args::default();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let arg = arg.as_str();
        let ok = if arg.starts_with("--") {
            cmd.flags
                .iter()
                .any(|f| f.strip_suffix(" N").unwrap_or(f) == arg)
        } else {
            match cmd.operands.get(args.operands.len()) {
                None => false,
                Some(Number(_)) => arg.parse::<u64>().is_ok(),
                Some(OneOf(words)) => words.contains(&arg),
            }
        };
        if !ok {
            return Err(format!("`{name}` does not take `{arg}`"));
        }
        match arg {
            "--full" => args.full = true,
            "--smoke" => args.smoke = true,
            "--telemetry-interval" => args.telemetry_interval = value(arg, rest.next())?,
            "--trace-sample" => args.trace_sample = value(arg, rest.next())?,
            _ => args.operands.push(arg.to_owned()),
        }
    }
    Ok((cmd, args))
}

/// The numeric value following `flag`.
fn value(flag: &str, v: Option<&String>) -> Result<u32, String> {
    let v = v.ok_or_else(|| format!("`{flag}` needs a value"))?;
    v.parse()
        .map_err(|_| format!("`{flag}` takes a number, not `{v}`"))
}

fn usage() -> String {
    let mut s = String::from("usage: repro <name> [flags]\n");
    for c in COMMANDS {
        let mut line = format!("  {:<24}", c.name);
        for f in c.flags {
            line += &format!(" [{f}]");
        }
        for o in c.operands {
            match o {
                Number(n) => line += &format!(" [{n}]"),
                OneOf(words) => line += &format!(" [{}]", words.join("|")),
            }
        }
        s += line.trim_end();
        s.push('\n');
    }
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprint!("repro: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {}: {e}", cmd.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&argv).map(|(_, args)| args)
    }

    #[test]
    fn every_former_binary_and_example_is_one_subcommand() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn each_subcommand_gets_the_flags_it_reads() {
        let line = "collective_sweep --smoke --telemetry-interval 256 --trace-sample 64";
        let a = parse_str(line).unwrap();
        assert!(a.smoke && !a.full);
        assert_eq!((a.telemetry_interval, a.trace_sample), (256, 64));
        assert!(parse_str("resilience_sweep --full --smoke").unwrap().full);
        for sweep in ["resilience_sweep", "transient_sweep"] {
            let line = format!("{sweep} --full --telemetry-interval 128 --trace-sample 8");
            let a = parse_str(&line).unwrap();
            assert!(a.full && !a.smoke);
            assert_eq!((a.telemetry_interval, a.trace_sample), (128, 8));
            let a = parse_str(&format!("{sweep} --smoke --trace-sample 4")).unwrap();
            assert_eq!(
                (a.smoke, a.telemetry_interval, a.trace_sample),
                (true, 0, 4)
            );
        }
        assert_eq!(
            parse_str("fig08_comparison tornado").unwrap().operands,
            ["tornado"]
        );
        let a = parse_str("design_explorer 64 5000").unwrap();
        assert_eq!((a.number(0), a.number(1)), (Some(64), Some(5000)));
        assert_eq!(parse_str("quickstart").unwrap(), Args::default());
    }

    #[test]
    fn bad_input_is_an_error() {
        for line in [
            "",                                      // no subcommand
            "fig99_missing",                         // unknown subcommand
            "--full",                                // a flag is not a subcommand
            "collective_sweep --smokey",             // unknown flag
            "fig01_design_space --smoke",            // a flag it does not read
            "collective_sweep --full",               // ditto
            "fig09_perm_hops --trace-sample 4",      // ditto
            "transient_sweep --trace-sample",        // missing value
            "collective_sweep --trace-sample x",     // non-numeric value
            "collective_sweep --trace-sample -1",    // ditto
            "collective_sweep --telemetry-interval", // missing value
            "fig08_comparison uniform",              // unknown panel
            "fig08_comparison tornado tornado",      // one operand too many
            "design_explorer forty",                 // non-numeric operand
            "design_explorer 48 2000 7",             // one operand too many
            "fig12_bisection extra",                 // it takes no operand
        ] {
            assert!(parse_str(line).is_err(), "`{line}` parsed");
        }
    }

    #[test]
    fn usage_lists_every_subcommand_and_its_flags() {
        let u = usage();
        assert!(COMMANDS.iter().all(|c| u.contains(c.name)));
        assert!(u.contains("[--smoke] [--telemetry-interval N] [--trace-sample N]\n"));
        assert!(u.contains("[--full] [--smoke] [--telemetry-interval N] [--trace-sample N]\n"));
        assert!(u.contains("[uniform-min|uniform-adaptive|randperm|tornado]\n"));
    }
}
