//! Rule scoping: which files each rule applies to.
//!
//! Scopes are prefix filters over `/`-normalized workspace-relative
//! paths. [`Config::workspace`] encodes the repo's actual contract
//! surface (see DESIGN.md "Determinism contract and static analysis");
//! the fixture tests build narrower configs over the corpus directory.

/// A path-prefix include/exclude filter.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Prefixes a path must start with (empty string matches all).
    pub include: Vec<String>,
    /// Prefixes that opt a path back out.
    pub exclude: Vec<String>,
}

impl Scope {
    /// Scope from include prefixes only.
    pub fn of(include: &[&str]) -> Self {
        Scope {
            include: include.iter().map(|s| s.to_string()).collect(),
            exclude: Vec::new(),
        }
    }

    /// Adds exclude prefixes.
    pub fn without(mut self, exclude: &[&str]) -> Self {
        self.exclude = exclude.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Whether `path` (workspace-relative, `/`-separated) is in scope.
    pub fn contains(&self, path: &str) -> bool {
        self.include.iter().any(|p| path.starts_with(p.as_str()))
            && !self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Full analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Top-level directories to walk for `.rs` files.
    pub scan_roots: Vec<String>,
    /// Path prefixes never scanned (fixture corpus, vendor, target).
    pub scan_exclude: Vec<String>,
    /// `rng-discipline` scope: entropy sources banned here.
    pub rng_scope: Scope,
    /// `ordered-iteration` scope: hash collections banned here.
    pub ordered_scope: Scope,
    /// `wall-clock-ban` scope: `Instant`/`SystemTime` banned here.
    pub wall_clock_scope: Scope,
    /// `unsafe-ban` scope.
    pub unsafe_scope: Scope,
    /// `telemetry-purity` call-graph scope (library sources only).
    pub purity_scope: Scope,
    /// Exact relative paths of engine hot-path modules
    /// (`panic-discipline` applies only here).
    pub hot_path_files: Vec<String>,
    /// Function names rooting the telemetry-purity reachability walk
    /// (the record hooks and the epoch snapshot).
    pub telemetry_roots: Vec<String>,
    /// Type names whose `&mut self` methods are exempt from
    /// telemetry-purity: the collector mutates *itself* freely — the
    /// rule polices mutation of everything else (the simulated state).
    pub telemetry_types: Vec<String>,
}

/// Every rule id the analyzer knows, sorted. `pragma` is the meta-rule
/// covering malformed or unused suppressions; it cannot be suppressed.
pub const RULES: &[&str] = &[
    "ordered-iteration",
    "panic-discipline",
    "pragma",
    "rng-discipline",
    "telemetry-purity",
    "unsafe-ban",
    "wall-clock-ban",
];

/// Library source directories of every workspace crate.
const CRATE_SRC: &[&str] = &[
    "crates/analysis/src/",
    "crates/bench/src/",
    "crates/core/src/",
    "crates/galois/src/",
    "crates/graph/src/",
    "crates/sim/src/",
    "crates/topo/src/",
    "crates/workload/src/",
    "src/",
];

impl Config {
    /// The repo's production configuration.
    pub fn workspace() -> Self {
        Config {
            scan_roots: vec![
                "crates".to_string(),
                "src".to_string(),
                "tests".to_string(),
                "examples".to_string(),
            ],
            scan_exclude: vec!["crates/analysis/tests/fixtures".to_string()],
            // No entropy anywhere: every RNG in the tree must be
            // constructed from an explicit seed.
            rng_scope: Scope::of(&[""]),
            // Hash iteration order feeds SimResult and route tables
            // through library code; tests may hash freely.
            ordered_scope: Scope::of(CRATE_SRC),
            // Wall clocks only in the bench harness; the one
            // observability site in the engine carries a pragma.
            wall_clock_scope: Scope::of(&[""]).without(&["crates/bench/"]),
            unsafe_scope: Scope::of(&[""]),
            // Bench binaries sit downstream of the engine: no record
            // hook can call into them, but their helper names
            // (`scale`, `Row::new`) alias engine-adjacent code.
            purity_scope: Scope::of(CRATE_SRC).without(&["crates/bench/"]),
            hot_path_files: [
                "alloc",
                "engine",
                "flow",
                "inject",
                "order",
                "packet",
                "phase",
                "queues",
                "router",
                "routing",
                "skip",
                "tables",
                "telemetry",
            ]
            .iter()
            .map(|m| format!("crates/sim/src/{m}.rs"))
            .collect(),
            telemetry_roots: vec![
                "trace_admit".to_string(),
                "trace_route".to_string(),
                "trace_grant".to_string(),
                "trace_eject".to_string(),
                "trace_retransmit".to_string(),
                "prof_lap".to_string(),
                "telemetry_snapshot_epoch".to_string(),
            ],
            telemetry_types: vec!["TelemetryCtl".to_string()],
        }
    }
}
