//! The determinism-contract rules.
//!
//! Each rule is a named, testable check producing [`Violation`]s with
//! exact file:line anchors. Token-scan rules (`rng-discipline`,
//! `ordered-iteration`, `wall-clock-ban`, `unsafe-ban`,
//! `panic-discipline`) work per file under their configured scope;
//! `telemetry-purity` walks the name-resolved call graph from the
//! record hooks and polices everything reachable.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::items::FileItems;
use crate::lexer::{Lexed, TokKind};
use crate::report::Violation;

/// Entropy-source identifiers banned by `rng-discipline`: every RNG
/// must be traceable to an explicit seed (`seed_from_u64`/`from_seed`).
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "EntropyRng",
    "getrandom",
];

/// Hash-order collections banned by `ordered-iteration` in modules
/// feeding `SimResult` or route tables.
const HASH_IDENTS: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Wall-clock identifiers banned by `wall-clock-ban`.
const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

/// Panicking calls/macros banned by `panic-discipline` in hot-path
/// modules. Asserts are *allowed* (invariant checks), so anything
/// inside an assert-family macro invocation is exempt.
const PANIC_CALLS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// RNG-drawing method names a telemetry hook must not reach.
const RNG_DRAW_METHODS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "sample_iter",
    "choose",
    "choose_multiple",
    "shuffle",
    "next_u32",
    "next_u64",
    "fill_bytes",
];

/// Token index ranges covered by assert-family macro invocations.
fn assert_masked_ranges(lx: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lx.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_assert = matches!(&toks[i].kind, TokKind::Ident(s) if ASSERT_MACROS.contains(&s.as_str()))
            && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('!')));
        if !is_assert {
            i += 1;
            continue;
        }
        let Some(open_at) = toks.get(i + 2) else {
            break;
        };
        let (open, close) = match open_at.kind {
            TokKind::Punct('(') => ('(', ')'),
            TokKind::Punct('[') => ('[', ']'),
            TokKind::Punct('{') => ('{', '}'),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct(c) if *c == open => depth += 1,
                TokKind::Punct(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        out.push((i, j + 1));
        i = j + 1;
    }
    out
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| i >= lo && i < hi)
}

/// Runs every token-scan rule on one file.
pub fn scan_file(
    path: &str,
    lx: &Lexed,
    items: &FileItems,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    let toks = &lx.toks;
    let rng = cfg.rng_scope.contains(path);
    let ordered = cfg.ordered_scope.contains(path);
    let clock = cfg.wall_clock_scope.contains(path);
    let unsafe_ = cfg.unsafe_scope.contains(path);
    let hot = cfg.hot_path_files.iter().any(|f| f == path);
    let masked = if hot {
        assert_masked_ranges(lx)
    } else {
        Vec::new()
    };
    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let name = name.as_str();
        if unsafe_ && name == "unsafe" {
            out.push(Violation {
                rule: "unsafe-ban",
                file: path.to_string(),
                line: t.line,
                message: "`unsafe` is banned workspace-wide (the engine's parity guarantees \
                          are argued over safe code only)"
                    .to_string(),
                suppressed: None,
            });
        }
        if rng && ENTROPY_IDENTS.contains(&name) {
            out.push(Violation {
                rule: "rng-discipline",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "entropy source `{name}`: every RNG must be constructed from an \
                     explicit seed (`seed_from_u64`/`from_seed`) so runs replay bit-for-bit"
                ),
                suppressed: None,
            });
        }
        if ordered && HASH_IDENTS.contains(&name) && !items.in_test_mod(t.line) {
            out.push(Violation {
                rule: "ordered-iteration",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` in a result-feeding module: hash iteration order is \
                     nondeterministic — use `BTreeMap`/`BTreeSet` or sort explicitly"
                ),
                suppressed: None,
            });
        }
        if clock && CLOCK_IDENTS.contains(&name) {
            out.push(Violation {
                rule: "wall-clock-ban",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "wall-clock `{name}` outside the bench harness: simulation results \
                     must never depend on host time"
                ),
                suppressed: None,
            });
        }
        if hot && !items.in_test_mod(t.line) && !in_ranges(&masked, i) {
            let next_is = |c: char| matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);
            if PANIC_CALLS.contains(&name) && next_is('(') {
                out.push(Violation {
                    rule: "panic-discipline",
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{name}` in an engine hot-path module: propagate the error or \
                         state the invariant with an assert"
                    ),
                    suppressed: None,
                });
            } else if PANIC_MACROS.contains(&name) && next_is('!') {
                out.push(Violation {
                    rule: "panic-discipline",
                    file: path.to_string(),
                    line: t.line,
                    message: format!("`{name}!` in an engine hot-path module"),
                    suppressed: None,
                });
            }
        }
    }
}

/// Runs `telemetry-purity` over the call graph: everything reachable
/// from the telemetry record hooks must observe, never perturb — no
/// `&mut self` receiver outside the collector types themselves, and no
/// RNG draw anywhere. A hook that mutated engine state or advanced an
/// RNG stream would make results diverge with telemetry on vs off,
/// breaking the zero-cost-when-off contract the parity tests pin.
pub fn check_telemetry_purity(
    graph: &CallGraph,
    lexed: &std::collections::BTreeMap<String, Lexed>,
    bodies: &std::collections::BTreeMap<(String, usize), (usize, usize)>,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    let reachable = graph.reachable_from(&cfg.telemetry_roots);
    for (key, chain) in &reachable {
        let (qual, line, has_mut_self) = &graph.info[key];
        let via = chain.join(" → ");
        let collector_type = qual
            .split("::")
            .next()
            .is_some_and(|t| cfg.telemetry_types.iter().any(|c| c == t));
        if *has_mut_self && !collector_type {
            out.push(Violation {
                rule: "telemetry-purity",
                file: key.0.clone(),
                line: *line,
                message: format!(
                    "`{qual}` takes `&mut self` but is reachable from a telemetry record \
                     hook (via {via}): telemetry must observe simulator state, never \
                     mutate it — results are pinned bit-identical with telemetry on/off"
                ),
                suppressed: None,
            });
        }
        let Some(body) = bodies.get(key) else {
            continue;
        };
        let lx = &lexed[&key.0];
        for i in body.0..body.1.min(lx.toks.len()) {
            let TokKind::Ident(name) = &lx.toks[i].kind else {
                continue;
            };
            let name_s = name.as_str();
            let is_call = matches!(
                lx.toks.get(i + 1).map(|t| &t.kind),
                Some(TokKind::Punct('('))
            );
            let is_method = i >= 1 && matches!(lx.toks[i - 1].kind, TokKind::Punct('.'));
            if is_call && is_method && RNG_DRAW_METHODS.contains(&name_s) {
                out.push(Violation {
                    rule: "telemetry-purity",
                    file: key.0.clone(),
                    line: lx.toks[i].line,
                    message: format!(
                        "`{qual}` draws RNG (`{name_s}`) but is reachable from a telemetry \
                         record hook (via {via}): recording must not advance any RNG stream \
                         the simulation reads"
                    ),
                    suppressed: None,
                });
            }
        }
    }
}
