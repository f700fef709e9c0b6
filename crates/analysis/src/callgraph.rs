//! Name-resolved call graph and reachability from a rule's roots.
//!
//! Without type information, a call `foo(..)` or `x.foo(..)` resolves
//! to *every* workspace function named `foo` — a sound over-
//! approximation for reachability (it can only add edges, never miss a
//! workspace callee), with one documented carve-out: method calls whose
//! name shadows a ubiquitous std collection/option mutator (`push`,
//! `insert`, `take`, ...) are not resolved, because in practice they
//! are `Vec`/`BTreeMap`/`Option` operations on local state and
//! resolving them by bare name would wire the graph to
//! unrelated container types. The shadow list is in
//! [`STD_SHADOW_METHODS`]; everything on it is mutation-flavored, so a
//! genuine engine mutation hiding behind such a name must come through
//! a `&mut self` method *reachable under its caller's real name*, which
//! the rule still sees.

use crate::items::{is_keyword, FnItem};
use crate::lexer::{Lexed, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Method names never resolved to workspace functions (std shadows).
pub const STD_SHADOW_METHODS: &[&str] = &[
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "extend",
    "append",
    "drain",
    "truncate",
    "retain",
    "resize",
    "fill",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "dedup",
    "take",
    "replace",
    "get_or_insert_with",
    "entry",
    "swap",
    "reverse",
    "rotate_left",
    "rotate_right",
    "find",
    "position",
    "min",
    "max",
    "clamp",
];

/// One lexical call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (last path segment / method name).
    pub name: String,
    /// 1-indexed source line.
    pub line: u32,
    /// The call was `receiver.name(..)` rather than `name(..)`.
    pub is_method: bool,
    /// For `Type::name(..)` calls, the type qualifier — resolved
    /// against impl-qualified names first, which keeps ubiquitous
    /// constructor names (`new`, `build`, `default`) from aliasing
    /// every type in the workspace.
    pub qual: Option<String>,
}

/// Extracts the call sites of a function body token range.
pub fn calls_in_body(lx: &Lexed, body: (usize, usize)) -> Vec<CallSite> {
    let toks = &lx.toks;
    let mut out = Vec::new();
    let (lo, hi) = body;
    for i in lo..hi.min(toks.len()) {
        let TokKind::Ident(name) = &toks[i].kind else {
            continue;
        };
        if is_keyword(name) {
            continue;
        }
        match toks.get(i + 1).map(|t| &t.kind) {
            // Macro invocation: `name!(..)` is not a function call.
            Some(TokKind::Punct('!')) => {}
            Some(TokKind::Punct('(')) => {
                // `fn name(` is a nested definition, not a call.
                let after_fn =
                    i >= 1 && matches!(&toks[i - 1].kind, TokKind::Ident(k) if k == "fn");
                if after_fn {
                    continue;
                }
                let is_method = i >= 1 && matches!(toks[i - 1].kind, TokKind::Punct('.'));
                // `Type::name(` — capture an uppercase-initial path
                // qualifier (modules are lowercase by convention).
                let mut qual = None;
                if !is_method
                    && i >= 3
                    && matches!(toks[i - 1].kind, TokKind::Punct(':'))
                    && matches!(toks[i - 2].kind, TokKind::Punct(':'))
                {
                    if let TokKind::Ident(q) = &toks[i - 3].kind {
                        if q.chars().next().is_some_and(char::is_uppercase) {
                            qual = Some(q.clone());
                        }
                    }
                }
                out.push(CallSite {
                    name: name.clone(),
                    line: toks[i].line,
                    is_method,
                    qual,
                });
            }
            _ => {}
        }
    }
    out
}

/// A function key: `(file, index-within-file)`.
pub type FnKey = (String, usize);

/// The workspace call graph over all extracted functions.
pub struct CallGraph {
    /// name → every function key defining that name.
    by_name: BTreeMap<String, Vec<FnKey>>,
    /// impl-qualified name (`RouteTables::build`) → defining keys.
    by_qual: BTreeMap<String, Vec<FnKey>>,
    /// function key → call sites in its body.
    calls: BTreeMap<FnKey, Vec<CallSite>>,
    /// function key → (qualified name, line, flagged `&mut self`).
    ///
    /// `fn next(&mut self)` with no other parameters is exempt from the
    /// `&mut self` flag: that signature is the Iterator protocol, whose
    /// mutable state is owned by the probing caller, not the shared
    /// engine (the body is still scanned for draws/atomics).
    pub info: BTreeMap<FnKey, (String, u32, bool)>,
}

impl CallGraph {
    /// Builds the graph from every file's lexed tokens and items.
    pub fn build(lexed: &BTreeMap<String, Lexed>, files: &BTreeMap<String, Vec<FnItem>>) -> Self {
        let mut by_name: BTreeMap<String, Vec<FnKey>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<FnKey>> = BTreeMap::new();
        let mut calls = BTreeMap::new();
        let mut info = BTreeMap::new();
        for (file, fns) in files {
            let lx = &lexed[file];
            for (idx, f) in fns.iter().enumerate() {
                let key = (file.clone(), idx);
                by_name.entry(f.name.clone()).or_default().push(key.clone());
                by_qual.entry(f.qual.clone()).or_default().push(key.clone());
                let iterator_protocol = f.name == "next" && f.self_only;
                info.insert(
                    key.clone(),
                    (f.qual.clone(), f.line, f.has_mut_self && !iterator_protocol),
                );
                if let Some(body) = f.body {
                    calls.insert(key, calls_in_body(lx, body));
                }
            }
        }
        CallGraph {
            by_name,
            by_qual,
            calls,
            info,
        }
    }

    /// Call sites of `key`'s body (empty for bodyless declarations).
    pub fn calls_of(&self, key: &FnKey) -> &[CallSite] {
        self.calls.get(key).map_or(&[], Vec::as_slice)
    }

    /// Every function defining `name`.
    pub fn defs_of(&self, name: &str) -> &[FnKey] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// BFS from the named roots; returns each reachable function keyed
    /// to the qualified-name chain that first reached it (for
    /// diagnostics). Deterministic: BTreeMap iteration order.
    pub fn reachable_from(&self, roots: &[String]) -> BTreeMap<FnKey, Vec<String>> {
        let mut seen: BTreeMap<FnKey, Vec<String>> = BTreeMap::new();
        let mut queue: Vec<FnKey> = Vec::new();
        for root in roots {
            for key in self.defs_of(root) {
                if !seen.contains_key(key) {
                    let qual = self.info[key].0.clone();
                    seen.insert(key.clone(), vec![qual]);
                    queue.push(key.clone());
                }
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let key = queue[head].clone();
            head += 1;
            let chain = seen[&key].clone();
            let mut targets: BTreeSet<FnKey> = BTreeSet::new();
            for call in self.calls_of(&key) {
                if call.is_method && STD_SHADOW_METHODS.contains(&call.name.as_str()) {
                    continue;
                }
                match &call.qual {
                    // A concrete type qualifier resolves exactly: either
                    // the workspace defines `Type::name`, or the call
                    // targets std/vendor code outside the graph. (`Self`
                    // falls back to name resolution — the impl type is
                    // not tracked through the alias.)
                    Some(q) if q != "Self" => {
                        let qualified = format!("{q}::{}", call.name);
                        if let Some(keys) = self.by_qual.get(&qualified) {
                            targets.extend(keys.iter().cloned());
                        }
                    }
                    _ => targets.extend(self.defs_of(&call.name).iter().cloned()),
                }
            }
            for nk in targets {
                if !seen.contains_key(&nk) {
                    let mut c = chain.clone();
                    c.push(self.info[&nk].0.clone());
                    seen.insert(nk.clone(), c.clone());
                    queue.push(nk);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn graph_of(src: &str) -> CallGraph {
        let lx = lex(src);
        let fns = extract(&lx).fns;
        let mut lexed = BTreeMap::new();
        lexed.insert("t.rs".to_string(), lx);
        let mut files = BTreeMap::new();
        files.insert("t.rs".to_string(), fns);
        CallGraph::build(&lexed, &files)
    }

    #[test]
    fn reaches_through_named_calls() {
        let g = graph_of(
            "fn root() { mid(); }
             fn mid() { leaf(1); }
             fn leaf(x: u32) {}
             fn unrelated() {}",
        );
        let r = g.reachable_from(&["root".to_string()]);
        let names: Vec<&str> = r.values().map(|c| c.last().unwrap().as_str()).collect();
        assert!(names.contains(&"leaf"));
        assert!(!names.contains(&"unrelated"));
    }

    #[test]
    fn shadowed_method_calls_do_not_resolve() {
        let g = graph_of(
            "fn root(v: &mut Vec<u32>) { v.push(1); helper(); }
             fn helper() {}
             impl Rings { fn push(&mut self, x: u32) {} }",
        );
        let r = g.reachable_from(&["root".to_string()]);
        let quals: Vec<&str> = r.keys().map(|k| g.info[k].0.as_str()).collect();
        assert!(quals.contains(&"helper"));
        assert!(!quals.contains(&"Rings::push"));
    }

    #[test]
    fn macro_names_are_not_calls() {
        let g = graph_of(
            "fn root() { net_view!(self); real(); }
             fn net_view() {}
             fn real() {}",
        );
        let r = g.reachable_from(&["root".to_string()]);
        let quals: Vec<&str> = r.keys().map(|k| g.info[k].0.as_str()).collect();
        assert!(quals.contains(&"real"));
        assert!(!quals.contains(&"net_view"));
    }
}
