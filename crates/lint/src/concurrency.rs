//! Pass 2: the three interprocedural concurrency rules, run over the
//! whole-workspace call graph from [`crate::callgraph`].
//!
//! - `reactor-blocking-call`: nothing reachable from a `lint:reactor-loop`
//!   region may hit a blocking leaf (lock/recv/wait/sleep/blocking
//!   I/O/fsync/bounded-channel send). Findings carry the full call chain from the region's
//!   call site down to the leaf.
//! - `lock-order-cycle`: static-keyed guard regions that acquire another
//!   static-keyed lock (directly or via calls) form a lock-order graph;
//!   any edge on a cycle is a deadlock shape and is rejected.
//! - `guard-across-call`: a guard held across a call into a function
//!   that itself (transitively) blocks or sends on a channel — the
//!   interprocedural closure of `rules::rule_guard_held_channel`.
//!
//! All three anchor their finding at a line in the *entry* file, so an
//! inline `lint:allow(<rule>): reason` at the call site suppresses it,
//! and the baseline fingerprint stays chain-agnostic.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::callgraph::{Blocking, CallGraph, FileSummary, FnId};
use crate::findings::{rule_severity, Finding};

/// Run every interprocedural rule over the summarized workspace.
pub fn check_workspace(files: &[FileSummary], out: &mut Vec<Finding>) {
    let graph = CallGraph::build(files);
    let cx = Cx::new(&graph);
    rule_reactor_blocking(&cx, out);
    rule_lock_order_cycle(&cx, out);
    rule_guard_across_call(&cx, out);
}

/// Flattened graph facts shared by the rules: deterministic fn indices,
/// adjacency, and transitive blocking/send/lock-acquire closures.
struct Cx<'g> {
    graph: &'g CallGraph<'g>,
    /// Flat index → (file, fn); iteration order is file order, fn order.
    ids: Vec<FnId>,
    index_of: HashMap<FnId, usize>,
    /// Resolved call targets per fn, sorted and deduped.
    edges: Vec<Vec<usize>>,
    /// First confirmed blocking leaf per fn (typed keys filtered against
    /// the workspace RwLock and SyncSender field sets).
    direct_block: Vec<Option<Blocking>>,
    /// First direct channel-send line per fn.
    direct_send: Vec<Option<u32>>,
    can_block: Vec<bool>,
    can_send: Vec<bool>,
    /// Static lock keys each fn may acquire, transitively.
    trans_locks: Vec<BTreeSet<String>>,
}

impl<'g> Cx<'g> {
    fn new(graph: &'g CallGraph<'g>) -> Self {
        let mut ids = Vec::new();
        for (fi, file) in graph.files.iter().enumerate() {
            for gi in 0..file.fns.len() {
                ids.push((fi, gi));
            }
        }
        let mut index_of = HashMap::new();
        for (n, &id) in ids.iter().enumerate() {
            index_of.insert(id, n);
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        let mut direct_block: Vec<Option<Blocking>> = vec![None; ids.len()];
        let mut direct_send: Vec<Option<u32>> = vec![None; ids.len()];
        let mut trans_locks: Vec<BTreeSet<String>> = vec![BTreeSet::new(); ids.len()];
        for (n, &id) in ids.iter().enumerate() {
            let Some(file) = graph.file(id) else { continue };
            let Some(f) = graph.fn_summary(id) else {
                continue;
            };
            for call in &f.calls {
                for target in graph.resolve(
                    call,
                    file.crate_name.as_deref(),
                    f.owner.as_deref(),
                    file.unit.as_deref(),
                ) {
                    if let Some(&t) = index_of.get(&target) {
                        edges[n].push(t);
                    }
                }
            }
            edges[n].sort_unstable();
            edges[n].dedup();
            direct_block[n] = f
                .blocking
                .iter()
                .filter(|b| graph.is_confirmed(b))
                .min_by_key(|b| (b.line, b.tok))
                .cloned();
            direct_send[n] = f.send_lines.iter().copied().min();
            for a in &f.acquires {
                if !a.rwlock_maybe || graph.is_rwlock_key(&a.key) {
                    trans_locks[n].insert(a.key.clone());
                }
            }
        }
        // Fixpoint: propagate blocking / send / acquired-lock facts
        // backward over call edges until nothing changes.
        let mut can_block: Vec<bool> = direct_block.iter().map(Option::is_some).collect();
        let mut can_send: Vec<bool> = direct_send.iter().map(Option::is_some).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for n in 0..ids.len() {
                let mut new_keys: Vec<String> = Vec::new();
                for &t in &edges[n] {
                    if t == n {
                        continue;
                    }
                    if can_block[t] && !can_block[n] {
                        can_block[n] = true;
                        changed = true;
                    }
                    if can_send[t] && !can_send[n] {
                        can_send[n] = true;
                        changed = true;
                    }
                    for key in &trans_locks[t] {
                        if !trans_locks[n].contains(key) {
                            new_keys.push(key.clone());
                        }
                    }
                }
                if !new_keys.is_empty() {
                    changed = true;
                    for key in new_keys {
                        trans_locks[n].insert(key);
                    }
                }
            }
        }
        Cx {
            graph,
            ids,
            index_of,
            edges,
            direct_block,
            direct_send,
            can_block,
            can_send,
            trans_locks,
        }
    }

    /// Deterministic BFS from `starts` to the first fn satisfying `pred`;
    /// returns the flat-index path (starts included). Shortest chain wins;
    /// ties break on lowest flat index, which is file/def order.
    fn bfs_chain(&self, starts: &[usize], pred: impl Fn(usize) -> bool) -> Option<Vec<usize>> {
        let mut visited = vec![false; self.ids.len()];
        let mut parents: Vec<Option<usize>> = vec![None; self.ids.len()];
        let mut queue = VecDeque::new();
        let mut sorted = starts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &s in &sorted {
            if let Some(slot) = visited.get_mut(s) {
                if !*slot {
                    *slot = true;
                    queue.push_back(s);
                }
            }
        }
        while let Some(n) = queue.pop_front() {
            if pred(n) {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(&Some(p)) = parents.get(cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(targets) = self.edges.get(n) {
                for &t in targets {
                    if let Some(slot) = visited.get_mut(t) {
                        if !*slot {
                            *slot = true;
                            if let Some(p) = parents.get_mut(t) {
                                *p = Some(n);
                            }
                            queue.push_back(t);
                        }
                    }
                }
            }
        }
        None
    }

    /// `name (file:line)` for one fn hop.
    fn hop(&self, n: usize) -> String {
        let Some(&id) = self.ids.get(n) else {
            return "?".to_string();
        };
        let file = self.graph.file(id).map_or("?", |f| f.path.as_str());
        match self.graph.fn_summary(id) {
            Some(f) => format!("{} ({}:{})", f.name, file, f.line),
            None => "?".to_string(),
        }
    }

    /// Render a BFS path as chain hops, appending the leaf described by
    /// `leaf_of(last)` with its own file/line.
    fn chain_with_leaf(
        &self,
        path: &[usize],
        leaf_of: impl Fn(usize) -> Option<(String, u32)>,
    ) -> (Vec<String>, String) {
        let mut chain: Vec<String> = path.iter().map(|&n| self.hop(n)).collect();
        let mut leaf_desc = String::from("a blocking operation");
        if let Some(&last) = path.last() {
            if let Some((what, line)) = leaf_of(last) {
                let file = self
                    .ids
                    .get(last)
                    .and_then(|&id| self.graph.file(id))
                    .map_or("?", |f| f.path.as_str());
                leaf_desc = format!("{what} ({file}:{line})");
                chain.push(leaf_desc.clone());
            }
        }
        (chain, leaf_desc)
    }

    fn resolve_call(
        &self,
        fi: usize,
        from: &crate::callgraph::FnSummary,
        call: &crate::callgraph::Call,
    ) -> Vec<usize> {
        let Some(file) = self.graph.files.get(fi) else {
            return Vec::new();
        };
        self.graph
            .resolve(
                call,
                file.crate_name.as_deref(),
                from.owner.as_deref(),
                file.unit.as_deref(),
            )
            .iter()
            .filter_map(|id| self.index_of.get(id).copied())
            .collect()
    }
}

fn emit(
    out: &mut Vec<Finding>,
    file: &FileSummary,
    rule: &'static str,
    line: u32,
    message: String,
    call_chain: Vec<String>,
) {
    if file.allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        severity: rule_severity(rule),
        path: file.path.clone(),
        line,
        message,
        snippet: file.snippet(line),
        call_chain,
    });
}

/// `reactor-blocking-call`: direct blocking ops and calls that reach a
/// blocking leaf, inside any `lint:reactor-loop` region.
fn rule_reactor_blocking(cx: &Cx<'_>, out: &mut Vec<Finding>) {
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (fi, file) in cx.graph.files.iter().enumerate() {
        for region in &file.reactor_regions {
            let in_region = |line: u32| line >= region.first_line && line <= region.last_line;
            for f in &file.fns {
                // Direct blocking leaves inside the region.
                for b in &f.blocking {
                    if !in_region(b.line) {
                        continue;
                    }
                    if !cx.graph.is_confirmed(b) {
                        continue;
                    }
                    if !seen.insert((fi, b.tok)) {
                        continue;
                    }
                    emit(
                        out,
                        file,
                        "reactor-blocking-call",
                        b.line,
                        format!(
                            "blocking operation {} on the `{}` reactor path",
                            b.what, region.label
                        ),
                        Vec::new(),
                    );
                }
                // Calls whose transitive closure hits a blocking leaf.
                for call in &f.calls {
                    if !in_region(call.line) {
                        continue;
                    }
                    let starts = cx.resolve_call(fi, f, call);
                    if starts.is_empty() || !starts.iter().any(|&s| cx.can_block[s]) {
                        continue;
                    }
                    if !seen.insert((fi, call.tok)) {
                        continue;
                    }
                    let Some(path) = cx.bfs_chain(&starts, |n| {
                        cx.direct_block.get(n).is_some_and(Option::is_some)
                    }) else {
                        continue;
                    };
                    let (chain, leaf) = cx.chain_with_leaf(&path, |n| {
                        cx.direct_block
                            .get(n)
                            .and_then(|b| b.as_ref())
                            .map(|b| (b.what.clone(), b.line))
                    });
                    emit(
                        out,
                        file,
                        "reactor-blocking-call",
                        call.line,
                        format!(
                            "call to `{}` on the `{}` reactor path reaches blocking leaf {}",
                            call.callee, region.label, leaf
                        ),
                        chain,
                    );
                }
            }
        }
    }
}

/// `lock-order-cycle`: build the key-level lock-order graph (edges =
/// "acquires `to` while holding `from`", direct or via calls) and reject
/// every edge that participates in a cycle.
fn rule_lock_order_cycle(cx: &Cx<'_>, out: &mut Vec<Finding>) {
    // All edges with their first (smallest path:line) witness site.
    let mut edge_site: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    // Emission sites, in deterministic discovery order.
    let mut sites: Vec<(usize, u32, String, String)> = Vec::new();
    for (fi, file) in cx.graph.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            let Some(&n) = cx.index_of.get(&(fi, gi)) else {
                continue;
            };
            for region in &f.guard_regions {
                let mut record = |to: &str, line: u32, sites: &mut Vec<_>| {
                    if to == region.key {
                        return;
                    }
                    let key = (region.key.clone(), to.to_string());
                    let site = (file.path.clone(), line);
                    match edge_site.get_mut(&key) {
                        Some(existing) => {
                            if site < *existing {
                                *existing = site;
                            }
                        }
                        None => {
                            edge_site.insert(key, site);
                        }
                    }
                    sites.push((fi, line, region.key.clone(), to.to_string()));
                };
                for a in &f.acquires {
                    if a.tok >= region.tok_start
                        && a.tok < region.tok_end
                        && (!a.rwlock_maybe || cx.graph.is_rwlock_key(&a.key))
                    {
                        record(&a.key, a.line, &mut sites);
                    }
                }
                for call in &f.calls {
                    if call.tok < region.tok_start || call.tok >= region.tok_end {
                        continue;
                    }
                    for t in cx.resolve_call(fi, f, call) {
                        if t == n {
                            continue;
                        }
                        if let Some(keys) = cx.trans_locks.get(t) {
                            for key in keys {
                                record(key, call.line, &mut sites);
                            }
                        }
                    }
                }
            }
        }
    }
    // Key-level adjacency and reachability.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edge_site.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some(k) = stack.pop() {
            if k == to {
                return true;
            }
            if !visited.insert(k) {
                continue;
            }
            if let Some(next) = adj.get(k) {
                for &t in next {
                    stack.push(t);
                }
            }
        }
        false
    };
    // Shortest key path from `from` to `to` (for the chain display).
    let key_path = |from: &str, to: &str| -> Vec<String> {
        let mut queue = VecDeque::new();
        let mut parents: BTreeMap<&str, &str> = BTreeMap::new();
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        queue.push_back(from);
        visited.insert(from);
        while let Some(k) = queue.pop_front() {
            if k == to {
                let mut path = vec![k.to_string()];
                let mut cur = k;
                while let Some(&p) = parents.get(cur) {
                    path.push(p.to_string());
                    cur = p;
                }
                path.reverse();
                return path;
            }
            if let Some(next) = adj.get(k) {
                for &t in next {
                    if visited.insert(t) {
                        parents.insert(t, k);
                        queue.push_back(t);
                    }
                }
            }
        }
        Vec::new()
    };
    let mut emitted: HashSet<(usize, u32, String, String)> = HashSet::new();
    for (fi, line, from, to) in sites {
        if !reaches(&to, &from) {
            continue;
        }
        if !emitted.insert((fi, line, from.clone(), to.clone())) {
            continue;
        }
        let Some(file) = cx.graph.files.get(fi) else {
            continue;
        };
        // Chain: this edge, then the return path that closes the cycle.
        let mut chain = Vec::new();
        if let Some((path, l)) = edge_site.get(&(from.clone(), to.clone())) {
            chain.push(format!("{from} -> {to} ({path}:{l})"));
        }
        let back = key_path(&to, &from);
        for pair in back.windows(2) {
            if let (Some(a), Some(b)) = (pair.first(), pair.get(1)) {
                if let Some((path, l)) = edge_site.get(&(a.clone(), b.clone())) {
                    chain.push(format!("{a} -> {b} ({path}:{l})"));
                }
            }
        }
        emit(
            out,
            file,
            "lock-order-cycle",
            line,
            format!(
                "acquires lock `{to}` while holding `{from}`, closing a lock-order cycle \
                 (`{to}` can be held while `{from}` is acquired elsewhere)"
            ),
            chain,
        );
    }
}

/// `guard-across-call`: a guard region containing a call into a function
/// that transitively blocks or sends on a channel.
fn rule_guard_across_call(cx: &Cx<'_>, out: &mut Vec<Finding>) {
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (fi, file) in cx.graph.files.iter().enumerate() {
        for f in &file.fns {
            for region in &f.guard_regions {
                for call in &f.calls {
                    if call.tok < region.tok_start || call.tok >= region.tok_end {
                        continue;
                    }
                    let starts = cx.resolve_call(fi, f, call);
                    if starts.is_empty() {
                        continue;
                    }
                    let blocks = starts.iter().any(|&s| cx.can_block[s]);
                    let sends = starts.iter().any(|&s| cx.can_send[s]);
                    if !blocks && !sends {
                        continue;
                    }
                    if !seen.insert((fi, call.tok)) {
                        continue;
                    }
                    let (path, verb) = if blocks {
                        (
                            cx.bfs_chain(&starts, |n| {
                                cx.direct_block.get(n).is_some_and(Option::is_some)
                            }),
                            "block",
                        )
                    } else {
                        (
                            cx.bfs_chain(&starts, |n| {
                                cx.direct_send.get(n).is_some_and(Option::is_some)
                            }),
                            "send on a channel",
                        )
                    };
                    let Some(path) = path else { continue };
                    let (chain, _) = cx.chain_with_leaf(&path, |n| {
                        if verb == "block" {
                            cx.direct_block
                                .get(n)
                                .and_then(|b| b.as_ref())
                                .map(|b| (b.what.clone(), b.line))
                        } else {
                            cx.direct_send
                                .get(n)
                                .and_then(|s| s.as_ref())
                                .map(|&l| ("channel send".to_string(), l))
                        }
                    });
                    emit(
                        out,
                        file,
                        "guard-across-call",
                        call.line,
                        format!(
                            "call to `{}` may {} while lock guard `{}` (lock `{}`) is held; \
                             drop the guard first",
                            call.callee, verb, region.name, region.key
                        ),
                        chain,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::summarize;
    use crate::{analysis, file_meta, lexer};

    fn summaries(files: &[(&str, &str)]) -> Vec<FileSummary> {
        files
            .iter()
            .map(|(rel, src)| {
                let meta = file_meta(rel);
                let lexed = lexer::lex(src);
                let analysis = analysis::analyze(&lexed);
                summarize(&meta, &lexed, &analysis, src)
            })
            .collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let summaries = summaries(files);
        let mut out = Vec::new();
        check_workspace(&summaries, &mut out);
        out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        out
    }

    #[test]
    fn reactor_blocking_reports_chain() {
        let src = "\
pub fn reactor(m: &std::sync::Mutex<u32>) {
    // lint:reactor-loop start(fixture-loop) — fixture
    step(m);
    // lint:reactor-loop end
}
fn step(m: &std::sync::Mutex<u32>) {
    let g = m.lock();
    drop(g);
}
";
        let findings = run(&[("crates/serve/src/demo.rs", src)]);
        let f = findings
            .iter()
            .find(|f| f.rule == "reactor-blocking-call")
            .expect("must fire");
        assert_eq!(f.line, 3);
        assert!(f.message.contains("fixture-loop"));
        assert!(f.message.contains("Mutex::lock"));
        assert_eq!(f.call_chain.len(), 2, "fn hop + leaf: {:?}", f.call_chain);
        assert!(f.call_chain[0].starts_with("step (crates/serve/src/demo.rs:6"));
        assert!(f.call_chain[1].contains("Mutex::lock"));
    }

    #[test]
    fn lock_order_cycle_detected_across_fns() {
        let src = "\
pub fn ab(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g = a.lock();
    let h = b.lock();
    drop(h);
    drop(g);
}
pub fn ba(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let h = b.lock();
    let g = a.lock();
    drop(g);
    drop(h);
}
";
        let findings = run(&[("crates/serve/src/demo.rs", src)]);
        let cycle: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "lock-order-cycle")
            .collect();
        assert_eq!(cycle.len(), 2, "both edges of the a/b cycle: {cycle:?}");
        assert!(cycle
            .iter()
            .any(|f| f.message.contains("`b` while holding `a`")));
        assert!(cycle
            .iter()
            .any(|f| f.message.contains("`a` while holding `b`")));
        assert!(!cycle[0].call_chain.is_empty());
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
pub fn one(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g = a.lock();
    let h = b.lock();
    drop(h);
    drop(g);
}
pub fn two(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g = a.lock();
    let h = b.lock();
    drop(h);
    drop(g);
}
";
        let findings = run(&[("crates/serve/src/demo.rs", src)]);
        assert!(
            findings.iter().all(|f| f.rule != "lock-order-cycle"),
            "same order everywhere must not fire: {findings:?}"
        );
    }

    #[test]
    fn guard_across_call_blocking_callee() {
        let src = "\
pub fn holder(m: &std::sync::Mutex<u32>, n: &std::sync::Mutex<u32>) {
    if let Ok(g) = m.lock() {
        helper(n);
        let _ = g;
    }
}
fn helper(n: &std::sync::Mutex<u32>) {
    let h = n.lock();
    drop(h);
}
";
        let findings = run(&[("crates/serve/src/demo.rs", src)]);
        let f = findings
            .iter()
            .find(|f| f.rule == "guard-across-call")
            .expect("must fire");
        assert_eq!(f.line, 3);
        assert!(f.message.contains("`helper`"));
        assert!(f.message.contains("guard `g`"));
        assert!(f.call_chain.iter().any(|h| h.contains("Mutex::lock")));
    }

    #[test]
    fn allow_at_call_site_suppresses() {
        let src = "\
pub fn reactor(m: &std::sync::Mutex<u32>) {
    // lint:reactor-loop start(fixture-loop) — fixture
    // lint:allow(reactor-blocking-call): justified for the test
    step(m);
    // lint:reactor-loop end
}
fn step(m: &std::sync::Mutex<u32>) {
    let g = m.lock();
    drop(g);
}
";
        let findings = run(&[("crates/serve/src/demo.rs", src)]);
        assert!(
            findings.iter().all(|f| f.rule != "reactor-blocking-call"),
            "{findings:?}"
        );
    }

    #[test]
    fn cross_file_chain_resolves_same_crate() {
        let a = (
            "crates/serve/src/a.rs",
            "pub fn entry() {\n    // lint:reactor-loop start — fixture\n    far();\n    // lint:reactor-loop end\n}\n",
        );
        let b = (
            "crates/serve/src/b.rs",
            "pub fn far() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
        );
        let findings = run(&[a, b]);
        let f = findings
            .iter()
            .find(|f| f.rule == "reactor-blocking-call")
            .expect("must fire");
        assert!(f.call_chain[0].starts_with("far (crates/serve/src/b.rs:1"));
        assert!(f.message.contains("thread::sleep"));
    }
}
