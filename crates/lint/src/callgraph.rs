//! Whole-workspace pass 1: per-file function summaries and the
//! name-resolution-lite call graph built from them.
//!
//! The per-file rules in `rules.rs` see one token stream at a time; the
//! interprocedural rules in `concurrency.rs` need to know what every
//! function *reaches*. This module extracts an owned [`FnSummary`] per
//! function — call sites, blocking leaves, lock acquisitions, guard
//! regions, channel sends — plus per-file facts (reactor regions, inline
//! allows, RwLock- and SyncSender-typed field names), then assembles them
//! into a [`CallGraph`].
//!
//! **Resolution policy** (deliberately simple, documented in DESIGN.md
//! §12): a call resolves to every same-crate `fn` with the callee's
//! name. Method calls are receiver-agnostic (no type inference — an
//! over-approximation: `a.flush()` resolves to *every* `fn flush` in the
//! crate). Qualified calls `grandma_x::f` resolve into crate `x`;
//! `std`/external paths resolve to nothing and are leaves. Closures and
//! trait-object dispatch are invisible (an under-approximation). Macros
//! are never calls.

use std::collections::HashMap;

use crate::analysis::{ident_text, is_ident, is_punct, Allow, Analysis, Region};
use crate::lexer::{Lexed, TokenKind};
use crate::FileMeta;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.method(...)` — resolved receiver-agnostically by name to
    /// impl/trait fns; `self.method(...)` (`recv_self`) narrows to the
    /// caller's own impl.
    Method { recv_self: bool },
    /// `f(...)` or `path::f(...)`; the qualifier is the last path
    /// segment before the name (`thread` in `std::thread::spawn`,
    /// `WalShard` in `WalShard::open`, `grandma_serve` in
    /// `grandma_serve::wire::f`... whichever segment directly precedes).
    /// `krate` is an explicit `grandma_*` segment seen one hop earlier
    /// (`grandma_wire` in `grandma_wire::Frame::parse`), so cross-crate
    /// `Type::assoc` calls land in the right crate.
    Free {
        qualifier: Option<String>,
        krate: Option<String>,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: String,
    pub line: u32,
    /// Token index of the callee ident (for region membership tests).
    pub tok: usize,
    pub kind: CallKind,
}

/// One direct blocking operation (a deny-list leaf).
#[derive(Debug, Clone)]
pub struct Blocking {
    /// Human description, e.g. `"Mutex::lock"`, `"thread::sleep"`.
    pub what: String,
    pub line: u32,
    pub tok: usize,
    /// `Some` when the call blocks only on a receiver of one type; it
    /// counts once the key is confirmed against that type's
    /// workspace-wide field set.
    pub typed_key: Option<TypedKey>,
}

/// The receiver key of a call that blocks only on one receiver type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedKey {
    /// `.read()`/`.write()`: blocks if the receiver is an `RwLock`.
    RwLock(String),
    /// `.send()`: blocks while the queue is full if the receiver is a
    /// bounded `SyncSender` (an unbounded `Sender::send` never blocks).
    SyncSender(String),
}

/// One static-keyed lock acquisition (Mutex `.lock()`, `lock_or_recover`,
/// or a confirmed-RwLock `.read()`/`.write()`).
#[derive(Debug, Clone)]
pub struct Acquire {
    /// The static key: the last ident of the receiver path
    /// (`self.handles.lock()` → `handles`).
    pub key: String,
    pub line: u32,
    pub tok: usize,
    /// Needs confirmation against the RwLock field set.
    pub rwlock_maybe: bool,
}

/// A token range in which a lock guard is live.
#[derive(Debug, Clone)]
pub struct GuardRegion {
    /// Static key of the held lock.
    pub key: String,
    /// Binding (or pattern) name, for messages.
    pub name: String,
    pub line: u32,
    /// Half-open token range of the region.
    pub tok_start: usize,
    pub tok_end: usize,
}

/// Everything the interprocedural rules need to know about one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub name: String,
    /// The `impl` type this fn is defined on, if any (`Some("WalShard")`
    /// for fns inside `impl WalShard { .. }` / `impl Trait for WalShard`).
    /// Free fns at module level carry `None`. Drives owner-filtered
    /// resolution of `Type::assoc_fn` and unqualified calls.
    pub owner: Option<String>,
    pub line: u32,
    pub calls: Vec<Call>,
    pub blocking: Vec<Blocking>,
    pub acquires: Vec<Acquire>,
    pub guard_regions: Vec<GuardRegion>,
    /// Lines with a direct `.send(`/`.try_send(` (channel sends; used by
    /// guard-across-call). A `.send()` counts as a blocking leaf only
    /// once its receiver is confirmed as a `SyncSender`.
    pub send_lines: Vec<u32>,
}

/// Per-file facts feeding the workspace graph.
#[derive(Debug, Clone)]
pub struct FileSummary {
    pub path: String,
    pub crate_name: Option<String>,
    /// `Some(path)` for a separate compilation unit (`src/bin/*`): lib
    /// code cannot call into a binary, so resolution filters on this.
    pub unit: Option<String>,
    pub fns: Vec<FnSummary>,
    pub reactor_regions: Vec<Region>,
    pub allows: Vec<Allow>,
    /// Field/binding names declared with an `RwLock` type in this file.
    pub rwlock_names: Vec<String>,
    /// Field/binding names declared with a `SyncSender` type in this file.
    pub sync_sender_names: Vec<String>,
    /// Source lines (for finding snippets anchored in this file).
    pub lines: Vec<String>,
}

impl FileSummary {
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && line >= a.first_line && line <= a.last_line + 1)
    }

    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().replace('\t', " "))
            .unwrap_or_default()
    }
}

/// Well-known `std` module qualifiers: a call qualified by one of these
/// (`mem::take`, `thread::spawn`, `mpsc::channel`) is a std call, never a
/// workspace one, so it resolves to a leaf instead of colliding with
/// same-named workspace fns (e.g. `mem::take` vs `PoolHandle::take`).
const STD_MODULES: &[&str] = &[
    "std", "core", "alloc", "mem", "ptr", "thread", "process", "env", "fs", "io", "iter", "cmp",
    "fmt", "str", "slice", "array", "mpsc", "atomic", "time", "net", "hint",
];

/// Idents that look like calls (`ident (`) but are control flow or
/// bindings, never callees.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as", "fn",
    "let", "mut", "ref", "move", "impl", "dyn", "where", "pub", "use", "mod", "struct", "enum",
    "union", "trait", "type", "const", "static", "unsafe", "extern", "crate", "super", "Some",
    "Ok", "Err", "None",
];

/// Index of the `)` matching the `(` at `open`, or `tokens.len()`.
fn matching_paren(lexed: &Lexed<'_>, open: usize) -> usize {
    let mut depth = 0u32;
    for (i, tok) in lexed.tokens.iter().enumerate().skip(open) {
        if tok.kind == TokenKind::Punct {
            match lexed.text(tok) {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    lexed.tokens.len()
}

/// The static lock key for a `.lock()`/`.read()`/`.write()` at token
/// `method_idx`: the ident directly before the `.` (the last segment of
/// the receiver path). `None` when the receiver is an expression
/// (`f().lock()`), which has no static key.
fn receiver_key(lexed: &Lexed<'_>, method_idx: usize) -> Option<String> {
    if !is_punct(lexed, method_idx.wrapping_sub(1), ".") {
        return None;
    }
    ident_text(lexed, method_idx.wrapping_sub(2)).map(|s| s.to_string())
}

/// The key a `.send()` receiver stands for. A local bound by `let` from a
/// field path stands for that field (`let Some(tx) = self.shards.get(i)
/// else ..` → `shards`); anything else is its own receiver key. The last
/// such `let` before the call wins, as shadowing does.
fn sender_key(lexed: &Lexed<'_>, body_start: usize, method_idx: usize) -> Option<String> {
    let recv = receiver_key(lexed, method_idx)?;
    let mut key = recv.clone();
    let mut i = body_start;
    while i < method_idx {
        if !is_ident(lexed, i, "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut binds = false;
        while j < method_idx && !is_punct(lexed, j, "=") && !is_punct(lexed, j, ";") {
            binds |= ident_text(lexed, j) == Some(recv.as_str());
            j += 1;
        }
        if binds && is_punct(lexed, j, "=") {
            // The initializer's field path, up to its first call.
            let mut k = j + 1;
            if is_punct(lexed, k, "&") {
                k += 1;
            }
            let mut field = None;
            while let Some(text) = ident_text(lexed, k) {
                if is_punct(lexed, k + 1, "(") {
                    break;
                }
                if text != "self" {
                    field = Some(text.to_string());
                }
                if !is_punct(lexed, k + 1, ".") {
                    break;
                }
                k += 2;
            }
            key = field.unwrap_or_else(|| recv.clone());
        }
        i = j;
    }
    Some(key)
}

/// The static lock key for `lock_or_recover(&path.to.lock)`: the last
/// ident inside the argument parens.
fn arg_key(lexed: &Lexed<'_>, open_paren: usize) -> Option<String> {
    let close = matching_paren(lexed, open_paren);
    let mut key = None;
    for i in open_paren + 1..close {
        if let Some(text) = ident_text(lexed, i) {
            key = Some(text.to_string());
        }
    }
    key
}

/// One `impl` block: the token range of its braces and the name of the
/// type being implemented (`Frame` for both `impl Frame` and
/// `impl Display for Frame`).
struct ImplBlock {
    open: usize,
    close: usize,
    type_name: String,
}

/// Scan for `impl` blocks and the self-type of each. Heuristic but
/// deterministic: skip the generic parameter list after `impl`, then take
/// the first capitalized ident — after `for` when a trait impl, straight
/// after the generics otherwise. Paths (`wire::Frame`) yield the
/// capitalized leaf; references and lifetimes are skipped implicitly.
fn find_impl_blocks(lexed: &Lexed<'_>, out: &mut Vec<ImplBlock>) {
    let n = lexed.tokens.len();
    for i in 0..n {
        // `trait X { fn m(&self) { .. } }` default bodies count as owned
        // by the trait, so method resolution still reaches them.
        if !is_ident(lexed, i, "impl") && !is_ident(lexed, i, "trait") {
            continue;
        }
        // `impl` in type position (`-> impl Iterator`, `x: impl Fn()`)
        // opens no block; only item-position `impl`/`trait` count.
        if i > 0 {
            let type_position = lexed.tokens.get(i - 1).is_some_and(|t| match t.kind {
                TokenKind::Punct => {
                    matches!(
                        lexed.text(t),
                        "->" | "(" | "," | ":" | "<" | "=" | "&" | "+"
                    )
                }
                _ => false,
            });
            if type_position {
                continue;
            }
        }
        // Skip `impl<...>` generics (angle brackets are not lexed as
        // groups, so balance them by hand).
        let mut j = i + 1;
        if is_punct(lexed, j, "<") {
            let mut depth = 0isize;
            while j < n {
                if is_punct(lexed, j, "<") {
                    depth += 1;
                } else if is_punct(lexed, j, ">") {
                    depth -= 1;
                } else if is_punct(lexed, j, ">>") {
                    // `Vec<Vec<u8>>` lexes the closer as one `>>` token.
                    depth -= 2;
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        // Find the body `{` and any `for` before it; const-generic braces
        // inside the header are not expected in this codebase.
        let mut open = None;
        let mut after_for = None;
        let mut k = j;
        while k < n {
            if is_punct(lexed, k, "{") {
                open = Some(k);
                break;
            }
            if is_ident(lexed, k, "for") {
                after_for = Some(k + 1);
            }
            if is_ident(lexed, k, "where") {
                // `where` clauses end the type path; keep scanning for `{`.
            }
            k += 1;
        }
        let Some(open) = open else { continue };
        let start = after_for.unwrap_or(j);
        let mut type_name = None;
        for t in start..open {
            if let Some(text) = ident_text(lexed, t) {
                if text.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    type_name = Some(text.to_string());
                    break;
                }
            }
        }
        let Some(type_name) = type_name else { continue };
        out.push(ImplBlock {
            open,
            close: crate::analysis::matching_brace_at(lexed, open),
            type_name,
        });
    }
}

/// Collect `name: ... Type<...>` declarations: the ident before a `:`
/// that is followed (within a few tokens) by the type `ty`.
fn find_typed_names(lexed: &Lexed<'_>, ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..lexed.tokens.len() {
        if !is_ident(lexed, i, ty) {
            continue;
        }
        // Walk back over wrapper-type tokens (`Arc < RwLock`) to the `:`.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 8 {
            j -= 1;
            steps += 1;
            if is_punct(lexed, j, ":") {
                if let Some(name) = ident_text(lexed, j.wrapping_sub(1)) {
                    out.push(name.to_string());
                }
                break;
            }
            let wrapper = lexed.tokens.get(j).is_some_and(|t| match t.kind {
                TokenKind::Punct => matches!(lexed.text(t), "<" | "::"),
                TokenKind::Ident => true,
                _ => false,
            });
            if !wrapper {
                break;
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Scan `lo..hi` for a lock-producing call at brace depth `depth`
/// (`.lock()` or `lock_or_recover(..)`), returning its static key.
fn lock_in_range(
    lexed: &Lexed<'_>,
    analysis: &Analysis,
    lo: usize,
    hi: usize,
    depth: u32,
) -> Option<(String, usize)> {
    for k in lo..hi.min(lexed.tokens.len()) {
        if analysis.brace_depth.get(k).copied().unwrap_or(0) != depth {
            continue;
        }
        let Some(text) = ident_text(lexed, k) else {
            continue;
        };
        if text == "lock_or_recover" && is_punct(lexed, k + 1, "(") {
            if let Some(key) = arg_key(lexed, k + 1) {
                return Some((key, k));
            }
        } else if text == "lock" && is_punct(lexed, k + 1, "(") {
            if let Some(key) = receiver_key(lexed, k) {
                return Some((key, k));
            }
        }
    }
    None
}

/// Find guard regions in one fn body: token ranges where a named lock
/// guard is live. Three binding shapes are recognized (mirroring
/// `rules::rule_guard_held_channel` plus its if-let/match extension):
///
/// - `let [mut] g = <init containing .lock()>;` — region runs from the
///   `;` to the end of the enclosing block (or `drop(g)`).
/// - `if let PAT = <scrutinee containing .lock()> { .. }` — region is the
///   consequent block (the scrutinee temporary lives at least that long).
/// - `match <scrutinee containing .lock()> { .. }` — region is the match
///   body (the scrutinee temporary lives for the whole match).
fn find_guard_regions(
    lexed: &Lexed<'_>,
    analysis: &Analysis,
    body_start: usize,
    body_end: usize,
    out: &mut Vec<GuardRegion>,
) {
    let tokens = &lexed.tokens;
    let hi = body_end.min(tokens.len());
    let mut i = body_start;
    while i < hi {
        // `if let` / `while let`: guard in the scrutinee, region = block.
        if (is_ident(lexed, i, "if") || is_ident(lexed, i, "while"))
            && is_ident(lexed, i + 1, "let")
        {
            let depth = analysis.brace_depth.get(i).copied().unwrap_or(0);
            // Scan to the block `{` at this brace depth.
            let mut k = i + 2;
            let mut open = None;
            while k < hi {
                if is_punct(lexed, k, "{")
                    && analysis.brace_depth.get(k).copied().unwrap_or(0) == depth
                {
                    open = Some(k);
                    break;
                }
                k += 1;
            }
            if let Some(open) = open {
                if let Some((key, _)) = lock_in_range(lexed, analysis, i + 2, open, depth) {
                    let name = pattern_binding(lexed, i + 2, open);
                    out.push(GuardRegion {
                        key,
                        name,
                        line: tokens.get(i).map_or(1, |t| t.line),
                        tok_start: open + 1,
                        tok_end: crate::analysis::matching_brace_at(lexed, open),
                    });
                }
                i = open + 1;
                continue;
            }
        }
        // `match <scrutinee with lock> { .. }`: region = match body.
        if is_ident(lexed, i, "match") {
            let depth = analysis.brace_depth.get(i).copied().unwrap_or(0);
            let mut k = i + 1;
            let mut open = None;
            while k < hi {
                if is_punct(lexed, k, "{")
                    && analysis.brace_depth.get(k).copied().unwrap_or(0) == depth
                {
                    open = Some(k);
                    break;
                }
                if is_punct(lexed, k, ";") {
                    break;
                }
                k += 1;
            }
            if let Some(open) = open {
                if let Some((key, _)) = lock_in_range(lexed, analysis, i + 1, open, depth) {
                    out.push(GuardRegion {
                        key,
                        name: "guard".to_string(),
                        line: tokens.get(i).map_or(1, |t| t.line),
                        tok_start: open + 1,
                        tok_end: crate::analysis::matching_brace_at(lexed, open),
                    });
                }
                i = open + 1;
                continue;
            }
        }
        // Plain `let [mut] g = <init with lock>;` (init not a match/if —
        // those are handled above, and a `let x = match m.lock() {..}`
        // binding usually binds data moved *out* of the guard).
        if is_ident(lexed, i, "let") && !is_ident(lexed, i.wrapping_sub(1), "while") {
            let mut j = i + 1;
            if is_ident(lexed, j, "mut") {
                j += 1;
            }
            if let Some(name) = ident_text(lexed, j) {
                if name != "_"
                    && is_punct(lexed, j + 1, "=")
                    && !is_ident(lexed, j + 2, "match")
                    && !is_ident(lexed, j + 2, "if")
                {
                    let depth = analysis.brace_depth.get(i).copied().unwrap_or(0);
                    let group = analysis.group_depth.get(i).copied().unwrap_or(0);
                    // Find the terminating `;` of the initializer.
                    let mut k = j + 2;
                    let mut moves_out = false;
                    while k < hi {
                        if is_punct(lexed, k, ";")
                            && analysis.group_depth.get(k).copied().unwrap_or(0) == group
                            && analysis.brace_depth.get(k).copied().unwrap_or(0) == depth
                        {
                            break;
                        }
                        if is_ident(lexed, k, "take") {
                            moves_out = true;
                        }
                        k += 1;
                    }
                    if !moves_out {
                        if let Some((key, _)) = lock_in_range(lexed, analysis, j + 2, k, depth) {
                            // Region: from after the `;` to the end of
                            // the enclosing block or `drop(name)`.
                            let name = name.to_string();
                            let mut end = k + 1;
                            while end < hi {
                                if is_punct(lexed, end, "}")
                                    && analysis.brace_depth.get(end).copied().unwrap_or(0) == depth
                                {
                                    break;
                                }
                                if is_ident(lexed, end, "drop")
                                    && is_punct(lexed, end + 1, "(")
                                    && ident_text(lexed, end + 2) == Some(name.as_str())
                                    && is_punct(lexed, end + 3, ")")
                                {
                                    break;
                                }
                                end += 1;
                            }
                            out.push(GuardRegion {
                                key,
                                name,
                                line: tokens.get(i).map_or(1, |t| t.line),
                                tok_start: k + 1,
                                tok_end: end,
                            });
                        }
                    }
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// First plausible binding ident in an `if let` pattern (`Ok(g)` → `g`).
fn pattern_binding(lexed: &Lexed<'_>, lo: usize, hi: usize) -> String {
    for k in lo..hi.min(lexed.tokens.len()) {
        if is_punct(lexed, k, "=") {
            break;
        }
        if let Some(text) = ident_text(lexed, k) {
            if !NON_CALL_KEYWORDS.contains(&text) {
                return text.to_string();
            }
        }
    }
    "guard".to_string()
}

/// Summarize every non-test fn in one file. Test files and `#[cfg(test)]`
/// bodies are excluded: they block on purpose (joins, timeouts, barriers).
pub fn summarize(
    meta: &FileMeta,
    lexed: &Lexed<'_>,
    analysis: &Analysis,
    src: &str,
) -> FileSummary {
    let rwlock_names = find_typed_names(lexed, "RwLock");
    let sync_sender_names = find_typed_names(lexed, "SyncSender");

    let mut impls = Vec::new();
    find_impl_blocks(lexed, &mut impls);

    let mut fns = Vec::new();
    for scope in &analysis.fns {
        if analysis.in_test_code(scope.line) {
            continue;
        }
        let owner = impls
            .iter()
            .find(|b| scope.body_start > b.open && scope.body_start <= b.close)
            .map(|b| b.type_name.clone());
        let mut summary = FnSummary {
            name: scope.name.clone(),
            owner,
            line: scope.line,
            calls: Vec::new(),
            blocking: Vec::new(),
            acquires: Vec::new(),
            guard_regions: Vec::new(),
            send_lines: Vec::new(),
        };
        let hi = scope.body_end.min(lexed.tokens.len());
        for i in scope.body_start..hi {
            let Some(text) = ident_text(lexed, i) else {
                continue;
            };
            let line = lexed.tokens.get(i).map_or(1, |t| t.line);
            if analysis.in_test_code(line) {
                continue;
            }
            let called = is_punct(lexed, i + 1, "(");
            let is_method = called && is_punct(lexed, i.wrapping_sub(1), ".");
            if !called || NON_CALL_KEYWORDS.contains(&text) {
                continue;
            }

            // Blocking-leaf classification (receiver-agnostic; see the
            // module docs for the over/under-approximation policy).
            let mut leaf: Option<(String, Option<TypedKey>)> = None;
            if text == "sleep" && ident_text(lexed, i.wrapping_sub(2)) == Some("thread") {
                leaf = Some(("thread::sleep".to_string(), None));
            } else if is_method {
                match text {
                    // `.recv()` with no timeout argument is an unbounded
                    // wait; `recv_timeout` is a bounded one and exempt.
                    "recv" if is_punct(lexed, i + 2, ")") => {
                        leaf = Some((".recv() (unbounded wait)".to_string(), None));
                    }
                    "wait" | "wait_timeout" => {
                        leaf = Some((format!(".{text}() (condvar/barrier/poll wait)"), None));
                    }
                    "lock" if !analysis.in_try_bounded(line) => {
                        leaf = Some(("Mutex::lock".to_string(), None));
                    }
                    "write_all" => {
                        leaf = Some((".write_all() (blocking write)".to_string(), None));
                    }
                    "read_to_end" | "read_exact" => {
                        leaf = Some((format!(".{text}() (blocking read)"), None));
                    }
                    "sync_all" | "sync_data" => {
                        leaf = Some((format!(".{text}() (fsync)"), None));
                    }
                    // RwLock read/write — only once the receiver key is
                    // confirmed as an RwLock field (pass 2).
                    "read" | "write" if !analysis.in_try_bounded(line) => {
                        if let Some(key) = receiver_key(lexed, i) {
                            let what = format!("RwLock::{text} `{key}`");
                            leaf = Some((what, Some(TypedKey::RwLock(key))));
                        }
                    }
                    // A bounded channel send blocks while the queue is
                    // full — once the receiver is confirmed a SyncSender.
                    "send" => {
                        if let Some(key) = sender_key(lexed, scope.body_start, i) {
                            let what = format!("SyncSender::send `{key}` (blocks while full)");
                            leaf = Some((what, Some(TypedKey::SyncSender(key))));
                        }
                    }
                    _ => {}
                }
            }
            // An inline allow at the *leaf* site attests the operation for
            // every reactor path that reaches it — the justification lives
            // where the blocking call is, not at each entry point.
            if let Some((what, typed_key)) = leaf {
                if !analysis.allowed("reactor-blocking-call", line) {
                    summary.blocking.push(Blocking {
                        what,
                        line,
                        tok: i,
                        typed_key,
                    });
                }
            }

            // Channel sends (for guard-across-call).
            if is_method && (text == "send" || text == "try_send") {
                summary.send_lines.push(line);
            }

            // Lock acquisitions (for the lock-order graph).
            if is_method && (text == "lock" || text == "read" || text == "write") {
                if let Some(key) = receiver_key(lexed, i) {
                    summary.acquires.push(Acquire {
                        key,
                        line,
                        tok: i,
                        rwlock_maybe: text != "lock",
                    });
                }
            } else if !is_method && text == "lock_or_recover" {
                if let Some(key) = arg_key(lexed, i + 1) {
                    summary.acquires.push(Acquire {
                        key,
                        line,
                        tok: i,
                        rwlock_maybe: false,
                    });
                }
            }

            // Call sites.
            let kind = if is_method {
                CallKind::Method {
                    recv_self: receiver_key(lexed, i).as_deref() == Some("self"),
                }
            } else if is_punct(lexed, i.wrapping_sub(1), "::") {
                // One more path hop back: `grandma_wire :: Frame :: parse`
                // carries the crate in the segment before the qualifier.
                let krate = if is_punct(lexed, i.wrapping_sub(3), "::") {
                    ident_text(lexed, i.wrapping_sub(4))
                        .filter(|s| s.starts_with("grandma_"))
                        .map(|s| s.to_string())
                } else {
                    None
                };
                CallKind::Free {
                    qualifier: ident_text(lexed, i.wrapping_sub(2)).map(|s| s.to_string()),
                    krate,
                }
            } else {
                CallKind::Free {
                    qualifier: None,
                    krate: None,
                }
            };
            summary.calls.push(Call {
                callee: text.to_string(),
                line,
                tok: i,
                kind,
            });
        }
        find_guard_regions(
            lexed,
            analysis,
            scope.body_start,
            scope.body_end,
            &mut summary.guard_regions,
        );
        fns.push(summary);
    }

    FileSummary {
        path: meta.rel_path.clone(),
        crate_name: meta.crate_name.clone(),
        unit: meta.is_bin.then(|| meta.rel_path.clone()),
        fns,
        reactor_regions: analysis
            .reactor_regions()
            .iter()
            .filter(|r| !analysis.in_test_code(r.first_line))
            .cloned()
            .collect(),
        allows: analysis.allow_entries().to_vec(),
        rwlock_names,
        sync_sender_names,
        lines: src.lines().map(|l| l.to_string()).collect(),
    }
}

/// A function's identity in the graph: (file index, fn index).
pub type FnId = (usize, usize);

/// The workspace call graph: summaries plus a crate-scoped name index.
pub struct CallGraph<'a> {
    pub files: &'a [FileSummary],
    /// (crate, fn name) → FnIds, sorted by (file, line) for determinism.
    index: HashMap<(String, String), Vec<FnId>>,
    /// Workspace-wide set of RwLock-typed field names.
    rwlock_keys: Vec<String>,
    /// Workspace-wide set of SyncSender-typed field names.
    sync_sender_keys: Vec<String>,
}

impl<'a> CallGraph<'a> {
    pub fn build(files: &'a [FileSummary]) -> Self {
        let mut index: HashMap<(String, String), Vec<FnId>> = HashMap::new();
        let mut rwlock_keys: Vec<String> = Vec::new();
        let mut sync_sender_keys: Vec<String> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            rwlock_keys.extend(file.rwlock_names.iter().cloned());
            sync_sender_keys.extend(file.sync_sender_names.iter().cloned());
            let Some(crate_name) = &file.crate_name else {
                continue;
            };
            for (gi, f) in file.fns.iter().enumerate() {
                index
                    .entry((crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push((fi, gi));
            }
        }
        rwlock_keys.sort();
        rwlock_keys.dedup();
        sync_sender_keys.sort();
        sync_sender_keys.dedup();
        for ids in index.values_mut() {
            ids.sort();
        }
        CallGraph {
            files,
            index,
            rwlock_keys,
            sync_sender_keys,
        }
    }

    pub fn fn_summary(&self, id: FnId) -> Option<&FnSummary> {
        self.files.get(id.0).and_then(|f| f.fns.get(id.1))
    }

    pub fn file(&self, id: FnId) -> Option<&FileSummary> {
        self.files.get(id.0)
    }

    /// Is `key` a known RwLock field name anywhere in the workspace?
    pub fn is_rwlock_key(&self, key: &str) -> bool {
        self.rwlock_keys
            .binary_search_by(|k| k.as_str().cmp(key))
            .is_ok()
    }

    /// Does `b` block? A typed leaf only once its receiver key is a known
    /// field of that type anywhere in the workspace.
    pub fn is_confirmed(&self, b: &Blocking) -> bool {
        let (keys, key) = match &b.typed_key {
            None => return true,
            Some(TypedKey::RwLock(key)) => (&self.rwlock_keys, key),
            Some(TypedKey::SyncSender(key)) => (&self.sync_sender_keys, key),
        };
        keys.binary_search_by(|k| k.as_str().cmp(key)).is_ok()
    }

    /// Resolve a call made from `from_crate` (inside `impl from_owner`,
    /// if any) to zero or more workspace fns. Method calls are still the
    /// receiver-agnostic by-name union, but path calls are owner-filtered:
    /// `Type::assoc_fn` only reaches fns defined in an `impl Type` block,
    /// unqualified and module-qualified calls only reach free fns, and
    /// `Self::f` only reaches the caller's own impl.
    pub fn resolve(
        &self,
        call: &Call,
        from_crate: Option<&str>,
        from_owner: Option<&str>,
        from_unit: Option<&str>,
    ) -> Vec<FnId> {
        // Owner filter: None = any impl/trait fn (non-self methods),
        // Some(None) = free fns only, Some(Some(t)) = fns in `impl t` only.
        let mut owner: Option<Option<&str>> = None;
        let crate_name = match &call.kind {
            CallKind::Method { recv_self } => {
                if *recv_self {
                    // `self.m()` stays on the caller's own type; a free fn
                    // has no `self`, so no owner means no target.
                    if from_owner.is_none() {
                        return Vec::new();
                    }
                    owner = Some(from_owner);
                }
                from_crate
            }
            CallKind::Free {
                qualifier: None, ..
            } => {
                // An unqualified call cannot name an assoc fn in Rust.
                owner = Some(None);
                from_crate
            }
            CallKind::Free {
                qualifier: Some(q),
                krate,
            } => {
                if let Some(stripped) = q.strip_prefix("grandma_") {
                    owner = Some(None);
                    Some(stripped)
                } else if q == "crate" || q == "self" || q == "super" {
                    owner = Some(None);
                    from_crate
                } else if q == "Self" {
                    // `Self::f` stays inside the caller's impl; a free fn
                    // can't write `Self::`, so no owner means no target.
                    owner = Some(from_owner);
                    if from_owner.is_none() {
                        return Vec::new();
                    }
                    from_crate
                } else if STD_MODULES.contains(&q.as_str()) {
                    // A std call; the blocking-leaf scan already classified
                    // it (e.g. `thread::sleep`), so resolve to nothing.
                    None
                } else if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    // `Type::assoc_fn` — only fns defined on that type,
                    // in the named crate if the path carried one.
                    owner = Some(Some(q.as_str()));
                    match krate.as_deref().and_then(|k| k.strip_prefix("grandma_")) {
                        Some(k) => Some(k),
                        None => from_crate,
                    }
                } else {
                    // A lowercase path segment is either a same-crate
                    // module or an external one; same-crate lookup covers
                    // the former, and a miss makes it a leaf.
                    owner = Some(None);
                    from_crate
                }
            }
        };
        let Some(crate_name) = crate_name else {
            return Vec::new();
        };
        let candidates = self
            .index
            .get(&(crate_name.to_string(), call.callee.clone()))
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        candidates
            .iter()
            .copied()
            .filter(|&id| {
                // A binary target is its own compilation unit: lib code
                // never calls into `src/bin/*`, and one binary never calls
                // into another.
                let unit_ok = self
                    .file(id)
                    .is_none_or(|f| f.unit.is_none() || f.unit.as_deref() == from_unit);
                let owner_ok = match owner {
                    // Receiver-agnostic method: any impl/trait fn by name,
                    // but never a free fn (methods live in impls).
                    None => self.fn_summary(id).is_some_and(|f| f.owner.is_some()),
                    Some(want) => self
                        .fn_summary(id)
                        .is_some_and(|f| f.owner.as_deref() == want),
                };
                unit_ok && owner_ok
            })
            .collect()
    }

    /// Render the resolved call graph as a deterministic DOT digraph.
    /// Nodes are `path::fn_name`; fns with direct blocking leaves carry
    /// a `blocking` attribute. Output is sorted and byte-stable.
    pub fn to_dot(&self) -> String {
        let node = |id: FnId| -> String {
            let file = self.files.get(id.0).map(|f| f.path.as_str()).unwrap_or("?");
            let name = self.fn_summary(id).map(|f| f.name.as_str()).unwrap_or("?");
            format!("{file}::{name}")
        };
        let mut nodes: Vec<String> = Vec::new();
        let mut edges: Vec<String> = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let id = (fi, gi);
                let real_blocks = f.blocking.iter().any(|b| self.is_confirmed(b));
                if real_blocks {
                    nodes.push(format!("  \"{}\" [blocking=true];", node(id)));
                } else {
                    nodes.push(format!("  \"{}\";", node(id)));
                }
                for call in &f.calls {
                    for target in self.resolve(
                        call,
                        file.crate_name.as_deref(),
                        f.owner.as_deref(),
                        file.unit.as_deref(),
                    ) {
                        edges.push(format!("  \"{}\" -> \"{}\";", node(id), node(target)));
                    }
                }
            }
        }
        nodes.sort();
        nodes.dedup();
        edges.sort();
        edges.dedup();
        let mut out = String::from("digraph grandma_calls {\n");
        for n in nodes {
            out.push_str(&n);
            out.push('\n');
        }
        for e in edges {
            out.push_str(&e);
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analysis, file_meta, lexer};

    fn summary_of(rel: &str, src: &str) -> FileSummary {
        let meta = file_meta(rel);
        let lexed = lexer::lex(src);
        let analysis = analysis::analyze(&lexed);
        summarize(&meta, &lexed, &analysis, src)
    }

    #[test]
    fn calls_and_blocking_extracted() {
        let src = "\
pub fn outer(m: &std::sync::Mutex<u32>) {
    helper();
    std::thread::sleep(std::time::Duration::from_millis(1));
    let g = m.lock();
    drop(g);
}
fn helper() {}
";
        let s = summary_of("crates/serve/src/demo.rs", src);
        assert_eq!(s.fns.len(), 2);
        let outer = &s.fns[0];
        assert!(outer.calls.iter().any(|c| c.callee == "helper"));
        assert!(outer.blocking.iter().any(|b| b.what == "thread::sleep"));
        assert!(outer.blocking.iter().any(|b| b.what == "Mutex::lock"));
        assert!(outer.acquires.iter().any(|a| a.key == "m"));
    }

    #[test]
    fn try_bounded_exempts_lock() {
        let src = "\
pub fn f(m: &std::sync::Mutex<u32>) {
    // lint:try-bounded start — O(1) critical section
    let g = m.lock();
    drop(g);
    // lint:try-bounded end
}
";
        let s = summary_of("crates/serve/src/demo.rs", src);
        assert!(s.fns[0].blocking.is_empty());
        // The acquire is still recorded for the lock-order graph.
        assert_eq!(s.fns[0].acquires.len(), 1);
    }

    #[test]
    fn guard_regions_cover_if_let_and_match() {
        let src = "\
pub fn direct(m: &std::sync::Mutex<u32>) {
    let g = m.lock();
    touch();
}
pub fn if_let(m: &std::sync::Mutex<u32>) {
    if let Ok(g) = m.lock() {
        touch();
    }
}
pub fn matched(m: &std::sync::Mutex<u32>) {
    match m.lock() {
        Ok(g) => touch(),
        Err(_) => {}
    }
}
fn touch() {}
";
        let s = summary_of("crates/serve/src/demo.rs", src);
        for (i, shape) in ["direct", "if_let", "matched"].iter().enumerate() {
            let f = &s.fns[i];
            assert_eq!(
                f.guard_regions.len(),
                1,
                "{shape} should have one guard region"
            );
            assert_eq!(f.guard_regions[0].key, "m", "{shape}");
            let region = &f.guard_regions[0];
            let inside = f.calls.iter().any(|c| {
                c.callee == "touch" && c.tok >= region.tok_start && c.tok < region.tok_end
            });
            assert!(inside, "{shape}: touch() must land inside the guard region");
        }
    }

    #[test]
    fn resolution_is_crate_scoped() {
        let a = summary_of("crates/serve/src/a.rs", "pub fn caller() { helper(); }\n");
        let b = summary_of("crates/serve/src/b.rs", "pub fn helper() {}\n");
        let c = summary_of("crates/core/src/c.rs", "pub fn helper() {}\n");
        let files = vec![a, b, c];
        let graph = CallGraph::build(&files);
        let call = &files[0].fns[0].calls[0];
        let targets = graph.resolve(call, Some("serve"), None, None);
        assert_eq!(targets, vec![(1, 0)], "same-crate resolution only");
    }

    #[test]
    fn type_qualified_calls_are_owner_filtered() {
        let a = summary_of(
            "crates/serve/src/a.rs",
            "pub struct Router;\nimpl Router {\n    pub fn new() -> Self { Router }\n}\npub fn build() { let _ = Pipeline::new(); }\n",
        );
        let b = summary_of(
            "crates/serve/src/b.rs",
            "pub struct Pipeline;\nimpl Pipeline {\n    pub fn new() -> Self { Pipeline }\n}\n",
        );
        let files = vec![a, b];
        let graph = CallGraph::build(&files);
        assert_eq!(files[0].fns[0].owner.as_deref(), Some("Router"));
        assert_eq!(files[1].fns[0].owner.as_deref(), Some("Pipeline"));
        // `Pipeline::new()` in a.rs::build must resolve only to the
        // Pipeline impl, not to Router::new despite the shared name.
        let call = files[0]
            .fns
            .iter()
            .find(|f| f.name == "build")
            .and_then(|f| f.calls.iter().find(|c| c.callee == "new"))
            .expect("call site");
        assert_eq!(graph.resolve(call, Some("serve"), None, None), vec![(1, 0)]);
        // An unqualified call never reaches an assoc fn.
        let unqualified = Call {
            callee: "new".to_string(),
            line: 1,
            tok: 0,
            kind: CallKind::Free {
                qualifier: None,
                krate: None,
            },
        };
        assert!(graph
            .resolve(&unqualified, Some("serve"), None, None)
            .is_empty());
    }

    #[test]
    fn trait_impl_and_cross_crate_paths_resolve() {
        let a = summary_of(
            "crates/wire/src/lib.rs",
            "pub struct Frame;\nimpl std::fmt::Display for Frame {\n    fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\nimpl Frame {\n    pub fn parse() -> Self { Frame }\n}\n",
        );
        let b = summary_of(
            "crates/serve/src/user.rs",
            "pub fn consume() { let _ = grandma_wire::Frame::parse(); }\n",
        );
        let files = vec![a, b];
        let graph = CallGraph::build(&files);
        // `impl Display for Frame` attributes `fmt` to Frame, not Display.
        assert_eq!(files[0].fns[0].owner.as_deref(), Some("Frame"));
        let call = files[1]
            .fns
            .iter()
            .find_map(|f| f.calls.iter().find(|c| c.callee == "parse"))
            .expect("cross-crate call");
        // The `grandma_wire` hop steers resolution into crate `wire` even
        // though the caller lives in `serve`.
        let parse_id = files[0]
            .fns
            .iter()
            .position(|f| f.name == "parse")
            .expect("parse fn");
        assert_eq!(
            graph.resolve(call, Some("serve"), None, None),
            vec![(0, parse_id)]
        );
    }

    #[test]
    fn rwlock_names_found() {
        let src = "struct S { fence: std::sync::RwLock<u32>, n: u32 }\n";
        let s = summary_of("crates/serve/src/demo.rs", src);
        assert_eq!(s.rwlock_names, vec!["fence".to_string()]);
    }

    #[test]
    fn dot_is_deterministic() {
        let files = vec![summary_of(
            "crates/serve/src/a.rs",
            "pub fn a() { b(); }\npub fn b() { std::thread::sleep(d()); }\nfn d() -> std::time::Duration { std::time::Duration::from_millis(1) }\n",
        )];
        let graph = CallGraph::build(&files);
        let dot = graph.to_dot();
        assert_eq!(dot, graph.to_dot());
        assert!(dot.contains("\"crates/serve/src/a.rs::a\" -> \"crates/serve/src/a.rs::b\""));
        assert!(dot.contains("\"crates/serve/src/a.rs::b\" [blocking=true];"));
    }
}
