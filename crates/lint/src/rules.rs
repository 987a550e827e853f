//! The rule engine. Each rule is a pass over one file's token stream plus
//! its structural `Analysis`. Rules never look at raw source text except to
//! extract display snippets, so comments and string literals can never
//! produce false positives.

use crate::analysis::{ident_text, is_ident, is_punct, Analysis};
use crate::findings::{rule_severity, Finding};
use crate::lexer::{Lexed, TokenKind};
use crate::{Config, FileMeta};

/// Panic macros banned from panic-free library code (`assert!` family is
/// deliberately permitted: invariant checks are encouraged).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Methods whose results must not be unwrapped in non-test code (R3).
const CHANNEL_OPS: &[&str] = &[
    "lock",
    "send",
    "try_send",
    "recv",
    "try_recv",
    "recv_timeout",
];

/// Channel calls that must not run while a Mutex guard is live (R3).
const GUARDED_OPS: &[&str] = &["send", "try_send", "recv", "try_recv", "recv_timeout"];

/// Allocating method calls banned inside hot-path regions (R1).
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string"];

/// Allocating macros banned inside hot-path regions (R1).
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Types whose `::new` / `::with_capacity` / `::from` allocate (R1).
const ALLOC_TYPES: &[&str] = &["Vec", "Box", "String", "HashMap", "BTreeMap", "VecDeque"];

/// Integer types that make an `as` cast a truncation hazard (R5).
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Shared per-file context handed to every rule.
struct Ctx<'a> {
    meta: &'a FileMeta,
    lexed: &'a Lexed<'a>,
    analysis: &'a Analysis,
    config: &'a Config,
}

impl Ctx<'_> {
    fn emit(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        if self.analysis.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            severity: rule_severity(rule),
            path: self.meta.rel_path.clone(),
            line,
            message,
            snippet: self.lexed.line_text(line).trim().replace('\t', " "),
            call_chain: Vec::new(),
        });
    }

    fn line(&self, idx: usize) -> u32 {
        self.lexed.tokens.get(idx).map_or(1, |t| t.line)
    }
}

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

/// R1a: panic-freedom in library code of the panic-free crate set.
fn rule_no_panic(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let in_scope = ctx
        .meta
        .crate_name
        .as_deref()
        .is_some_and(|name| ctx.config.panic_free_crates.contains(&name));
    if !in_scope || ctx.meta.is_bin || ctx.meta.is_test_file {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        let line = ctx.line(i);
        if ctx.analysis.in_test_code(line) {
            continue;
        }
        let Some(text) = ident_text(lexed, i) else {
            continue;
        };
        if (text == "unwrap" || text == "expect")
            && is_punct(lexed, i.wrapping_sub(1), ".")
            && is_punct(lexed, i + 1, "(")
        {
            ctx.emit(
                out,
                "no-panic",
                line,
                format!("`.{text}()` in panic-free library code"),
            );
        } else if PANIC_MACROS.contains(&text) && is_punct(lexed, i + 1, "!") {
            ctx.emit(
                out,
                "no-panic",
                line,
                format!("`{text}!` in panic-free library code"),
            );
        }
    }
}

/// R1b/R1c: indexing and allocation inside `lint:hot-path` regions.
fn rule_hot_path(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.is_test_file {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        let line = ctx.line(i);
        if !ctx.analysis.in_hot_path(line) || ctx.analysis.in_test_code(line) {
            continue;
        }
        // Indexing: `[` directly after an expression (ident, `)`, or `]`).
        // Keywords before `[` mean a type or literal (`&mut [f64]`,
        // `return [0; 4]`), not an index.
        if is_punct(lexed, i, "[") && i > 0 {
            let indexes_expr = lexed.tokens.get(i - 1).is_some_and(|prev| match prev.kind {
                TokenKind::Ident => !matches!(
                    lexed.text(prev),
                    "mut"
                        | "in"
                        | "as"
                        | "return"
                        | "if"
                        | "else"
                        | "match"
                        | "move"
                        | "ref"
                        | "dyn"
                        | "impl"
                        | "where"
                        | "break"
                        | "continue"
                ),
                TokenKind::Punct => matches!(lexed.text(prev), ")" | "]"),
                _ => false,
            });
            if indexes_expr {
                ctx.emit(
                    out,
                    "hot-path-index",
                    line,
                    "slice/array indexing in hot path can panic; use get()".to_string(),
                );
            }
            continue;
        }
        let Some(text) = ident_text(lexed, i) else {
            continue;
        };
        if ALLOC_METHODS.contains(&text)
            && is_punct(lexed, i.wrapping_sub(1), ".")
            && is_punct(lexed, i + 1, "(")
        {
            ctx.emit(
                out,
                "hot-path-alloc",
                line,
                format!("`.{text}()` allocates in hot path"),
            );
        } else if ALLOC_MACROS.contains(&text) && is_punct(lexed, i + 1, "!") {
            ctx.emit(
                out,
                "hot-path-alloc",
                line,
                format!("`{text}!` allocates in hot path"),
            );
        } else if ALLOC_TYPES.contains(&text) && is_punct(lexed, i + 1, "::") {
            if let Some(method) = ident_text(lexed, i + 2) {
                if matches!(method, "new" | "with_capacity" | "from") {
                    ctx.emit(
                        out,
                        "hot-path-alloc",
                        line,
                        format!("`{text}::{method}` allocates in hot path"),
                    );
                }
            }
        }
    }
}

/// R3a: `.unwrap()`/`.expect()` directly on a lock/channel result.
fn rule_channel_unwrap(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.is_test_file {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        let Some(text) = ident_text(lexed, i) else {
            continue;
        };
        if !CHANNEL_OPS.contains(&text)
            || !is_punct(lexed, i.wrapping_sub(1), ".")
            || !is_punct(lexed, i + 1, "(")
        {
            continue;
        }
        let close = matching_paren(lexed, i + 1);
        if !is_punct(lexed, close + 1, ".") {
            continue;
        }
        let Some(next) = ident_text(lexed, close + 2) else {
            continue;
        };
        if next != "unwrap" && next != "expect" {
            continue;
        }
        let line = ctx.line(close + 2);
        if ctx.analysis.in_test_code(line) {
            continue;
        }
        ctx.emit(
            out,
            "channel-unwrap",
            line,
            format!("`.{text}().{next}()` in non-test code; handle the Err arm"),
        );
    }
}

/// A token range in which a named lock guard may be live (R3b).
struct GuardSpan {
    name: String,
    start: usize,
    end: usize,
}

/// True when `lo..hi` contains a guard-producing lock call at brace depth
/// `depth` (`.lock()` or `lock_or_recover(..)`). A lock inside a nested
/// block or closure (deeper braces) stays local and does not count.
fn lock_call_between(ctx: &Ctx<'_>, lo: usize, hi: usize, depth: u32) -> bool {
    let lexed = ctx.lexed;
    for k in lo..hi.min(lexed.tokens.len()) {
        if ctx.analysis.brace_depth.get(k).copied().unwrap_or(0) != depth {
            continue;
        }
        match ident_text(lexed, k) {
            Some("lock_or_recover") if is_punct(lexed, k + 1, "(") => return true,
            Some("lock")
                if is_punct(lexed, k.wrapping_sub(1), ".") && is_punct(lexed, k + 1, "(") =>
            {
                return true
            }
            _ => {}
        }
    }
    false
}

/// First plausible binding ident in an `if let` pattern (`Ok(g)` → `g`).
fn first_pattern_binding(ctx: &Ctx<'_>, lo: usize, hi: usize) -> String {
    for k in lo..hi.min(ctx.lexed.tokens.len()) {
        if is_punct(ctx.lexed, k, "=") {
            break;
        }
        if let Some(text) = ident_text(ctx.lexed, k) {
            if !matches!(text, "Some" | "Ok" | "Err" | "None" | "mut" | "ref" | "_") {
                return text.to_string();
            }
        }
    }
    "guard".to_string()
}

/// R3b: channel ops while a `lock()` guard may still be live. Three
/// binding shapes produce a guard span:
///
/// - `let [mut] g = <init with .lock()>;` — live to the end of the
///   enclosing block, or to an explicit `drop(g)`.
/// - `if let Ok(g) = m.lock() { .. }` / `while let` — live for the whole
///   consequent block (the scrutinee temporary outlives it).
/// - `match m.lock() { .. }` — live for the whole match body, arms
///   included. This also covers `let x = match m.lock() { .. };`
///   initializers; a match arm that re-exports the guard out of the
///   match is a known under-approximation (DESIGN.md §12).
fn rule_guard_held_channel(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.is_test_file {
        return;
    }
    let lexed = ctx.lexed;
    let tokens = &lexed.tokens;
    let mut spans: Vec<GuardSpan> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let depth = ctx.analysis.brace_depth.get(i).copied().unwrap_or(0);
        // `if let` / `while let` with a lock in the scrutinee.
        if (is_ident(lexed, i, "if") || is_ident(lexed, i, "while"))
            && is_ident(lexed, i + 1, "let")
        {
            let mut k = i + 2;
            while k < tokens.len()
                && !(is_punct(lexed, k, "{")
                    && ctx.analysis.brace_depth.get(k).copied().unwrap_or(0) == depth)
            {
                k += 1;
            }
            if k < tokens.len() {
                if lock_call_between(ctx, i + 2, k, depth) {
                    spans.push(GuardSpan {
                        name: first_pattern_binding(ctx, i + 2, k),
                        start: k + 1,
                        end: crate::analysis::matching_brace_at(lexed, k),
                    });
                }
                i = k + 1;
                continue;
            }
        }
        // `match <scrutinee with lock> { .. }` (statement or initializer).
        if is_ident(lexed, i, "match") {
            let mut k = i + 1;
            while k < tokens.len()
                && !is_punct(lexed, k, ";")
                && !(is_punct(lexed, k, "{")
                    && ctx.analysis.brace_depth.get(k).copied().unwrap_or(0) == depth)
            {
                k += 1;
            }
            if k < tokens.len() && is_punct(lexed, k, "{") {
                if lock_call_between(ctx, i + 1, k, depth) {
                    spans.push(GuardSpan {
                        name: "guard".to_string(),
                        start: k + 1,
                        end: crate::analysis::matching_brace_at(lexed, k),
                    });
                }
                i = k + 1;
                continue;
            }
        }
        // Plain `let [mut] name = init;`. `match`/`if` initializers are
        // covered by the shapes above (the binding then usually holds data
        // moved out of the guard, not the guard itself).
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
                    let let_group = ctx.analysis.group_depth.get(i).copied().unwrap_or(0);
                    // Scan the initializer up to its terminating `;`.
                    let mut k = j + 2;
                    let mut moves_out = false;
                    while k < tokens.len() {
                        if is_punct(lexed, k, ";")
                            && ctx.analysis.group_depth.get(k).copied().unwrap_or(0) == let_group
                            && ctx.analysis.brace_depth.get(k).copied().unwrap_or(0) == depth
                        {
                            break;
                        }
                        // `std::mem::take(&mut *guard)` moves the data out
                        // and drops the guard before the binding is made.
                        if is_ident(lexed, k, "take")
                            && ctx.analysis.brace_depth.get(k).copied().unwrap_or(0) == depth
                        {
                            moves_out = true;
                        }
                        k += 1;
                    }
                    if !moves_out && lock_call_between(ctx, j + 2, k, depth) {
                        // Live from the `;` to the enclosing `}` or drop.
                        let name = name.to_string();
                        let mut end = k + 1;
                        while end < tokens.len() {
                            if is_punct(lexed, end, "}")
                                && ctx.analysis.brace_depth.get(end).copied().unwrap_or(0) == depth
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
                        spans.push(GuardSpan {
                            name,
                            start: k + 1,
                            end,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    // Emit: one finding per channel op token, first (outermost) span wins.
    let mut reported: Vec<usize> = Vec::new();
    for span in &spans {
        for m in span.start..span.end.min(tokens.len()) {
            if is_ident(lexed, m, "drop")
                && is_punct(lexed, m + 1, "(")
                && ident_text(lexed, m + 2) == Some(span.name.as_str())
                && is_punct(lexed, m + 3, ")")
            {
                break;
            }
            if let Some(op) = ident_text(lexed, m) {
                if GUARDED_OPS.contains(&op)
                    && is_punct(lexed, m.wrapping_sub(1), ".")
                    && is_punct(lexed, m + 1, "(")
                    && !reported.contains(&m)
                {
                    let line = ctx.line(m);
                    if !ctx.analysis.in_test_code(line) {
                        reported.push(m);
                        ctx.emit(
                            out,
                            "guard-held-channel",
                            line,
                            format!(
                                "`.{op}()` while lock guard `{}` may still be held; \
                                 drop the guard first",
                                span.name
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// R4a: `==`/`!=` against a float literal.
fn rule_float_eq(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.is_test_file {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if !is_punct(lexed, i, "==") && !is_punct(lexed, i, "!=") {
            continue;
        }
        let line = ctx.line(i);
        if ctx.analysis.in_test_code(line) {
            continue;
        }
        let float_at = |idx: usize| {
            lexed
                .tokens
                .get(idx)
                .is_some_and(|t| t.kind == TokenKind::Float)
        };
        let lhs = i > 0 && float_at(i - 1);
        let rhs = float_at(i + 1) || (is_punct(lexed, i + 1, "-") && float_at(i + 2));
        if lhs || rhs {
            ctx.emit(
                out,
                "float-eq",
                line,
                "exact float comparison; prefer a tolerance, or suppress if exact-zero is intended"
                    .to_string(),
            );
        }
    }
}

/// R4b: `.partial_cmp()` outside the sanitizer allowlist.
fn rule_partial_cmp(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.is_test_file
        || ctx
            .config
            .partial_cmp_files
            .contains(&ctx.meta.rel_path.as_str())
    {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if !is_ident(lexed, i, "partial_cmp") || !is_punct(lexed, i.wrapping_sub(1), ".") {
            continue;
        }
        let line = ctx.line(i);
        if ctx.analysis.in_test_code(line) {
            continue;
        }
        ctx.emit(
            out,
            "partial-cmp",
            line,
            "`.partial_cmp()` returns None on NaN; use total_cmp".to_string(),
        );
    }
}

/// R5: `as` integer casts inside wire decode paths.
fn rule_decode_as_cast(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.is_test_file || ctx.meta.crate_name.as_deref() != Some("serve") {
        return;
    }
    let lexed = ctx.lexed;
    for scope in &ctx.analysis.fns {
        if !scope.name.starts_with("decode") && scope.name != "next_body" {
            continue;
        }
        for i in scope.body_start..scope.body_end.min(lexed.tokens.len()) {
            if !is_ident(lexed, i, "as") {
                continue;
            }
            let Some(ty) = ident_text(lexed, i + 1) else {
                continue;
            };
            if !INT_TYPES.contains(&ty) {
                continue;
            }
            let line = ctx.line(i);
            if ctx.analysis.in_test_code(line) {
                continue;
            }
            ctx.emit(
                out,
                "decode-as-cast",
                line,
                format!(
                    "`as {ty}` in decode path `{}` can truncate; use {ty}::try_from \
                     with a typed WireError",
                    scope.name
                ),
            );
        }
    }
}

/// Satellite: `unsafe` outside the audited inventory.
fn rule_unsafe_code(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .config
        .unsafe_files
        .contains(&ctx.meta.rel_path.as_str())
    {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if is_ident(lexed, i, "unsafe") {
            ctx.emit(
                out,
                "unsafe-code",
                ctx.line(i),
                "`unsafe` outside the audited inventory (serve syscall module)".to_string(),
            );
        }
    }
}

/// Satellite: every lib crate root must carry `#![forbid(unsafe_code)]`.
/// A crate that owns a file in the audited unsafe inventory may downgrade
/// to `#![deny(unsafe_code)]` instead — `forbid` cannot be overridden, and
/// the inventoried module needs a module-level `allow` to opt back in;
/// `rule_unsafe_code` still confines the `unsafe` to exactly that file.
fn rule_forbid_unsafe(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if !ctx.meta.is_lib_root {
        return;
    }
    let lexed = ctx.lexed;
    let has_attr = |word: &str| {
        (0..lexed.tokens.len()).any(|i| {
            is_ident(lexed, i, word)
                && is_punct(lexed, i + 1, "(")
                && is_ident(lexed, i + 2, "unsafe_code")
        })
    };
    if has_attr("forbid") {
        return;
    }
    // `crates/serve/src/lib.rs` → `crates/serve/`; `src/lib.rs` → `src/`.
    let crate_prefix = ctx
        .meta
        .rel_path
        .strip_suffix("src/lib.rs")
        .map(|p| format!("{p}src/"))
        .unwrap_or_default();
    let owns_inventory = !crate_prefix.is_empty()
        && ctx
            .config
            .unsafe_files
            .iter()
            .any(|f| f.starts_with(&crate_prefix));
    if has_attr("deny") && owns_inventory {
        return;
    }
    ctx.emit(
        out,
        "forbid-unsafe",
        1,
        "lib crate root missing #![forbid(unsafe_code)] (deny is accepted only \
         when the crate owns an audited unsafe-inventory module)"
            .to_string(),
    );
}

/// Parse an integer literal's text (`0x05`, `42`, `1_000`).
fn parse_int(text: &str) -> Option<u64> {
    let text = text.replace('_', "");
    if let Some(hex) = text.strip_prefix("0x") {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        u64::from_str_radix(&digits, 16).ok()
    } else if let Some(oct) = text.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = text.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else {
        let digits: String = text.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }
}

/// Value of the first integer-literal token between `from` and the next `;`.
fn const_value(lexed: &Lexed<'_>, from: usize) -> Option<(u64, usize)> {
    let mut i = from;
    while i < lexed.tokens.len() && !is_punct(lexed, i, ";") {
        if let Some(tok) = lexed.tokens.get(i) {
            if tok.kind == TokenKind::Int {
                return parse_int(lexed.text(tok)).map(|v| (v, i));
            }
        }
        i += 1;
    }
    None
}

/// R2: wire-protocol lockstep — every TAG_ constant must be referenced by at
/// least one encode fn and one decode fn, tag values must be unique, and the
/// version constants must exist, be ordered, and be documented.
fn rule_wire(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.rel_path != ctx.config.wire_file {
        return;
    }
    let lexed = ctx.lexed;

    // Collect `const TAG_*: u8 = 0x..;` declarations.
    let mut tags: Vec<(String, u64, u32)> = Vec::new();
    let mut wire_version: Option<u64> = None;
    let mut min_wire_version: Option<u64> = None;
    for i in 0..lexed.tokens.len() {
        if !is_ident(lexed, i, "const") {
            continue;
        }
        let Some(name) = ident_text(lexed, i + 1) else {
            continue;
        };
        let Some((value, _)) = const_value(lexed, i + 2) else {
            continue;
        };
        if name.starts_with("TAG_") {
            tags.push((name.to_string(), value, ctx.line(i + 1)));
        } else if name == "WIRE_VERSION" {
            wire_version = Some(value);
        } else if name == "MIN_WIRE_VERSION" {
            min_wire_version = Some(value);
        }
    }

    // Duplicate tag values.
    for (i, (name_a, value_a, _)) in tags.iter().enumerate() {
        for (name_b, value_b, line_b) in tags.iter().skip(i + 1) {
            if value_a == value_b {
                ctx.emit(
                    out,
                    "wire-tag-dup",
                    *line_b,
                    format!("{name_b} reuses frame-tag value {value_a:#04x} of {name_a}"),
                );
            }
        }
    }

    // Idents referenced inside encode*/decode* fn bodies.
    let mut encode_refs: Vec<&str> = Vec::new();
    let mut decode_refs: Vec<&str> = Vec::new();
    for scope in &ctx.analysis.fns {
        let sink: &mut Vec<&str> = if scope.name.starts_with("encode") {
            &mut encode_refs
        } else if scope.name.starts_with("decode") || scope.name == "next_body" {
            &mut decode_refs
        } else {
            continue;
        };
        for i in scope.body_start..scope.body_end.min(lexed.tokens.len()) {
            if let Some(text) = ident_text(lexed, i) {
                if text.starts_with("TAG_") {
                    sink.push(text);
                }
            }
        }
    }
    for (name, value, line) in &tags {
        if !encode_refs.iter().any(|r| r == name) {
            ctx.emit(
                out,
                "wire-tag-encode",
                *line,
                format!("{name} ({value:#04x}) is never referenced by any encode fn"),
            );
        }
        if !decode_refs.iter().any(|r| r == name) {
            ctx.emit(
                out,
                "wire-tag-decode",
                *line,
                format!("{name} ({value:#04x}) is never referenced by any decode fn"),
            );
        }
    }

    // Version constants: present, ordered, and documented in module docs.
    match (wire_version, min_wire_version) {
        (Some(cur), Some(min)) => {
            if min > cur {
                ctx.emit(
                    out,
                    "wire-version",
                    1,
                    format!("MIN_WIRE_VERSION ({min}) exceeds WIRE_VERSION ({cur})"),
                );
            }
        }
        _ => {
            ctx.emit(
                out,
                "wire-version",
                1,
                "wire.rs must declare both WIRE_VERSION and MIN_WIRE_VERSION".to_string(),
            );
        }
    }
    let mut module_docs = String::new();
    for comment in &lexed.comments {
        if comment.module_doc {
            module_docs.push_str(lexed.comment_text(comment));
            module_docs.push('\n');
        }
    }
    let mentions_min = module_docs.contains("MIN_WIRE_VERSION");
    // `MIN_WIRE_VERSION` contains `WIRE_VERSION` as a substring; strip it
    // before checking that the current version is documented on its own.
    let mentions_cur = module_docs
        .replace("MIN_WIRE_VERSION", "")
        .contains("WIRE_VERSION");
    if !mentions_min || !mentions_cur {
        ctx.emit(
            out,
            "wire-version",
            1,
            "wire.rs module docs must document the MIN_WIRE_VERSION..=WIRE_VERSION range"
                .to_string(),
        );
    }
}

/// R6: snapshot-format lockstep — the session module's durable snapshot
/// `VERSION` const must exist, be stamped by the encode path, and be
/// checked by the decode path with a typed `UnsupportedVersion` error.
/// This is what forces a format bump to touch writer and reader together
/// instead of silently shipping bytes an old reader misparses.
fn rule_snapshot_version(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.meta.rel_path != ctx.config.session_file {
        return;
    }
    let lexed = ctx.lexed;
    let mut version_line = None;
    for i in 0..lexed.tokens.len() {
        if is_ident(lexed, i, "const") && is_ident(lexed, i + 1, "VERSION") {
            version_line = Some(ctx.line(i + 1));
            break;
        }
    }
    let Some(line) = version_line else {
        ctx.emit(
            out,
            "snapshot-version-lockstep",
            1,
            "session module must declare a snapshot `VERSION` const".to_string(),
        );
        return;
    };
    let mut encode_stamps = false;
    let mut decode_checks = false;
    let mut decode_typed = false;
    for scope in &ctx.analysis.fns {
        let is_encode = scope.name.starts_with("encode");
        let is_decode = scope.name.starts_with("decode");
        if !is_encode && !is_decode {
            continue;
        }
        for i in scope.body_start..scope.body_end.min(lexed.tokens.len()) {
            let Some(text) = ident_text(lexed, i) else {
                continue;
            };
            if text == "VERSION" {
                if is_encode {
                    encode_stamps = true;
                } else {
                    decode_checks = true;
                }
            } else if text == "UnsupportedVersion" && is_decode {
                decode_typed = true;
            }
        }
    }
    if !encode_stamps {
        ctx.emit(
            out,
            "snapshot-version-lockstep",
            line,
            "snapshot VERSION is never stamped by any encode fn; a format bump \
             would not reach the bytes on disk"
                .to_string(),
        );
    }
    if !decode_checks {
        ctx.emit(
            out,
            "snapshot-version-lockstep",
            line,
            "snapshot VERSION is never checked by any decode fn; old readers \
             would misparse a bumped format"
                .to_string(),
        );
    }
    if !decode_typed {
        ctx.emit(
            out,
            "snapshot-version-lockstep",
            line,
            "no decode fn raises UnsupportedVersion; a version mismatch must \
             be a typed error, not a misparse"
                .to_string(),
        );
    }
}

/// Run every rule over one analyzed file.
pub fn check_file(
    meta: &FileMeta,
    lexed: &Lexed<'_>,
    analysis: &Analysis,
    config: &Config,
    out: &mut Vec<Finding>,
) {
    let ctx = Ctx {
        meta,
        lexed,
        analysis,
        config,
    };
    rule_unsafe_code(&ctx, out);
    rule_forbid_unsafe(&ctx, out);
    rule_no_panic(&ctx, out);
    rule_hot_path(&ctx, out);
    rule_channel_unwrap(&ctx, out);
    rule_guard_held_channel(&ctx, out);
    rule_float_eq(&ctx, out);
    rule_partial_cmp(&ctx, out);
    rule_decode_as_cast(&ctx, out);
    rule_wire(&ctx, out);
    rule_snapshot_version(&ctx, out);
}
