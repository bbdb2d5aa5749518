//! The invariant rules. Each rule scans the token stream produced by
//! [`crate::lexer`] and emits [`Violation`]s; path scoping (which rules
//! apply to which files) is decided by the caller from `analyze.toml`.

use crate::lexer::{LexOut, Token};

/// One rule violation at a specific site.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule name, e.g. `no-panic-path`.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of what was found.
    pub message: String,
    /// The full source line, used for allowlist pattern matching.
    pub excerpt: String,
}

/// Which rule families apply to the file being scanned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// `no-panic-path` applies (service-path code).
    pub service: bool,
    /// `wire-capacity` applies (codec / frame-decode code).
    pub codec: bool,
    /// `plan-no-snapshot` applies (planning-path code).
    pub plan: bool,
    /// `no-env-knob` applies (library code of the engine crates).
    pub engine: bool,
    /// `no-statement-thread` applies (code one statement runs through).
    pub statement: bool,
    /// `no-raw-sync` applies (all production code outside `vendor/` — the
    /// shims themselves are the one place raw `std::sync` belongs).
    pub sync: bool,
    /// `no-bare-sleep` applies (service-path code minus the sanctioned
    /// backoff helper, which is the one place a service-path sleep belongs).
    pub sleep: bool,
}

/// Panicking constructs banned on service paths: methods called as
/// `.name(` and macros invoked as `name!`.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// `std::thread` items that start a thread: banned on statement paths.
const THREAD_STARTS: [&str; 3] = ["spawn", "scope", "Builder"];

/// `std::sync` items that must go through the vendored shims instead.
const RAW_SYNC: [&str; 4] = ["Mutex", "RwLock", "Condvar", "mpsc"];

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit.
const SAFETY_WINDOW: u32 = 5;

/// Run every applicable rule over one lexed file.
pub fn check_file(path: &str, src: &str, lexed: &LexOut, scope: Scope) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let toks = &lexed.tokens;
    let exempt = test_exempt_mask(toks);
    let mut out = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };

        // Rule: no-panic-path. `.unwrap(` / `.expect(` / `panic!(` etc. in
        // service-path production code. `#[cfg(test)]` and `#[test]` blocks
        // are exempt — tests may assert by panicking.
        let called_as_method =
            i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        // `<module>::<id>`, in a call or a `use`.
        let via_path = |module: &str| {
            i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].ident() == Some(module)
        };

        if scope.service && !exempt[i] {
            if called_as_method && PANIC_METHODS.contains(&id) {
                out.push(Violation {
                    rule: "no-panic-path",
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        ".{id}() on a service path can abort a worker thread mid-query; \
                         return a CsqError instead (or allowlist with a proof of infallibility)"
                    ),
                    excerpt: excerpt(t.line),
                });
            }
            if PANIC_MACROS.contains(&id) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                out.push(Violation {
                    rule: "no-panic-path",
                    path: path.to_string(),
                    line: t.line,
                    message: format!("{id}! on a service path; return a CsqError instead"),
                    excerpt: excerpt(t.line),
                });
            }
        }

        // Rule: plan-no-snapshot. `.snapshot()` on the planning path
        // materializes a whole table as row vectors, which makes every
        // plan-cache miss O(table size); plan-time numbers come from
        // `Table::profile`. Tests may snapshot to build an oracle.
        if scope.plan && !exempt[i] && called_as_method && id == "snapshot" {
            out.push(Violation {
                rule: "plan-no-snapshot",
                path: path.to_string(),
                line: t.line,
                message: ".snapshot() on the planning path rebuilds the whole table per plan; \
                          read Table::profile() (O(width)) instead"
                    .to_string(),
                excerpt: excerpt(t.line),
            });
        }

        // Rule: no-bare-sleep. `thread::sleep` (or `std::thread::sleep`, or
        // a `use` that imports it) on a service path pins a worker thread
        // for a hard-coded interval: it ignores deadlines, shutdown flags,
        // and cancellation. Waits belong on the deadline-aware choke points
        // (`Backoff::sleep`, `recv_timeout`, the connection idle timeout).
        if scope.sleep && !exempt[i] && id == "sleep" && via_path("thread") {
            out.push(Violation {
                rule: "no-bare-sleep",
                path: path.to_string(),
                line: t.line,
                message: "bare thread::sleep on a service path pins a worker for a fixed \
                          interval, ignoring deadlines and cancellation; wait through \
                          Backoff::sleep / recv_timeout / an idle timeout instead"
                    .to_string(),
                excerpt: excerpt(t.line),
            });
        }

        // Rule: no-env-knob. `env::var` / `env::var_os` in engine library
        // code is a setting no signature shows and no test matrix covers; a
        // caller that wants a value passes it. A program's environment is
        // its own interface, so binaries and the bench harness are outside
        // the group.
        if scope.engine && !exempt[i] && (id == "var" || id == "var_os") && via_path("env") {
            out.push(Violation {
                rule: "no-env-knob",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "env::{id} in engine library code is a knob no caller can see; take the \
                     value as a parameter (or measure it) instead"
                ),
                excerpt: excerpt(t.line),
            });
        }

        // Rule: no-statement-thread. `thread::spawn`, `thread::scope` or a
        // `thread::Builder` on a statement path starts a thread per
        // statement: a spawn and a join on every op, and a cross-thread
        // wake-up per message. A statement keeps its requests in flight by
        // writing them before it reads the replies, on the calling thread.
        if scope.statement && !exempt[i] && THREAD_STARTS.contains(&id) && via_path("thread") {
            out.push(Violation {
                rule: "no-statement-thread",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "thread::{id} on a statement path starts a thread per statement; send \
                     every request, then read the replies, on the calling thread"
                ),
                excerpt: excerpt(t.line),
            });
        }

        // Rule: safety-comment. Every `unsafe` keyword needs a `// SAFETY:`
        // comment on the same line or within the preceding window. Applies
        // everywhere, vendor and tests included: the justification is the
        // point, not the code's location.
        if id == "unsafe" {
            let ok = lexed
                .safety_comment_lines
                .iter()
                .any(|&l| l <= t.line && t.line - l <= SAFETY_WINDOW);
            if !ok {
                out.push(Violation {
                    rule: "safety-comment",
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} \
                         lines above it"
                    ),
                    excerpt: excerpt(t.line),
                });
            }
        }

        // Rule: no-raw-sync. `std::sync::{Mutex, RwLock, Condvar, mpsc}`
        // outside vendor/. The vendored parking_lot / crossbeam shims are
        // the mandated choke points (that is what makes lockcheck able to
        // see every acquisition); raw std::sync bypasses them. Atomics and
        // Arc via std::sync are fine.
        if scope.sync && !exempt[i] && id == "std" {
            if let Some((bad, bad_line)) = match_raw_sync(toks, i) {
                out.push(Violation {
                    rule: "no-raw-sync",
                    path: path.to_string(),
                    line: bad_line,
                    message: format!(
                        "std::sync::{bad} bypasses the vendored sync shims (and the \
                         lockcheck instrumentation); use parking_lot::/crossbeam:: instead"
                    ),
                    excerpt: excerpt(bad_line),
                });
            }
        }

        // Rule: wire-capacity. In codec paths, `Vec::with_capacity(n)` where
        // `n` comes straight from a wire-supplied `take_u32` without a
        // `take_count`/`.min(` guard lets a 4-byte frame request a 4 GiB
        // allocation.
        if scope.codec && !exempt[i] && id == "with_capacity" {
            if let Some(v) = check_wire_capacity(path, toks, i, &excerpt) {
                out.push(v);
            }
        }
    }
    out
}

/// Mark every token inside a `#[cfg(test)]`- or `#[test]`-attributed item's
/// braces as exempt from the service-path rules.
fn test_exempt_mask(toks: &[Token]) -> Vec<bool> {
    let mut exempt = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        // Attribute: `#[ ... ]` (outer) or `#![ ... ]` (inner).
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                // Collect the attribute body up to the matching `]`.
                let mut depth = 0usize;
                let mut body: Vec<&Token> = Vec::new();
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if depth >= 1 {
                        body.push(&toks[k]);
                    }
                    k += 1;
                }
                if attr_is_test(&body) {
                    // Find the attributed item's block: scan forward to the
                    // first `{` (an intervening `;` means a block-less item
                    // like `#[cfg(test)] use …;` — nothing to exempt).
                    let mut m = k + 1;
                    while m < toks.len() && !toks[m].is_punct('{') && !toks[m].is_punct(';') {
                        m += 1;
                    }
                    if m < toks.len() && toks[m].is_punct('{') {
                        let mut bd = 0usize;
                        let mut e = m;
                        while e < toks.len() {
                            if toks[e].is_punct('{') {
                                bd += 1;
                            } else if toks[e].is_punct('}') {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            e += 1;
                        }
                        for slot in exempt.iter_mut().take(e.min(toks.len() - 1) + 1).skip(m) {
                            *slot = true;
                        }
                    }
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    exempt
}

/// Does an attribute body (tokens between `[` and `]`) mark test-only code?
/// Matches `test`, `cfg(test)`, `cfg(any(test, …))`, and `foo::test`-style
/// custom test macros.
fn attr_is_test(body: &[&Token]) -> bool {
    let idents: Vec<&str> = body.iter().filter_map(|t| t.ident()).collect();
    match idents.as_slice() {
        // Bare `#[test]`.
        ["test"] => true,
        // `#[cfg(test)]` and nested forms mentioning `test`.
        _ => idents.first() == Some(&"cfg") && idents.contains(&"test"),
    }
}

/// Match `std :: sync :: X` (or `std :: sync :: { … }` use-lists) starting
/// at the `std` token; return the banned item and its line if found.
fn match_raw_sync(toks: &[Token], i: usize) -> Option<(String, u32)> {
    let p = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    let id = |k: usize| toks.get(k).and_then(|t| t.ident());
    if !(p(i + 1, ':') && p(i + 2, ':') && id(i + 3) == Some("sync")) {
        return None;
    }
    if !(p(i + 4, ':') && p(i + 5, ':')) {
        return None;
    }
    // Direct path: std::sync::Mutex / std::sync::mpsc::channel / …
    if let Some(x) = id(i + 6) {
        if RAW_SYNC.contains(&x) {
            return Some((x.to_string(), toks[i + 6].line));
        }
        return None;
    }
    // Brace list: use std::sync::{Arc, Mutex, atomic::…};
    if p(i + 6, '{') {
        let mut depth = 0usize;
        let mut k = i + 6;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let Some(x) = toks[k].ident() {
                if RAW_SYNC.contains(&x) {
                    return Some((x.to_string(), toks[k].line));
                }
            }
            k += 1;
        }
    }
    None
}

/// `with_capacity(` at index `i`: flag when the capacity is wire-supplied
/// and unguarded. Two shapes are recognised:
///   1. inline — `Vec::with_capacity(take_u32(buf)? as usize)`
///   2. via binding — `let n = take_u32(buf)?; … with_capacity(n as usize)`
///      where the binding line lacks a `take_count` / `.min(` guard.
///
/// The guarded idiom this codebase uses everywhere is
/// `take_count(buf, min_bytes_each)`.
fn check_wire_capacity(
    path: &str,
    toks: &[Token],
    i: usize,
    excerpt: &dyn Fn(u32) -> String,
) -> Option<Violation> {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // Collect argument tokens to the matching `)`.
    let mut depth = 0usize;
    let mut k = i + 1;
    let mut args: Vec<&Token> = Vec::new();
    while k < toks.len() {
        if toks[k].is_punct('(') {
            depth += 1;
        } else if toks[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if depth >= 1 && k > i + 1 {
            args.push(&toks[k]);
        }
        k += 1;
    }
    let arg_idents: Vec<&str> = args.iter().filter_map(|t| t.ident()).collect();

    // Shape 1: take_u32 appears inline in the argument, unguarded.
    if arg_idents.contains(&"take_u32")
        && !arg_idents.contains(&"take_count")
        && !arg_idents.contains(&"min")
    {
        return Some(Violation {
            rule: "wire-capacity",
            path: path.to_string(),
            line: toks[i].line,
            message: "Vec::with_capacity fed directly by a wire-supplied take_u32; \
                      validate with take_count (or clamp with .min) first"
                .to_string(),
            excerpt: excerpt(toks[i].line),
        });
    }

    // Shape 2: single-identifier argument (modulo casts) bound from an
    // unguarded take_u32 earlier in the same function. We look backwards
    // for `let [mut] <name> =` and inspect that statement's tokens.
    let name = match arg_idents.as_slice() {
        [n] => *n,
        [n, "as", _] => *n,
        _ => return None,
    };
    let mut j = i;
    while j > 0 {
        j -= 1;
        if toks[j].ident() == Some(name) {
            let prev = toks[..j].iter().rev().take(2).filter_map(|t| t.ident());
            let is_let_binding = prev.clone().any(|s| s == "let");
            if !is_let_binding {
                continue;
            }
            // Statement tokens from the binding to the next `;`.
            let stmt: Vec<&str> = toks[j..]
                .iter()
                .take_while(|t| !t.is_punct(';'))
                .filter_map(|t| t.ident())
                .collect();
            if stmt.contains(&"take_u32") && !stmt.contains(&"take_count") && !stmt.contains(&"min")
            {
                return Some(Violation {
                    rule: "wire-capacity",
                    path: path.to_string(),
                    line: toks[i].line,
                    message: format!(
                        "Vec::with_capacity({name}) where `{name}` is a wire-supplied \
                         take_u32 value (bound on line {}) without a take_count/.min \
                         guard",
                        toks[j].line
                    ),
                    excerpt: excerpt(toks[i].line),
                });
            }
            return None; // nearest binding is guarded or not wire-fed
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, scope: Scope) -> Vec<Violation> {
        check_file("x.rs", src, &lex(src), scope)
    }

    const SERVICE: Scope = Scope {
        service: true,
        codec: false,
        plan: false,
        engine: false,
        statement: false,
        sync: true,
        sleep: true,
    };
    const CODEC: Scope = Scope {
        service: false,
        codec: true,
        plan: false,
        engine: false,
        statement: false,
        sync: false,
        sleep: false,
    };
    const PLAN: Scope = Scope {
        service: false,
        codec: false,
        plan: true,
        engine: false,
        statement: false,
        sync: false,
        sleep: false,
    };
    const ENGINE: Scope = Scope {
        service: false,
        codec: false,
        plan: false,
        engine: true,
        statement: false,
        sync: false,
        sleep: false,
    };
    const STATEMENT: Scope = Scope {
        service: false,
        codec: false,
        plan: false,
        engine: false,
        statement: true,
        sync: false,
        sleep: false,
    };

    #[test]
    fn unwrap_in_service_code_is_flagged() {
        let v = run("fn f() { x.unwrap(); }", SERVICE);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-panic-path");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let v = run(
            "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }",
            SERVICE,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn expect_attribute_is_not_flagged() {
        // `#[expect(lint)]` is an attribute, not the panicking method.
        let v = run("#[expect(dead_code)]\nfn f() {}", SERVICE);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn panic_macros_are_flagged() {
        let v = run("fn f() { panic!(\"boom\"); todo!(); }", SERVICE);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "no-panic-path"));
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); panic!(); }\n}\n";
        assert!(run(src, SERVICE).is_empty());
    }

    #[test]
    fn test_fn_is_exempt_but_code_after_is_not() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn prod() { y.unwrap(); }\n";
        let v = run(src, SERVICE);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = run("fn f() { unsafe { g() } }", SERVICE);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_with_nearby_safety_comment_is_clean() {
        let src = "// SAFETY: g has no preconditions here\nfn f() { unsafe { g() } }";
        assert!(run(src, SERVICE).is_empty());
    }

    #[test]
    fn safety_comment_too_far_away_does_not_count() {
        let src = "// SAFETY: stale\n\n\n\n\n\n\nfn f() { unsafe { g() } }";
        let v = run(src, SERVICE);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn raw_sync_mutex_is_flagged_and_atomics_are_not() {
        let v = run(
            "use std::sync::Mutex;\nuse std::sync::atomic::AtomicU64;\nuse std::sync::Arc;",
            SERVICE,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-raw-sync");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn raw_sync_in_use_brace_list_is_flagged() {
        let v = run("use std::sync::{Arc, Mutex};", SERVICE);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("Mutex"));
    }

    #[test]
    fn mpsc_is_flagged() {
        let v = run("use std::sync::mpsc::channel;", SERVICE);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("mpsc"));
    }

    #[test]
    fn bare_sleep_is_flagged_in_both_spellings() {
        let v = run(
            "fn f() { std::thread::sleep(D); }\nfn g() { thread::sleep(D); }",
            SERVICE,
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "no-bare-sleep"));
        assert_eq!((v[0].line, v[1].line), (1, 2));
    }

    #[test]
    fn sleep_import_is_flagged() {
        let v = run("use std::thread::sleep;", SERVICE);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-bare-sleep");
    }

    #[test]
    fn other_sleeps_are_not_flagged() {
        // A method or free fn named `sleep` that is not thread::sleep —
        // e.g. the sanctioned Backoff::sleep — is fine.
        let v = run(
            "fn f(b: &Backoff) { b.sleep(0, None); Backoff::sleep(b, 0, None); }",
            SERVICE,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sleep_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { std::thread::sleep(D); }\n}";
        assert!(run(src, SERVICE).is_empty());
    }

    #[test]
    fn snapshot_call_on_the_planning_path_is_flagged() {
        let src = "fn stats(t: &Table) -> usize { t.snapshot().len() }\n\
                   fn fine(t: &Table) { let snapshot = t.profile(); snapshot_of(t); }\n\
                   #[cfg(test)]\nmod tests {\n fn oracle(t: &Table) { t.snapshot(); }\n}";
        let v = run(src, PLAN);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "plan-no-snapshot");
        assert_eq!(v[0].line, 1);
        assert!(
            run(src, SERVICE).is_empty(),
            "only the plan group is scoped"
        );
    }

    #[test]
    fn env_reads_in_engine_code_are_flagged() {
        let src = "fn workers() -> usize { std::env::var(\"W\").map_or(1, parse) }\n\
                   fn home() -> bool { env::var_os(\"HOME\").is_some() }\n\
                   fn fine(env: &Env) { env.var(\"x\"); std::env::args(); let var = 1; }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { std::env::var(\"TMP\"); }\n}";
        let v = run(src, ENGINE);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "no-env-knob"));
        assert_eq!((v[0].line, v[1].line), (1, 2));
        assert!(
            run(src, SERVICE).is_empty(),
            "only the engine group is scoped"
        );
    }

    #[test]
    fn thread_starts_on_a_statement_path_are_flagged() {
        let src = "fn a() { std::thread::spawn(f); }\n\
                   fn b() { thread::scope(|s| s.spawn(f)); }\n\
                   use std::thread::spawn;\n\
                   fn c() { thread::Builder::new().spawn(f); }\n\
                   fn fine(s: &Scope) { s.spawn(f); scope(); thread::current(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(f); }\n}";
        let v = run(src, STATEMENT);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "no-statement-thread"));
        let lines: Vec<u32> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [1, 2, 3, 4]);
        assert!(
            run(src, SERVICE).is_empty(),
            "only the statement group is scoped"
        );
    }

    #[test]
    fn inline_wire_capacity_is_flagged() {
        let v = run(
            "fn d(b: &mut B) { let v = Vec::with_capacity(take_u32(b)? as usize); }",
            CODEC,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wire-capacity");
    }

    #[test]
    fn bound_wire_capacity_is_flagged() {
        let src = "fn d(b: &mut B) {\n let n = take_u32(b)? as usize;\n \
                   let v = Vec::with_capacity(n);\n}";
        let v = run(src, CODEC);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("line 2"), "{}", v[0].message);
    }

    #[test]
    fn take_count_guard_is_clean() {
        let src = "fn d(b: &mut B) {\n let n = take_count(b, 2)?;\n \
                   let v = Vec::with_capacity(n);\n}";
        assert!(run(src, CODEC).is_empty());
    }

    #[test]
    fn clamped_capacity_is_clean() {
        let src = "fn d(b: &mut B) {\n let n = (take_u32(b)? as usize).min(MAX);\n \
                   let v = Vec::with_capacity(n);\n}";
        assert!(run(src, CODEC).is_empty());
    }

    #[test]
    fn literal_capacity_is_clean() {
        assert!(run("fn f() { let v = Vec::with_capacity(16); }", CODEC).is_empty());
    }
}
