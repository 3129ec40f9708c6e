//! The lint rules. Each submodule — or function here — implements one
//! named pass; [`registry`] is the single list the CLI consumes.

pub mod lock_order;

use std::path::Path;

use crate::engine::{Finding, Rule};
use crate::source::{code_lines, crate_roots, read, rust_files};

/// Every rule, in the order they run under plain `cargo xtask lint`.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            name: "crate-root",
            summary: "crate roots carry #![forbid(unsafe_code)] and open with //! docs",
            run: check_crate_roots,
        },
        Rule {
            name: "panic-discipline",
            summary: "no .unwrap() and only message-bearing .expect() in protocol-critical crates",
            run: check_panic_discipline_tree,
        },
        Rule {
            name: "citation-style",
            summary: "paper citations in crates/core are spelled out (Algorithm N, §N)",
            run: check_citation_style_tree,
        },
        Rule {
            name: "engine-isolation",
            summary: "the sans-I/O core must not depend on the simulator",
            run: check_engine_isolation,
        },
        Rule {
            name: "sync-discipline",
            summary: "crates/net uses the crate::sync shims, never std::sync/std::thread directly",
            run: check_sync_discipline,
        },
        Rule {
            name: "lock-order",
            summary: "the cross-file lock-acquisition graph of crates/net stays acyclic",
            run: lock_order::check,
        },
        Rule {
            name: "consensus-blocking",
            summary: "no blocking calls inside the consensus-thread or reactor event loops",
            run: check_consensus_blocking,
        },
    ]
}

/// Rule `crate-root`: `#![forbid(unsafe_code)]` + leading `//!` docs in
/// crate roots.
fn check_crate_roots(root: &Path, findings: &mut Vec<Finding>) {
    for path in crate_roots(root) {
        check_crate_root(&path, findings);
    }
}

fn check_crate_root(path: &Path, findings: &mut Vec<Finding>) {
    let source = read(path);
    if !source.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            path: path.to_path_buf(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        });
    }
    let opens_with_docs = source
        .lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| l.trim_start().starts_with("//!"));
    if !opens_with_docs {
        findings.push(Finding {
            path: path.to_path_buf(),
            line: 1,
            message: "crate root must open with crate-level docs (`//!`)".into(),
        });
    }
}

/// Rule `panic-discipline`: no `.unwrap()`, and only message-bearing
/// `.expect("...")`, in non-test code of the protocol-critical crates.
fn check_panic_discipline_tree(root: &Path, findings: &mut Vec<Finding>) {
    for dir in [
        "crates/core/src",
        "crates/rbc/src",
        "crates/net/src",
        "crates/store/src",
        "crates/check/src",
    ] {
        for file in rust_files(&root.join(dir)) {
            check_panic_discipline(&file, findings);
        }
    }
}

fn check_panic_discipline(path: &Path, findings: &mut Vec<Finding>) {
    for (number, line) in code_lines(&read(path)) {
        if line.contains(".unwrap()") {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: number,
                message: "`.unwrap()` in protocol-critical code; return a typed error \
                          or use `.expect(\"<invariant>\")`"
                    .into(),
            });
        }
        for (at, _) in line.match_indices(".expect(") {
            let argument = line[at + ".expect(".len()..].trim_start();
            if !argument.starts_with('"') || argument.starts_with("\"\"") {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: number,
                    message: "`.expect(...)` must state its invariant as a non-empty \
                              string literal"
                        .into(),
                });
            }
        }
    }
}

/// Rule `citation-style`: spell out paper citations (`Algorithm`, `§`) —
/// abbreviations don't match the paper's own headings and defeat grep.
fn check_citation_style_tree(root: &Path, findings: &mut Vec<Finding>) {
    for file in rust_files(&root.join("crates/core/src")) {
        check_citation_style(&file, findings);
    }
}

fn check_citation_style(path: &Path, findings: &mut Vec<Finding>) {
    let source = read(path);
    for (index, line) in source.lines().enumerate() {
        let Some(at) = line.find("//") else { continue };
        let comment = &line[at..];
        for abbreviation in ["Alg.", "Sec."] {
            if comment.contains(abbreviation) {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: index + 1,
                    message: format!(
                        "comment cites the paper as `{abbreviation}`; spell it out \
                         (`Algorithm N` / `§N`) to match the paper's headings"
                    ),
                });
            }
        }
    }
}

/// Rule `engine-isolation`: the engine crate must not grow a simulator
/// dependency. The manifest check catches the dependency edge itself;
/// the source check catches `dagrider_simnet` paths that would only
/// compile if someone also re-added the edge (comments and strings are
/// exempt — prose may mention the simulator).
fn check_engine_isolation(root: &Path, findings: &mut Vec<Finding>) {
    let manifest = root.join("crates/core/Cargo.toml");
    for (index, line) in read(&manifest).lines().enumerate() {
        if line.contains("dagrider-simnet") {
            findings.push(Finding {
                path: manifest.clone(),
                line: index + 1,
                message: "the sans-I/O core must not depend on the simulator \
                          (`dagrider-simnet`); put driver glue in `dagrider-simactor`"
                    .into(),
            });
        }
    }
    for file in rust_files(&root.join("crates/core/src")) {
        for (number, line) in code_lines(&read(&file)) {
            if line.contains("dagrider_simnet") {
                findings.push(Finding {
                    path: file.clone(),
                    line: number,
                    message: "`dagrider_simnet` referenced from the sans-I/O core; \
                              the engine must stay driver-agnostic"
                        .into(),
                });
            }
        }
    }
}

/// Rule `sync-discipline`: everything in `crates/net` goes through the
/// `crate::sync` shim layer so the model checker can interpose on every
/// synchronization operation. A direct `std::sync`/`std::thread` use is
/// invisible to `dagrider-check` — a schedule the explorer can never
/// serialize — so only the shim module itself may name them. Test code
/// is exempt (tests run under the real scheduler anyway).
fn check_sync_discipline(root: &Path, findings: &mut Vec<Finding>) {
    let sync_dir = root.join("crates/net/src/sync");
    for file in rust_files(&root.join("crates/net/src")) {
        if file.starts_with(&sync_dir) {
            continue;
        }
        for (number, line) in code_lines(&read(&file)) {
            for token in ["std::sync", "std::thread"] {
                if line.contains(token) {
                    findings.push(Finding {
                        path: file.clone(),
                        line: number,
                        message: format!(
                            "`{token}` used directly in crates/net; go through the \
                             `crate::sync` shims so dagrider-check can schedule it"
                        ),
                    });
                }
            }
        }
    }
}

/// The event-loop functions the `consensus-blocking` rule patrols, as
/// `(file, function)` pairs relative to the workspace root. The reactor
/// sweep functions are held to the same standard as consensus: the
/// reactor thread owns every peer and client socket, so one blocking
/// call there stalls all of them at once. Accepting is budgeted into `accept_pending` (the
/// listener is non-blocking) and dialing lives on the dialer thread —
/// neither may creep into the sweeps.
const EVENT_LOOP_FNS: &[(&str, &str)] = &[
    ("crates/net/src/runtime.rs", "consensus_loop"),
    ("crates/net/src/reactor.rs", "reactor_loop"),
    ("crates/net/src/reactor.rs", "adopt_links"),
    ("crates/net/src/reactor.rs", "flush_links"),
    ("crates/net/src/reactor.rs", "pump_link"),
    ("crates/net/src/reactor.rs", "sweep_conns"),
    ("crates/net/src/reactor.rs", "sweep_clients"),
    ("crates/net/src/reactor.rs", "read_client"),
    ("crates/net/src/reactor.rs", "drain_admission"),
    ("crates/net/src/reactor.rs", "notify_ordered"),
    ("crates/net/src/reactor.rs", "flush_replies"),
    ("crates/net/src/reactor.rs", "pump_client_replies"),
];

/// Calls that can stall the consensus thread indefinitely. `.recv()` is
/// the exact untimed form — `.recv_timeout(` does not match — and
/// `.join()` a thread join's, which the engine's `join(now, timeout)` is not.
const BLOCKING_TOKENS: &[(&str, &str)] = &[
    (".join()", "joining a thread parks consensus until that thread exits"),
    (".recv()", "untimed receive can park consensus forever; use `.recv_timeout(tick)`"),
    (".wait(", "untimed condvar wait can park consensus forever; use a timed wait"),
    ("thread::sleep(", "sleeping stalls every timer and message in the event loop"),
    (
        ".lock()",
        "raw lock in the event loop; publish-side state goes through `lock_unpoisoned` \
                 on mutexes no peer thread holds across I/O",
    ),
    (".accept(", "socket accept belongs on the acceptor thread, never in consensus"),
    ("TcpStream::connect", "dialing belongs on writer threads, never in consensus"),
];

/// Rule `consensus-blocking`: the consensus thread is the protocol's
/// single-threaded heart — every message, timer, and ordering decision
/// funnels through its event loop. A call that can block indefinitely
/// there stops the whole node, so thread joins, untimed receives/waits,
/// sleeps, raw locks, and socket I/O are banned inside the functions in
/// [`EVENT_LOOP_FNS`].
fn check_consensus_blocking(root: &Path, findings: &mut Vec<Finding>) {
    for (relative, function) in EVENT_LOOP_FNS {
        let path = root.join(relative);
        if !path.is_file() {
            continue;
        }
        check_blocking_in_function(&read(&path), &path, function, findings);
    }
}

fn check_blocking_in_function(
    source: &str,
    path: &Path,
    function: &str,
    findings: &mut Vec<Finding>,
) {
    let Some((start, end)) = function_region(source, function) else { return };
    for (number, line) in code_lines(source) {
        if number < start || number > end {
            continue;
        }
        for (token, why) in BLOCKING_TOKENS {
            if line.contains(token) {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: number,
                    message: format!("`{token}` inside `{function}`: {why}"),
                });
            }
        }
    }
}

/// 1-based `(first, last)` line of `fn {name}`'s item, found by brace
/// counting over comment/string-stripped lines. Returns `None` when the
/// function is absent (e.g. renamed) — the caller's rule then reports
/// nothing rather than a false positive, and the function list is kept
/// honest by the unit tests.
fn function_region(source: &str, name: &str) -> Option<(usize, usize)> {
    let needle = format!("fn {name}");
    let mut in_block_comment = false;
    let mut start = None;
    let mut depth = 0usize;
    let mut seen_open = false;
    for (index, raw) in source.lines().enumerate() {
        let line = crate::source::strip_line(raw, &mut in_block_comment);
        if start.is_none() {
            if let Some(at) = line.find(&needle) {
                // Word boundary: `fn consensus_loop` must not match
                // `fn consensus_loop_helper`.
                let after = line[at + needle.len()..].chars().next();
                if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    start = Some(index + 1);
                } else {
                    continue;
                }
            } else {
                continue;
            }
        }
        depth += line.matches('{').count();
        if line.contains('{') {
            seen_open = true;
        }
        depth = depth.saturating_sub(line.matches('}').count());
        if seen_open && depth == 0 {
            return Some((start.expect("set when the needle matched"), index + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_tree(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        dir
    }

    #[test]
    fn registry_names_are_unique_and_kebab_case() {
        let rules = registry();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate rule name");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule name {name} is not kebab-case"
            );
        }
    }

    #[test]
    fn expect_rule_matches_only_non_literal_messages() {
        let mut findings = Vec::new();
        let dir = temp_tree("xtask-lint-test");
        let file = dir.join("sample.rs");
        std::fs::write(
            &file,
            "fn f() { a.expect(\"invariant holds\"); b.expect(msg); c.unwrap(); }\n",
        )
        .expect("temp file is writable");
        check_panic_discipline(&file, &mut findings);
        assert_eq!(
            findings.len(),
            2,
            "{:?}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_discipline_flags_net_but_exempts_the_shim_module_and_tests() {
        let root = temp_tree("xtask-sync-discipline-test");
        let net = root.join("crates/net/src");
        std::fs::create_dir_all(net.join("sync")).expect("temp dir is writable");
        std::fs::write(
            net.join("runtime.rs"),
            "use std::sync::Mutex;\n\
             fn f() { std::thread::spawn(|| {}); }\n\
             #[cfg(test)]\nmod tests {\n    use std::sync::Arc;\n}\n",
        )
        .expect("temp file is writable");
        std::fs::write(net.join("sync/mod.rs"), "pub use std::sync::Mutex;\n")
            .expect("temp file is writable");
        let mut findings = Vec::new();
        check_sync_discipline(&root, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            [1, 2],
            "{:?}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn function_region_brackets_the_right_item() {
        let source = "fn other() {\n    x();\n}\n\nfn target(a: u32) {\n    if a > 0 {\n        y();\n    }\n}\n\nfn target_helper() {}\n";
        assert_eq!(function_region(source, "target"), Some((5, 9)));
        assert_eq!(function_region(source, "missing"), None);
    }

    #[test]
    fn event_loop_fns_exist_in_the_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (relative, function) in EVENT_LOOP_FNS {
            let source = read(&root.join(relative));
            assert!(
                function_region(&source, function).is_some(),
                "{relative} no longer contains `fn {function}`; update EVENT_LOOP_FNS"
            );
        }
    }

    #[test]
    fn consensus_blocking_flags_untimed_calls_but_not_timed_ones() {
        let source = "fn consensus_loop() {\n\
                      \x20   let e = rx.recv_timeout(tick);\n\
                      \x20   let bad = rx.recv();\n\
                      \x20   handle.join();\n\
                      \x20   let turn = engine.join(now, timeout);\n\
                      }\n\
                      fn elsewhere() { other.recv(); }\n";
        let mut findings = Vec::new();
        check_blocking_in_function(
            source,
            Path::new("synthetic.rs"),
            "consensus_loop",
            &mut findings,
        );
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            [3, 4],
            "{:?}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }
}
