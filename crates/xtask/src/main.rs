//! `cargo xtask` — repository automation.
//!
//! The only subcommand so far is `lint`: a rule engine of source-level
//! checks clippy has no lint for, enforced over the workspace's own
//! crates. `lint --list` names every rule with a one-line summary;
//! `lint --rule NAME` runs one in isolation. The rules fall into two
//! families:
//!
//! - **repository conventions** — crate roots carry
//!   `#![forbid(unsafe_code)]` and docs, protocol-critical crates avoid
//!   `.unwrap()`, paper citations are spelled out, and the sans-I/O
//!   engine keeps its isolation;
//! - **concurrency discipline** — `crates/net` routes all
//!   synchronization through its `crate::sync` shim layer (so the
//!   `dagrider-check` model checker can interpose), the cross-file
//!   lock-acquisition graph stays acyclic, and the consensus event loop
//!   never blocks indefinitely.
//!
//! See DESIGN.md, "Concurrency discipline", for how these static passes
//! divide the work with the dynamic model checker.

mod engine;
mod rules;
mod source;

use std::process::ExitCode;

use engine::Rule;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask lint [--rule NAME] [--list]");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let rules = rules::registry();
    let mut selected: Vec<&Rule> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for rule in &rules {
                    println!("{:22} {}", rule.name, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--rule" => {
                let Some(name) = iter.next() else {
                    eprintln!("--rule needs a rule name (see `lint --list`)");
                    return ExitCode::from(2);
                };
                match rules.iter().find(|r| r.name == *name) {
                    Some(rule) => selected.push(rule),
                    None => {
                        eprintln!("unknown rule `{name}` (see `lint --list`)");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument `{other}`; usage: lint [--rule NAME] [--list]");
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected = rules.iter().collect();
    }

    let root = source::workspace_root();
    let findings = engine::run_rules(&root, &selected);
    for finding in &findings {
        // Report paths relative to the repo root so they are clickable
        // from any working directory inside it.
        let relative = finding.path.strip_prefix(&root).unwrap_or(&finding.path);
        println!("{}:{}: {}", relative.display(), finding.line, finding.message);
    }
    if findings.is_empty() {
        println!("xtask lint: {} rule(s) run, clean", selected.len());
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
