//! End-to-end analyzer tests over the committed fixture trees in
//! `crates/analyze/fixtures/`. The `bad/` tree has one seeded violation
//! per rule (the same tree the CI `analyze` job asserts a non-zero exit
//! on); `clean/` must stay spotless.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_fixture(name: &str, config: &str) -> csq_analyze::Report {
    let root = fixture(name);
    let cfg = csq_analyze::load_config(&root.join(config)).expect("fixture config must load");
    csq_analyze::run(&root, &cfg).expect("fixture tree must scan")
}

#[test]
fn bad_tree_reports_every_seeded_violation() {
    let report = run_fixture("bad", "analyze.toml");
    assert!(!report.is_clean());

    let count = |rule: &str| report.violations.iter().filter(|v| v.rule == rule).count();
    // service.rs seeds: .unwrap, .expect, panic!, todo! (the fifth panic
    // site is allowlisted and must NOT appear here).
    assert_eq!(count("no-panic-path"), 4, "{:#?}", report.violations);
    assert_eq!(count("no-raw-sync"), 1, "{:#?}", report.violations);
    assert_eq!(count("safety-comment"), 1, "{:#?}", report.violations);
    assert_eq!(count("no-bare-sleep"), 1, "{:#?}", report.violations);
    // codec.rs seeds: inline shape + bound shape (guarded/clamped stay clean).
    assert_eq!(count("wire-capacity"), 2, "{:#?}", report.violations);
    // plan.rs seeds: one `.snapshot()` call (the profile read stays clean).
    assert_eq!(count("plan-no-snapshot"), 1, "{:#?}", report.violations);
    // engine.rs seeds: one `env::var` read (the parameter stays clean).
    assert_eq!(count("no-env-knob"), 1, "{:#?}", report.violations);
}

#[test]
fn violations_carry_usable_locations() {
    let report = run_fixture("bad", "analyze.toml");
    let unsafe_v = report
        .violations
        .iter()
        .find(|v| v.rule == "safety-comment")
        .expect("seeded safety violation");
    assert_eq!(unsafe_v.path, "src/service.rs");
    assert!(unsafe_v.line > 0);
    assert!(unsafe_v.excerpt.contains("from_utf8_unchecked"));
}

#[test]
fn allowlisted_site_is_suppressed_and_not_stale() {
    let report = run_fixture("bad", "analyze.toml");
    assert_eq!(report.allowed.len(), 1, "{:#?}", report.allowed);
    assert!(
        report.stale_allows.is_empty(),
        "the entry matched, so it must not be stale"
    );
    assert!(report.allowed[0]
        .0
        .excerpt
        .contains("allowlisted: length checked two lines above"));
}

#[test]
fn stale_allowlist_entry_fails_the_run() {
    let report = run_fixture("bad", "analyze-stale.toml");
    assert_eq!(report.stale_allows, vec![0]);
    assert!(!report.is_clean(), "stale entries must fail the run");
}

#[test]
fn clean_tree_is_clean() {
    let report = run_fixture("clean", "analyze.toml");
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn binary_exit_codes_match_the_contract() {
    let bin = env!("CARGO_BIN_EXE_csq-analyze");
    let run = |root: &str, config: &str| {
        Command::new(bin)
            .arg("--root")
            .arg(fixture(root))
            .arg("--config")
            .arg(fixture(root).join(config))
            .output()
            .expect("analyzer binary must spawn")
    };

    // Seeded violations: exit 1, and the report names rule and site.
    let bad = run("bad", "analyze.toml");
    assert_eq!(bad.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("no-panic-path"), "{stdout}");
    assert!(stdout.contains("src/service.rs"), "{stdout}");

    // Clean tree: exit 0.
    assert_eq!(run("clean", "analyze.toml").status.code(), Some(0));

    // Reason-less allowlist entry: config rejected, exit 2.
    let noreason = run("bad", "analyze-noreason.toml");
    assert_eq!(noreason.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&noreason.stderr);
    assert!(stderr.contains("reason"), "{stderr}");
}

#[test]
fn workspace_tree_passes_its_own_linter() {
    // The real gate also runs in CI; running it here keeps `cargo test`
    // self-contained. CARGO_MANIFEST_DIR = crates/analyze → workspace root
    // is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root must resolve");
    let cfg = csq_analyze::load_config(&root.join("analyze.toml"))
        .expect("workspace analyze.toml must load");
    let report = csq_analyze::run(&root, &cfg).expect("workspace tree must scan");
    assert!(
        report.is_clean(),
        "workspace violations: {:#?}\nstale allowlist entries: {:?}",
        report.violations,
        report.stale_allows
    );
}
