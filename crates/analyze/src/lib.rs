//! `csq-analyze`: a dependency-free static pass enforcing the workspace's
//! concurrency-correctness invariants. See DESIGN.md §9 for the rule
//! catalogue and the allowlist burn-down policy.
//!
//! The analyzer lexes (it does not fully parse) every `.rs` file under the
//! walked roots and matches token patterns. That makes it fast and robust
//! to non-compiling input, at the cost of heuristics documented per-rule in
//! [`rules`]. False positives are burned down explicitly through the
//! `analyze.toml` allowlist — never silently.

pub mod config;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::{AllowEntry, Config};
pub use rules::{Scope, Violation};

/// Directory roots walked relative to the workspace root.
const WALK_ROOTS: [&str; 4] = ["crates", "src", "vendor", "tests"];

/// Path components that are never production code; the service-path rules
/// skip files living under them (the safety-comment rule still applies).
const TEST_DIR_MARKERS: [&str; 4] = ["tests", "benches", "examples", "fixtures"];

/// The one sanctioned sleep site on the service paths: the seeded,
/// deadline-aware backoff helper. Structurally exempt from `no-bare-sleep`
/// (not allowlisted — the helper is permanent, and the allowlist is a
/// burn-down list).
const SANCTIONED_SLEEP: &str = "crates/client/src/backoff.rs";

/// Outcome of an analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by any allowlist entry.
    pub violations: Vec<Violation>,
    /// Violations suppressed by the allowlist (counted for the summary).
    pub allowed: Vec<(Violation, usize)>,
    /// Indices (into `config.allow`) of entries that matched nothing: the
    /// underlying site was fixed, so the entry must be deleted.
    pub stale_allows: Vec<usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean: no live violations and no stale
    /// allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }
}

/// Run the analyzer over the workspace rooted at `root`.
pub fn run(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    let mut allow_hits = vec![0usize; cfg.allow.len()];

    for abs in &files {
        let rel = rel_path(root, abs);
        if cfg.exclude.iter().any(|p| path_matches(&rel, p)) {
            continue;
        }
        let src = fs::read_to_string(abs)?;
        let service =
            cfg.service_paths.iter().any(|p| path_matches(&rel, p)) && !is_test_path(&rel);
        let scope = Scope {
            service,
            codec: cfg.codec_paths.iter().any(|p| path_matches(&rel, p)) && !is_test_path(&rel),
            plan: cfg.plan_paths.iter().any(|p| path_matches(&rel, p)) && !is_test_path(&rel),
            engine: cfg.engine_paths.iter().any(|p| path_matches(&rel, p)) && !is_test_path(&rel),
            sync: !rel.starts_with("vendor/") && !is_test_path(&rel),
            sleep: service && rel != SANCTIONED_SLEEP,
        };
        report.files_scanned += 1;
        let lexed = lexer::lex(&src);
        for v in rules::check_file(&rel, &src, &lexed, scope) {
            match cfg.allow.iter().position(|a| allow_matches(a, &v)) {
                Some(idx) => {
                    allow_hits[idx] += 1;
                    report.allowed.push((v, idx));
                }
                None => report.violations.push(v),
            }
        }
    }

    report.stale_allows = allow_hits
        .iter()
        .enumerate()
        .filter(|(_, &hits)| hits == 0)
        .map(|(i, _)| i)
        .collect();
    Ok(report)
}

/// Load `analyze.toml` from `path`.
pub fn load_config(path: &Path) -> io::Result<Config> {
    let text = fs::read_to_string(path)?;
    Config::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

fn allow_matches(a: &AllowEntry, v: &Violation) -> bool {
    a.rule == v.rule && a.file == v.path && v.excerpt.contains(&a.pattern)
}

/// Is `rel` under `prefix` (whole-component match, so `crates/net` does not
/// match `crates/network`) or exactly equal to it (file prefix)?
fn path_matches(rel: &str, prefix: &str) -> bool {
    rel == prefix || rel.starts_with(&format!("{}/", prefix.trim_end_matches('/')))
}

/// Test/bench/example/fixture files are exempt from service-path rules.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|comp| TEST_DIR_MARKERS.contains(&comp))
}

fn rel_path(root: &Path, abs: &Path) -> String {
    abs.strip_prefix(root)
        .unwrap_or(abs)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_prefix_matching_is_component_wise() {
        assert!(path_matches("crates/net/src/tcp.rs", "crates/net/src"));
        assert!(path_matches(
            "crates/net/src/tcp.rs",
            "crates/net/src/tcp.rs"
        ));
        assert!(!path_matches("crates/network/src/x.rs", "crates/net"));
    }

    #[test]
    fn test_paths_are_recognised() {
        assert!(is_test_path("crates/net/tests/framing.rs"));
        assert!(is_test_path("crates/exec/benches/scan.rs"));
        assert!(is_test_path("crates/analyze/fixtures/bad/src/lib.rs"));
        assert!(!is_test_path("crates/net/src/tcp.rs"));
    }
}
