//! Every `--check results/…` baseline the CI workflow names must exist in
//! git and hold entries in the mode the gate runs — a baseline that is not
//! committed makes its gate fail on a fresh clone ("cannot read baseline").

use std::path::Path;
use std::process::Command;

use csq_bench::gate::parse_entries;

#[test]
fn every_ci_check_path_is_tracked_and_has_quick_entries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let words: Vec<&str> = ci.split_whitespace().collect();
    let paths: Vec<&str> = words
        .windows(2)
        .filter(|w| w[0] == "--check" && w[1].starts_with("results/"))
        .map(|w| w[1])
        .collect();
    assert_eq!(paths.len(), 4, "bench-gate --check paths: {paths:?}");

    let in_git = root.join(".git").exists();
    for path in paths {
        let text = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("{path} is named by ci.yml but unreadable: {e}"));
        let entries = parse_entries(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            entries.iter().any(|e| e.mode == "quick"),
            "{path} has no quick-mode entries for `--quick --check` to gate against"
        );
        // Skipped outside a git checkout (or where git cannot run at all).
        let ls_files = Command::new("git")
            .args(["ls-files", "--error-unmatch", path])
            .current_dir(&root)
            .output();
        if let (true, Ok(out)) = (in_git, ls_files) {
            let unmatched = String::from_utf8_lossy(&out.stderr).contains("did not match");
            assert!(!unmatched, "{path} is not tracked by git");
        }
    }
}
