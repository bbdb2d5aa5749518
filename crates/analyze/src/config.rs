//! Hand-rolled parser for `analyze.toml`. The container has no crates.io
//! access, so instead of a TOML dependency we parse the small dialect the
//! config actually uses: `[paths]` with string-array keys, and repeated
//! `[[allow]]` tables with string keys. Unknown keys are errors — a typo'd
//! allowlist entry that silently matches nothing would defeat the point.

/// One allowlist entry: suppresses violations of `rule` in `file` whose
/// source line contains `pattern`. `reason` is mandatory — the allowlist is
/// a burn-down list, and every entry must say why the site is sound.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    pub pattern: String,
    pub reason: String,
}

/// Parsed `analyze.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes where the service-path rules apply.
    pub service_paths: Vec<String>,
    /// Path prefixes where the wire-capacity rule applies.
    pub codec_paths: Vec<String>,
    /// Path prefixes where the plan-no-snapshot rule applies.
    pub plan_paths: Vec<String>,
    /// Path prefixes where the no-env-knob rule applies.
    pub engine_paths: Vec<String>,
    /// Path prefixes where the no-statement-thread rule applies.
    pub statement_paths: Vec<String>,
    /// Path prefixes excluded from the walk entirely (e.g. fixtures).
    pub exclude: Vec<String>,
    pub allow: Vec<AllowEntry>,
}

impl Config {
    /// Parse the config text. Errors are `(line, message)`.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        #[derive(PartialEq)]
        enum Section {
            None,
            Paths,
            Allow,
        }
        let mut section = Section::None;

        // Logical lines: a `key = [` array may span physical lines until
        // its closing `]`.
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln0, raw)) = lines.next() {
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let lineno = ln0 + 1;
            if line == "[paths]" {
                section = Section::Paths;
                continue;
            }
            if line == "[[allow]]" {
                section = Section::Allow;
                cfg.allow.push(AllowEntry::default());
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {lineno}: unknown section {line}"));
            }
            // Accumulate multi-line arrays.
            if line.contains('[') && !line.contains(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont);
                    line.push(' ');
                    line.push_str(cont.trim());
                    if cont.contains(']') {
                        break;
                    }
                }
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`, got `{line}`"))?;
            let (key, value) = (key.trim(), value.trim());
            match section {
                Section::Paths => {
                    let list = parse_string_array(value)
                        .ok_or_else(|| format!("line {lineno}: `{key}` must be a string array"))?;
                    match key {
                        "service" => cfg.service_paths = list,
                        "codec" => cfg.codec_paths = list,
                        "plan" => cfg.plan_paths = list,
                        "engine" => cfg.engine_paths = list,
                        "statement" => cfg.statement_paths = list,
                        "exclude" => cfg.exclude = list,
                        _ => return Err(format!("line {lineno}: unknown [paths] key `{key}`")),
                    }
                }
                Section::Allow => {
                    let s = parse_string(value)
                        .ok_or_else(|| format!("line {lineno}: `{key}` must be a string"))?;
                    let entry = cfg
                        .allow
                        .last_mut()
                        .ok_or_else(|| format!("line {lineno}: key outside [[allow]]"))?;
                    match key {
                        "rule" => entry.rule = s,
                        "file" => entry.file = s,
                        "pattern" => entry.pattern = s,
                        "reason" => entry.reason = s,
                        _ => return Err(format!("line {lineno}: unknown [[allow]] key `{key}`")),
                    }
                }
                Section::None => {
                    return Err(format!("line {lineno}: key `{key}` outside any section"));
                }
            }
        }

        for (i, e) in cfg.allow.iter().enumerate() {
            if e.rule.is_empty() || e.file.is_empty() || e.pattern.is_empty() {
                return Err(format!(
                    "[[allow]] entry #{} is missing rule/file/pattern",
                    i + 1
                ));
            }
            if e.reason.trim().is_empty() {
                return Err(format!(
                    "[[allow]] entry #{} ({} in {}) has no `reason`; every allowlisted \
                     site must justify why it is sound",
                    i + 1,
                    e.rule,
                    e.file
                ));
            }
        }
        Ok(cfg)
    }
}

/// Drop a `#`-to-end-of-line comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

/// Parse `"some string"` (with \" and \\ escapes).
fn parse_string(v: &str) -> Option<String> {
    let v = v.trim();
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::new();
    let mut escaped = false;
    for c in inner.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return None; // unescaped quote mid-string: malformed
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Parse `["a", "b", "c"]` (trailing comma tolerated).
fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let v = v.trim();
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Some(out)
}

/// Split on commas that sit outside string literals.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paths_and_allow_entries() {
        let cfg = Config::parse(
            r#"
# workspace invariants
[paths]
service = ["crates/net/src", "crates/core/src"]  # prefixes
codec = ["crates/common/src/codec.rs"]
plan = ["crates/opt/src"]
engine = ["crates/exec/src", "src"]
exclude = [
    "crates/analyze/fixtures",
]

[[allow]]
rule = "no-panic-path"
file = "crates/client/src/pool.rs"
pattern = "pooled connection taken"
reason = "Deref on a pool guard; invariant holds until Drop"
"#,
        )
        .expect("config must parse");
        assert_eq!(cfg.service_paths.len(), 2);
        assert_eq!(cfg.codec_paths, vec!["crates/common/src/codec.rs"]);
        assert_eq!(cfg.plan_paths, vec!["crates/opt/src"]);
        assert_eq!(cfg.engine_paths, vec!["crates/exec/src", "src"]);
        assert_eq!(cfg.exclude, vec!["crates/analyze/fixtures"]);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "no-panic-path");
    }

    #[test]
    fn missing_reason_is_rejected() {
        let err = Config::parse(
            "[[allow]]\nrule = \"no-panic-path\"\nfile = \"f.rs\"\npattern = \"x\"\n",
        )
        .expect_err("entries without a reason must be rejected");
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(Config::parse("[paths]\nservcie = [\"a\"]\n").is_err());
        assert!(Config::parse("[[allow]]\nrules = \"x\"\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"r\"\nfile = \"f\"\npattern = \"a # b\"\nreason = \"ok\"\n",
        )
        .expect("must parse");
        assert_eq!(cfg.allow[0].pattern, "a # b");
    }
}
