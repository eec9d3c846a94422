//! The checked-in allowlist: `lint.toml` at the workspace root.
//!
//! Suppression must be explicit and auditable, so the file format is
//! deliberately rigid — a sequence of `[[allow]]` entries, each carrying a
//! rule id, a path (exact, or a `/**` subtree glob), and a **non-empty**
//! justification:
//!
//! ```toml
//! [[allow]]
//! rule = "FL004"
//! path = "crates/graph/src/kernels.rs"
//! reason = "audited hot-loop kernels; indices bounded by the input length"
//! ```
//!
//! The parser is a hand-rolled subset of TOML (no external deps): exactly
//! the `[[allow]]` table-array with string values. Unknown keys, missing
//! fields, unknown rule ids and empty reasons are *errors*, not warnings —
//! a malformed allowlist must never silently widen what it allows.

use crate::rules;

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule this entry suppresses (e.g. `"FL004"`).
    pub rule: String,
    /// Workspace-relative path: an exact file, or `dir/**` for a subtree.
    pub path: String,
    /// Mandatory human justification.
    pub reason: String,
}

impl AllowEntry {
    /// `true` if this entry covers `rel_path` (forward-slash relative path).
    pub fn matches_path(&self, rel_path: &str) -> bool {
        match self.path.strip_suffix("/**") {
            Some(prefix) => {
                rel_path.starts_with(prefix) && rel_path[prefix.len()..].starts_with('/')
            }
            None => self.path == rel_path,
        }
    }
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// All entries, in file order.
    pub allows: Vec<AllowEntry>,
}

impl Config {
    /// An empty config (nothing allowed).
    pub fn empty() -> Self {
        Config::default()
    }

    /// `true` if `rule` is allowlisted for `rel_path`.
    pub fn allows(&self, rule: &str, rel_path: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.matches_path(rel_path))
    }

    /// Parses the `lint.toml` subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a `line: message` string on any structural problem: unknown
    /// keys, values that are not quoted strings, entries with missing
    /// fields, unknown rule ids, or empty reasons.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        // (rule, path, reason) of the entry being built, plus its header line.
        let mut current: Option<(usize, [Option<String>; 3])> = None;

        fn finish(
            cfg: &mut Config,
            current: &mut Option<(usize, [Option<String>; 3])>,
        ) -> Result<(), String> {
            if let Some((header_line, fields)) = current.take() {
                let [rule, path, reason] = fields;
                let missing =
                    |what: &str| format!("{header_line}: [[allow]] entry is missing `{what}`");
                let rule = rule.ok_or_else(|| missing("rule"))?;
                let path = path.ok_or_else(|| missing("path"))?;
                let reason = reason.ok_or_else(|| missing("reason"))?;
                if !rules::is_known_rule(&rule) {
                    return Err(format!("{header_line}: unknown rule id `{rule}`"));
                }
                if reason.trim().is_empty() {
                    return Err(format!(
                        "{header_line}: entry for {rule} on `{path}` has an empty reason — \
                         every allowlist entry must be justified"
                    ));
                }
                cfg.allows.push(AllowEntry { rule, path, reason });
            }
            Ok(())
        }

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                finish(&mut cfg, &mut current)?;
                current = Some((lineno, [None, None, None]));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("{lineno}: unknown table `{line}` (only [[allow]])"));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("{lineno}: expected `key = \"value\"`"))?;
            let key = key.trim();
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("{lineno}: value for `{key}` must be a quoted string"))?;
            let (_, fields) = current
                .as_mut()
                .ok_or_else(|| format!("{lineno}: `{key}` outside an [[allow]] entry"))?;
            let slot = match key {
                "rule" => &mut fields[0],
                "path" => &mut fields[1],
                "reason" => &mut fields[2],
                other => {
                    return Err(format!(
                        "{lineno}: unknown key `{other}` (expected rule/path/reason)"
                    ))
                }
            };
            if slot.is_some() {
                return Err(format!("{lineno}: duplicate key `{key}`"));
            }
            *slot = Some(value.to_string());
        }
        finish(&mut cfg, &mut current)?;
        Ok(cfg)
    }

    /// Renders the config back to the `lint.toml` syntax [`Config::parse`]
    /// accepts (the round-trip is tested).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for a in &self.allows {
            out.push_str("[[allow]]\n");
            out.push_str(&format!("rule = \"{}\"\n", a.rule));
            out.push_str(&format!("path = \"{}\"\n", a.path));
            out.push_str(&format!("reason = \"{}\"\n\n", a.reason));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# comment
[[allow]]
rule = "FL005"
path = "crates/bench/**"
reason = "bench harness measures wall-clock by design"

[[allow]]
rule = "FL004"
path = "crates/graph/src/kernels.rs"
reason = "audited kernels"
"#;

    #[test]
    fn parses_and_matches() {
        let cfg = Config::parse(GOOD).unwrap();
        assert_eq!(cfg.allows.len(), 2);
        assert!(cfg.allows("FL005", "crates/bench/src/lib.rs"));
        assert!(cfg.allows("FL005", "crates/bench/src/bin/obs_smoke.rs"));
        assert!(!cfg.allows("FL004", "crates/bench/src/lib.rs"));
        assert!(cfg.allows("FL004", "crates/graph/src/kernels.rs"));
        assert!(!cfg.allows("FL004", "crates/graph/src/kernels_extra.rs"));
        // A subtree glob does not match its own prefix as a sibling file.
        assert!(!cfg.allows("FL005", "crates/benchmark.rs"));
    }

    #[test]
    fn round_trips() {
        let cfg = Config::parse(GOOD).unwrap();
        let reparsed = Config::parse(&cfg.to_toml()).unwrap();
        assert_eq!(cfg, reparsed);
    }

    #[test]
    fn empty_reason_is_rejected() {
        let bad = "[[allow]]\nrule = \"FL001\"\npath = \"x.rs\"\nreason = \"  \"\n";
        let err = Config::parse(bad).unwrap_err();
        assert!(err.contains("empty reason"), "{err}");
    }

    #[test]
    fn missing_field_is_rejected() {
        let bad = "[[allow]]\nrule = \"FL001\"\nreason = \"r\"\n";
        let err = Config::parse(bad).unwrap_err();
        assert!(err.contains("missing `path`"), "{err}");
    }

    #[test]
    fn unknown_rule_and_key_are_rejected() {
        let bad = "[[allow]]\nrule = \"FL999\"\npath = \"x.rs\"\nreason = \"r\"\n";
        assert!(Config::parse(bad).unwrap_err().contains("unknown rule id"));
        let bad = "[[allow]]\nrule = \"FL001\"\npath = \"x.rs\"\nwhy = \"r\"\n";
        assert!(Config::parse(bad).unwrap_err().contains("unknown key"));
    }

    #[test]
    fn unquoted_value_and_stray_key_are_rejected() {
        let bad = "[[allow]]\nrule = FL001\n";
        assert!(Config::parse(bad).unwrap_err().contains("quoted string"));
        let bad = "rule = \"FL001\"\n";
        assert!(Config::parse(bad).unwrap_err().contains("outside"));
    }
}
