//! The lint pass: named rules over the workspace library sources.
//!
//! The vendored dependencies are API stubs (no `syn`), so this is a
//! line/token scanner, not an AST pass: comments and string literals are
//! stripped first (so prose mentioning `HashMap` never fires), then each
//! rule looks for word-boundary token matches. Findings can be waived
//! with a `#[allow(aqt::rule-id)]` comment on the same or preceding
//! line. Test code is exempt from content rules: scanning stops at the
//! first `#[cfg(test)]` line (the repo convention keeps test modules at
//! the bottom of the file).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// Every rule id, in reporting order (the waiver comment grammar is
/// `#[allow(aqt::<id>)]`).
pub const RULE_IDS: [&str; 10] = [
    "no-std-hash",
    "no-wall-clock",
    "no-unseeded-rand",
    "no-thread-id",
    "no-print",
    "no-deprecated-runners",
    "no-dense-tables",
    "no-hand-serde",
    "crate-headers",
    "vendor-lock",
];

/// One lint finding, displayed as `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A token-match rule over stripped source lines.
struct ContentRule {
    id: &'static str,
    /// Word-boundary tokens that trigger the rule.
    tokens: &'static [&'static str],
    message: &'static str,
    /// Whether the rule applies to this workspace-relative path.
    applies: fn(&str) -> bool,
    /// Extra per-line exemption (e.g. definitions, re-exports).
    skip_line: fn(&str) -> bool,
}

fn never_skip(_: &str) -> bool {
    false
}

fn in_bench(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

fn in_bin(path: &str) -> bool {
    path.contains("/bin/")
}

const CONTENT_RULES: [ContentRule; 8] = [
    ContentRule {
        id: "no-std-hash",
        tokens: &["HashMap", "HashSet"],
        message: "std hash-map iteration order is nondeterministic; use \
                  BTreeMap/BTreeSet (or sort before iterating)",
        applies: |_| true,
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-wall-clock",
        tokens: &["Instant", "SystemTime"],
        message: "wall-clock time in library code breaks bit-for-bit \
                  reproducibility; timing belongs in crates/bench",
        applies: |path| !in_bench(path),
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-unseeded-rand",
        tokens: &["thread_rng", "from_entropy", "rand::random"],
        message: "unseeded randomness is unreproducible; thread a seeded \
                  generator (SplitMix64 or StdRng::seed_from_u64)",
        applies: |_| true,
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-thread-id",
        tokens: &["ThreadId", "thread::current"],
        message: "thread identity varies run to run; key work off input \
                  order, not scheduler order",
        applies: |_| true,
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-print",
        tokens: &["println!", "eprintln!", "dbg!", "print!", "eprint!"],
        message: "library code must stay silent; render to a String/Table \
                  and let the bins print",
        applies: |path| !in_bin(path),
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-deprecated-runners",
        tokens: &[
            "run_path(",
            "run_tree(",
            "run_dag(",
            "run_path_capacity(",
            "run_tree_capacity(",
            "run_dag_capacity(",
            "run_path_stream(",
            "run_tree_stream(",
            "run_dag_stream(",
            "run_pattern(",
            "run_source(",
            "run_source_capacity(",
            "measured_sigma(",
            "measured_sigma_on(",
            "run_scenarios(",
            "run_scenarios_with_threads(",
            "run_monitored(",
            "SweepAggregate",
        ],
        message: "the run wrappers were removed; build a Scenario and call \
                  run_scenario (sweep::parallel_with_threads over many), wire a \
                  Simulation (attach Monitors as its probe), or read \
                  analyze(..).tight_sigma instead",
        // The wrappers are gone: no definition site or re-export is
        // exempt anymore, so any reappearance fires.
        applies: |_| true,
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-dense-tables",
        tokens: &["n * n", "n*n", "node_count() * n"],
        message: "O(n^2) routing tables wall off million-node meshes; use \
                  the computed closed forms, or route arbitrary graphs \
                  through the dense fallback module",
        // The fallback module is the one place dense tables may live.
        applies: |path| path != "crates/model/src/topology/dense.rs",
        skip_line: never_skip,
    },
    ContentRule {
        id: "no-hand-serde",
        tokens: &[
            "impl Serialize for",
            "impl Deserialize for",
            "impl serde::Serialize for",
            "impl serde::Deserialize for",
        ],
        message: "a hand-written serde impl is a second serialization path \
                  that only the vendored stub compiles; derive it (with \
                  #[serde(tag = \"kind\", rename_all = \"snake_case\")], \
                  rename and default for spec enums; see vendor/README.md)",
        // The impls real serde has no attribute for carry a waiver that
        // says why.
        applies: |_| true,
        skip_line: never_skip,
    },
];

/// The crates whose lib.rs must carry the safety/docs headers.
const HEADER_FILES: [&str; 8] = [
    "src/lib.rs",
    "crates/model/src/lib.rs",
    "crates/adversary/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/analysis/src/lib.rs",
    "crates/telemetry/src/lib.rs",
    "crates/trace/src/lib.rs",
    "crates/bench/src/lib.rs",
];

/// Blanks comments and string literals, preserving line structure, so
/// token rules only see real code.
fn strip_code(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut lines = Vec::new();
    let mut cur = String::new();
    let mut i = 0;
    let mut block_depth = 0usize;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        if block_depth > 0 {
            if c == '/' && chars.get(i + 1) == Some(&'*') {
                block_depth += 1;
                i += 2;
            } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                block_depth -= 1;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match c {
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                block_depth = 1;
                i += 2;
            }
            '"' => {
                // Ordinary string literal (escapes honored).
                i += 1;
                while i < n {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            lines.push(std::mem::take(&mut cur));
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                cur.push_str("\"\"");
            }
            'r' if is_raw_string(&chars, i) => {
                // r"..." / r#"..."# with any hash depth.
                let mut j = i + 1;
                let mut hashes = 0;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                loop {
                    match chars.get(j) {
                        None => break,
                        Some('\n') => {
                            lines.push(std::mem::take(&mut cur));
                            j += 1;
                        }
                        Some('"') => {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && chars.get(k) == Some(&'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                            j += 1;
                        }
                        Some(_) => j += 1,
                    }
                }
                cur.push_str("\"\"");
                i = j;
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime has no closing
                // quote right after one (possibly escaped) character.
                if chars.get(i + 1) == Some(&'\\') {
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    cur.push_str("' '");
                } else if chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                    cur.push_str("' '");
                } else {
                    cur.push(c);
                    i += 1;
                }
            }
            _ => {
                cur.push(c);
                i += 1;
            }
        }
    }
    lines.push(cur);
    lines
}

fn is_raw_string(chars: &[char], i: usize) -> bool {
    // `r` not preceded by an identifier char, followed by #*".
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Word-boundary containment: `token` appears in `line` with no
/// identifier character hugging an end of it that is itself an
/// identifier character (so a call-shaped `f(` matches `f(x)`).
fn has_token(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let (open_start, open_end) = (
        !token.bytes().next().is_some_and(ident),
        !token.bytes().last().is_some_and(ident),
    );
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let p = start + pos;
        let before_ok = open_start || p == 0 || !ident(bytes[p - 1]);
        let end = p + token.len();
        let after_ok = open_end || end >= bytes.len() || !ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = p + token.len();
    }
    false
}

/// Whether line `idx` (0-based, raw text) carries a waiver for `rule` on
/// itself or the immediately preceding line.
fn waived(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("#[allow(aqt::{rule})]");
    raw_lines[idx].contains(&marker) || (idx > 0 && raw_lines[idx - 1].contains(&marker))
}

/// Runs the content rules over one file's text. `rel` is the
/// workspace-relative path used for rule applicability and reporting.
pub fn lint_file(rel: &str, text: &str) -> Vec<Violation> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let stripped = strip_code(text);
    // Test modules live at the bottom of the file by repo convention;
    // content rules stop at the first #[cfg(test)].
    let limit = stripped
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(stripped.len());
    let mut out = Vec::new();
    for rule in &CONTENT_RULES {
        if !(rule.applies)(rel) {
            continue;
        }
        for (idx, line) in stripped.iter().take(limit).enumerate() {
            if (rule.skip_line)(line) {
                continue;
            }
            if rule.tokens.iter().any(|t| has_token(line, t))
                && idx < raw_lines.len()
                && !waived(&raw_lines, idx, rule.id)
            {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: rule.id,
                    message: rule.message.to_string(),
                });
            }
        }
    }
    out
}

/// The `crate-headers` rule: every library crate must carry both safety
/// headers as inner attributes.
fn lint_headers(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for rel in HEADER_FILES {
        let text = match fs::read_to_string(root.join(rel)) {
            Ok(t) => t,
            Err(e) => {
                out.push(Violation {
                    file: rel.to_string(),
                    line: 1,
                    rule: "crate-headers",
                    message: format!("cannot read: {e}"),
                });
                continue;
            }
        };
        for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !text.contains(attr) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: 1,
                    rule: "crate-headers",
                    message: format!("missing crate header {attr}"),
                });
            }
        }
    }
    out
}

/// First `key = "value"` occurrence in a TOML-ish text.
fn toml_str(text: &str, key: &str) -> Option<String> {
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('"') {
                    if let Some(end) = v.find('"') {
                        return Some(v[..end].to_string());
                    }
                }
            }
        }
    }
    None
}

/// The `vendor-lock` rule: every vendored package is in `Cargo.lock` at
/// the same version, and every locked package is either a workspace
/// member or vendored (no unvendored registry deps can sneak in).
fn lint_vendor_lock(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let lock_text = match fs::read_to_string(root.join("Cargo.lock")) {
        Ok(t) => t,
        Err(e) => {
            return vec![Violation {
                file: "Cargo.lock".into(),
                line: 1,
                rule: "vendor-lock",
                message: format!("cannot read: {e}"),
            }]
        }
    };
    let mut locked: BTreeMap<String, String> = BTreeMap::new();
    for block in lock_text.split("[[package]]").skip(1) {
        if let (Some(name), Some(version)) = (toml_str(block, "name"), toml_str(block, "version")) {
            locked.insert(name, version);
        }
    }

    let mut vendored: BTreeMap<String, (String, String)> = BTreeMap::new();
    let vendor_dir = root.join("vendor");
    if let Ok(entries) = fs::read_dir(&vendor_dir) {
        for entry in entries.flatten() {
            let manifest = entry.path().join("Cargo.toml");
            let Ok(text) = fs::read_to_string(&manifest) else {
                continue; // README.md etc.
            };
            let rel = format!("vendor/{}/Cargo.toml", entry.file_name().to_string_lossy());
            if let (Some(name), Some(version)) =
                (toml_str(&text, "name"), toml_str(&text, "version"))
            {
                vendored.insert(name, (version, rel));
            }
        }
    }

    for (name, (version, rel)) in &vendored {
        match locked.get(name) {
            None => out.push(Violation {
                file: rel.clone(),
                line: 1,
                rule: "vendor-lock",
                message: format!(
                    "vendored package {name} is absent from Cargo.lock; \
                     run a build to refresh the lockfile"
                ),
            }),
            Some(locked_version) if locked_version != version => out.push(Violation {
                file: rel.clone(),
                line: 1,
                rule: "vendor-lock",
                message: format!(
                    "vendored {name} is {version} but Cargo.lock pins \
                     {locked_version}; versions must agree"
                ),
            }),
            Some(_) => {}
        }
    }
    for name in locked.keys() {
        let workspace_member =
            name == "small-buffers" || name == "xtask" || name.starts_with("aqt-");
        if !workspace_member && !vendored.contains_key(name) {
            out.push(Violation {
                file: "Cargo.lock".into(),
                line: 1,
                rule: "vendor-lock",
                message: format!(
                    "locked package {name} is neither a workspace member nor \
                     vendored; this build environment has no registry access"
                ),
            });
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, workspace-relative.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("path under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}

/// Runs every rule over the workspace at `root`, in deterministic
/// (path, rule) order.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    // Library sources: the façade crate and every aqt-* crate. Bin
    // targets are included (some rules exempt them); tests/ and xtask
    // itself are not library code.
    let mut files = Vec::new();
    rust_files(root, &root.join("src"), &mut files);
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            rust_files(root, &dir.join("src"), &mut files);
        }
    }
    let mut out = Vec::new();
    for rel in &files {
        match fs::read_to_string(root.join(rel)) {
            Ok(text) => out.extend(lint_file(rel, &text)),
            Err(e) => out.push(Violation {
                file: rel.clone(),
                line: 1,
                rule: "crate-headers",
                message: format!("cannot read: {e}"),
            }),
        }
    }
    out.extend(lint_headers(root));
    out.extend(lint_vendor_lock(root));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("workspace root")
            .to_path_buf()
    }

    fn fixture(name: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
    }

    fn rules_fired(rel: &str, text: &str) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = lint_file(rel, text).into_iter().map(|v| v.rule).collect();
        ids.dedup();
        ids
    }

    #[test]
    fn each_content_rule_fires_on_its_fixture() {
        let text = fixture("violations.rs");
        let violations = lint_file("crates/model/src/violations.rs", &text);
        for id in [
            "no-std-hash",
            "no-wall-clock",
            "no-unseeded-rand",
            "no-thread-id",
            "no-print",
            "no-deprecated-runners",
            "no-dense-tables",
            "no-hand-serde",
        ] {
            assert!(
                violations.iter().any(|v| v.rule == id),
                "rule {id} did not fire on the seeded fixture; got {violations:?}"
            );
        }
        // Every finding formats as file:line: rule-id: message.
        for v in &violations {
            let s = v.to_string();
            assert!(
                s.starts_with("crates/model/src/violations.rs:") && s.contains(v.rule),
                "bad format: {s}"
            );
            assert!(v.line >= 1);
        }
    }

    #[test]
    fn active_set_idioms_stay_table_free() {
        // The fixture distills the sparse-engine idioms — bitset word
        // math (`(n + 63) / 64`), worklist capacity division — that look
        // nothing like, and must never be confused with, O(n^2) tables.
        let text = fixture("active_set.rs");
        let fired = rules_fired("crates/model/src/active_set.rs", &text);
        assert!(
            fired.is_empty(),
            "active-set fixture should pass: {fired:?}"
        );
        // And the real module the fixture stands in for.
        let real = fs::read_to_string(repo_root().join("crates/model/src/state.rs"))
            .expect("state.rs readable");
        let fired = rules_fired("crates/model/src/state.rs", &real);
        assert!(
            fired.is_empty(),
            "state.rs should pass every rule: {fired:?}"
        );
    }

    #[test]
    fn waivers_and_test_modules_are_exempt() {
        let text = fixture("clean.rs");
        let violations = lint_file("crates/model/src/clean.rs", &text);
        assert!(
            violations.is_empty(),
            "clean fixture should pass: {violations:?}"
        );
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let text = r#"
//! Docs may say HashMap and Instant freely.
/// println! is fine in docs too.
pub fn f() -> &'static str {
    "HashMap thread_rng println! Instant"
}
"#;
        assert!(rules_fired("crates/model/src/x.rs", text).is_empty());
    }

    #[test]
    fn bench_may_time_but_not_hash() {
        let timing = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
        assert!(rules_fired("crates/bench/src/x.rs", timing).is_empty());
        assert_eq!(
            rules_fired("crates/model/src/x.rs", timing),
            vec!["no-wall-clock"]
        );
        let hash = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_fired("crates/bench/src/x.rs", hash),
            vec!["no-std-hash"]
        );
    }

    #[test]
    fn bins_may_print_but_libs_may_not() {
        let text = "fn main() { println!(\"hi\"); }\n";
        assert!(rules_fired("crates/bench/src/bin/x.rs", text).is_empty());
        assert_eq!(rules_fired("crates/bench/src/x.rs", text), vec!["no-print"]);
    }

    #[test]
    fn deprecated_runner_calls_fire_everywhere() {
        // The wrappers were removed in PR 8, so there is no exempt
        // definition site any more: the rule fires even in sweep.rs.
        let call = "let _ = run_path(&topo, proto, &pat, 10);\n";
        assert_eq!(
            rules_fired("crates/bench/src/x.rs", call),
            vec!["no-deprecated-runners"]
        );
        assert_eq!(
            rules_fired("crates/analysis/src/sweep.rs", call),
            vec!["no-deprecated-runners"]
        );
        // The tokens are call-shaped, so a bare identifier (e.g. in a
        // `pub use` list) does not fire; only invocations do.
        let reexport = "pub use sweep::{run_path, run_tree};\n";
        assert!(rules_fired("crates/analysis/src/lib.rs", reexport).is_empty());
        // The later deletions fire too, and `run_scenario` stays legal.
        for call in [
            "let _ = run_pattern(topo, proto, &pat, 10);\n",
            "let _ = sweep::run_source(topo, proto, src, 10);\n",
            "let _ = run_monitored(topo, proto, &pat, 10, monitors);\n",
            "let agg = SweepAggregate::default();\n",
        ] {
            assert_eq!(
                rules_fired("crates/bench/src/x.rs", call),
                vec!["no-deprecated-runners"],
                "{call}"
            );
        }
        assert!(rules_fired("crates/bench/src/x.rs", "let _ = run_scenario(&s);\n").is_empty());
    }

    #[test]
    fn dense_tables_fire_everywhere_but_the_fallback_module() {
        let alloc = "let next = vec![NONE; n * n];\n";
        assert_eq!(
            rules_fired("crates/model/src/topology/dag.rs", alloc),
            vec!["no-dense-tables"]
        );
        assert_eq!(
            rules_fired("crates/analysis/src/bounds.rs", alloc),
            vec!["no-dense-tables"]
        );
        // The fallback module is the sanctioned home of dense tables.
        assert!(rules_fired("crates/model/src/topology/dense.rs", alloc).is_empty());
        // Word boundaries: `len * n` or `n * next` must not fire.
        assert!(rules_fired("crates/model/src/x.rs", "let a = len * n;\n").is_empty());
        assert!(rules_fired("crates/model/src/x.rs", "let a = n * next;\n").is_empty());
    }

    #[test]
    fn hand_serde_impls_fire_unless_waived() {
        let hand = "impl Deserialize for Spec {\n";
        assert_eq!(
            rules_fired("crates/model/src/x.rs", hand),
            vec!["no-hand-serde"]
        );
        assert_eq!(
            rules_fired("crates/core/src/x.rs", "impl serde::Serialize for Spec {\n"),
            vec!["no-hand-serde"]
        );
        let waived =
            "// #[allow(aqt::no-hand-serde)] re-checks invariants\nimpl Deserialize for Spec {\n";
        assert!(rules_fired("crates/model/src/x.rs", waived).is_empty());
        // Deriving is the sanctioned path.
        let derived = "#[derive(Serialize, Deserialize)]\n#[serde(tag = \"kind\")]\nenum Spec {}\n";
        assert!(rules_fired("crates/model/src/x.rs", derived).is_empty());
    }

    #[test]
    fn the_shipped_tree_is_clean() {
        let violations = lint_workspace(&repo_root());
        assert!(
            violations.is_empty(),
            "workspace must lint clean:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn header_and_vendor_rules_hold_on_the_real_tree() {
        let root = repo_root();
        assert!(lint_headers(&root).is_empty());
        assert!(lint_vendor_lock(&root).is_empty());
        // And the vendor rule notices a fake unvendored dep.
        let mut locked = fs::read_to_string(root.join("Cargo.lock")).unwrap();
        locked.push_str("\n[[package]]\nname = \"leftpad\"\nversion = \"9.9.9\"\n");
        let dir = std::env::temp_dir().join("aqt-xtask-vendor-test");
        fs::create_dir_all(dir.join("vendor")).unwrap();
        fs::write(dir.join("Cargo.lock"), locked).unwrap();
        let violations = lint_vendor_lock(&dir);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "vendor-lock" && v.message.contains("leftpad")),
            "{violations:?}"
        );
    }
}
