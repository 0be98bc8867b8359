//! The source-level determinism lint.
//!
//! Scans every workspace crate's sources with the hand-rolled lexer and
//! flags token patterns that break replay determinism (DESIGN.md §12.4).
//! Intentional sites are suppressed — auditably, with a reason — by an
//! adjacent allow directive:
//!
//! ```text
//! // zkdet-analyzer: allow(unordered-iteration) registry keyed for lookup; snapshot sorts
//! ```
//!
//! A directive covers its own line and the next, so it works both as a
//! trailing comment and as a comment-above. Allowed findings still appear
//! in the report (`allowed: true` with the reason) but never gate.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, Token};
use crate::rules::{Finding, Rule};

/// How a file is classified, which decides the rule set applied to it.
#[derive(Clone, Copy, Debug)]
pub struct FileClass {
    /// Library path: `library-panic` applies.
    pub library: bool,
}

/// Methods whose receiver order is the map's internal order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Entropy-source identifiers (any use flags).
const ENTROPY_IDENTS: [&str; 5] = [
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Method names that mark an impl'd type as a codec type: its fields end
/// up in bytes, digests, or journals.
const CODEC_FNS: [&str; 8] = [
    "to_bytes",
    "to_value",
    "to_json",
    "encode",
    "digest",
    "write_to",
    "serialize",
    "export_bytes",
];

/// One parsed allow directive.
struct AllowDirective {
    rule: Rule,
    line: u32,
    reason: String,
}

/// Scans one file's source text.
pub fn scan_source(file: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let (toks, comments) = lex(src);
    let skip = test_regions(&toks);
    let mut findings = Vec::new();

    // Allow directives (and the missing-reason lint on them).
    let mut directives = Vec::new();
    for c in &comments {
        let Some(at) = c.text.find("zkdet-analyzer:") else {
            continue;
        };
        let rest = c.text[at + "zkdet-analyzer:".len()..].trim();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        let slug = &args[..close];
        let reason = args[close + 1..].trim().to_string();
        let Some(rule) = Rule::from_slug(slug) else {
            continue;
        };
        if reason.is_empty() {
            findings.push(
                Finding::new(
                    Rule::AllowMissingReason,
                    format!("allow({slug}) has no reason"),
                )
                .at_line(file, c.line),
            );
        }
        directives.push(AllowDirective {
            rule,
            line: c.line,
            reason,
        });
    }

    let hash_bindings = collect_hash_bindings(&toks, &skip);
    let names: BTreeSet<&str> = hash_bindings.iter().map(|(n, _, _)| n.as_str()).collect();

    let mut push = |rule: Rule, line: u32, message: String| {
        findings.push(Finding::new(rule, message).at_line(file, line));
    };

    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);

    for i in 0..toks.len() {
        if skip[i] {
            continue;
        }
        let line = toks[i].line;
        let Some(name) = ident(i) else { continue };
        match name {
            "Instant" if punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some("now") => {
                push(Rule::WallClock, line, "Instant::now()".into());
            }
            "SystemTime" | "UNIX_EPOCH" => {
                push(Rule::WallClock, line, name.to_string());
            }
            n if ENTROPY_IDENTS.contains(&n) => {
                push(Rule::AmbientRandomness, line, n.to_string());
            }
            // `std::thread::spawn`, and the scoped forms (`std::thread::scope`,
            // `crossbeam::thread::scope`) whose `scope.spawn` calls start
            // real threads just the same.
            "thread"
                if punct(i + 1, ':')
                    && punct(i + 2, ':')
                    && matches!(ident(i + 3), Some("spawn" | "scope")) =>
            {
                push(
                    Rule::RawThreadSpawn,
                    line,
                    format!("thread::{}", ident(i + 3).unwrap_or_default()),
                );
            }
            "process" if punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some("exit") => {
                push(Rule::ProcessExit, line, "process::exit".into());
            }
            "panic" if punct(i + 1, '!') && class.library => {
                push(Rule::LibraryPanic, line, "panic! in library path".into());
            }
            // `map.keys()` / `self.map.iter()` — receiver immediately
            // before the dot decides.
            m if ITER_METHODS.contains(&m) && punct(i + 1, '(') && punct(i.wrapping_sub(1), '.') => {
                if let Some(recv) = ident(i.wrapping_sub(2)) {
                    if names.contains(recv) {
                        push(
                            Rule::UnorderedIteration,
                            line,
                            format!("{recv}.{m}() iterates a hash collection"),
                        );
                    }
                }
            }
            // `for pat in <expr> {` — a bare hash-collection name in the
            // iterated expression (not followed by `.`, which the method
            // arm already covers).
            "for" => {
                let mut j = i + 1;
                let mut found_in = None;
                while j < toks.len() && j < i + 40 {
                    if ident(j) == Some("in") {
                        found_in = Some(j);
                        break;
                    }
                    if punct(j, '{') || punct(j, ';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(start) = found_in {
                    let mut k = start + 1;
                    while k < toks.len() && k < start + 40 && !punct(k, '{') && !punct(k, ';') {
                        if let Some(n) = ident(k) {
                            if names.contains(n) && !punct(k + 1, '.') && !punct(k + 1, '[') {
                                push(
                                    Rule::UnorderedIteration,
                                    toks[k].line,
                                    format!("for-loop over hash collection `{n}`"),
                                );
                            }
                        }
                        k += 1;
                    }
                }
            }
            _ => {}
        }
    }

    findings.extend(codec_type_findings(file, &toks, &skip, &hash_bindings));

    // Apply the allowlist: a directive covers its line and the next.
    for f in &mut findings {
        if f.rule == Rule::AllowMissingReason {
            continue;
        }
        if let Some(d) = directives
            .iter()
            .find(|d| d.rule == f.rule && (d.line == f.line || d.line + 1 == f.line))
        {
            if !d.reason.is_empty() {
                f.allowed = Some(d.reason.clone());
            }
        }
    }

    // One finding per (rule, line): the for-loop and method arms can both
    // fire on `for k in map.keys()`-style lines.
    findings.sort_by_key(|a| (a.line, a.rule));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

/// Marks token indices inside `#[cfg(test)]`-gated items (the brace-balanced
/// block following the attribute). Test code may use wall clocks and real
/// threads freely.
fn test_regions(toks: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let is = |i: usize, s: &str| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Ident(n)) if n == s);
    let p = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(x)) if *x == c);
    let mut i = 0;
    while i < toks.len() {
        // # [ cfg ( test ) ] …
        if p(i, '#') && p(i + 1, '[') && is(i + 2, "cfg") && p(i + 3, '(') && is(i + 4, "test") {
            // Find the gated item's opening brace, then its close.
            let mut j = i + 5;
            while j < toks.len() && !p(j, '{') && !p(j, ';') {
                j += 1;
            }
            if j < toks.len() && p(j, '{') {
                let mut depth = 0i32;
                let mut k = j;
                while k < toks.len() {
                    if p(k, '{') {
                        depth += 1;
                    } else if p(k, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                for s in skip.iter_mut().take((k + 1).min(toks.len())).skip(i) {
                    *s = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    skip
}

/// Collects `(name, token_index, line)` for every binding whose type or
/// initializer is a `HashMap`/`HashSet` — struct fields, lets, params,
/// including through wrappers (`Mutex<HashMap<…>>`, `&HashMap<…>`).
fn collect_hash_bindings(toks: &[Token], skip: &[bool]) -> Vec<(String, usize, u32)> {
    let mut out = Vec::new();
    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    for i in 0..toks.len() {
        if skip[i] {
            continue;
        }
        let Some(n) = ident(i) else { continue };
        if n != "HashMap" && n != "HashSet" {
            continue;
        }
        // Walk backward over path segments, generic wrappers, and refs to
        // the binding introducer.
        let mut j = i;
        loop {
            if j >= 2 && punct(j - 1, ':') && punct(j - 2, ':') {
                j -= 2;
                if j >= 1 && ident(j - 1).is_some() {
                    j -= 1;
                }
            } else if j >= 1 && punct(j - 1, '<') {
                j -= 1;
                if j >= 1 && ident(j - 1).is_some() {
                    j -= 1;
                }
            } else if j >= 1 && (punct(j - 1, '&') || ident(j - 1) == Some("mut")) {
                j -= 1;
            } else {
                break;
            }
        }
        // `name : …HashMap…` (field/param/typed let) — require a single
        // colon (j-1 is ':' but j-2 is not).
        if j >= 2 && punct(j - 1, ':') && !punct(j - 2, ':') {
            if let Some(name) = ident(j - 2) {
                out.push((name.to_string(), i, toks[i].line));
                continue;
            }
        }
        // `let [mut] name = HashMap::new()` / `name = HashMap::from(…)`.
        if j >= 2 && punct(j - 1, '=') {
            if let Some(name) = ident(j - 2) {
                out.push((name.to_string(), i, toks[i].line));
            }
        }
    }
    out
}

/// Flags hash-collection fields of codec types: structs that derive
/// `Serialize`/`Deserialize` or whose impl blocks define a codec method
/// (`to_bytes`, `digest`, `encode`, …).
fn codec_type_findings(
    file: &str,
    toks: &[Token],
    skip: &[bool],
    hash_bindings: &[(String, usize, u32)],
) -> Vec<Finding> {
    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let brace_close = |open: usize| -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < toks.len() {
            if punct(k, '{') {
                depth += 1;
            } else if punct(k, '}') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            k += 1;
        }
        toks.len().saturating_sub(1)
    };

    // Structs: name → (body token range, derive idents).
    let mut structs: Vec<(String, usize, usize, Vec<String>)> = Vec::new();
    let mut codec_impls: BTreeSet<String> = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if skip[i] {
            i += 1;
            continue;
        }
        if ident(i) == Some("struct") {
            if let Some(name) = ident(i + 1) {
                // Derive attribute directly above: scan back for
                // `# [ derive ( … ) ]` within a few tokens of `struct`
                // (other attributes and doc comments may sit between).
                let mut derives = Vec::new();
                let mut back = i;
                let lo = i.saturating_sub(60);
                while back > lo {
                    back -= 1;
                    if ident(back) == Some("derive") && punct(back - 1, '[') && punct(back - 2, '#')
                    {
                        let mut d = back + 1;
                        while d < i && !punct(d, ']') {
                            if let Some(n) = ident(d) {
                                derives.push(n.to_string());
                            }
                            d += 1;
                        }
                        break;
                    }
                }
                let mut j = i + 2;
                while j < toks.len() && !punct(j, '{') && !punct(j, ';') {
                    j += 1;
                }
                if j < toks.len() && punct(j, '{') {
                    let close = brace_close(j);
                    structs.push((name.to_string(), j, close, derives));
                    i = j + 1;
                    continue;
                }
            }
        }
        if ident(i) == Some("impl") {
            // The impl'd type: last depth-0 ident before `{`, stopping at
            // `where` and at `for` (which resets the candidate to the type
            // after it).
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut candidate: Option<String> = None;
            while j < toks.len() && !punct(j, '{') && !punct(j, ';') {
                if punct(j, '<') {
                    depth += 1;
                } else if punct(j, '>') {
                    depth -= 1;
                } else if depth == 0 {
                    if ident(j) == Some("where") {
                        break;
                    }
                    if let Some(n) = ident(j) {
                        candidate = Some(n.to_string());
                    }
                }
                j += 1;
            }
            while j < toks.len() && !punct(j, '{') {
                j += 1;
            }
            if j < toks.len() && punct(j, '{') {
                let close = brace_close(j);
                if let Some(name) = candidate {
                    let mut k = j;
                    while k < close {
                        if ident(k) == Some("fn") {
                            if let Some(f) = ident(k + 1) {
                                if CODEC_FNS.contains(&f) {
                                    codec_impls.insert(name.clone());
                                    break;
                                }
                            }
                        }
                        k += 1;
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }

    let mut out = Vec::new();
    for (name, open, close, derives) in &structs {
        let is_codec = codec_impls.contains(name)
            || derives.iter().any(|d| d == "Serialize" || d == "Deserialize");
        if !is_codec {
            continue;
        }
        for (field, tok_idx, line) in hash_bindings {
            if *tok_idx > *open && *tok_idx < *close {
                out.push(
                    Finding::new(
                        Rule::HashInCodecType,
                        format!("hash-collection field `{field}` in codec type `{name}`"),
                    )
                    .at_line(file, *line),
                );
            }
        }
    }
    out
}

/// A workspace scan: every finding plus coverage counters.
#[derive(Debug)]
pub struct ScanReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Scans the workspace rooted at `root`: every `crates/*/src/**/*.rs` and
/// `examples/src/**/*.rs`. Shims (vendored API stubs), the `tests` crate,
/// and `target/` are out of scope — shims model external APIs, and test
/// code legitimately uses wall clocks and real threads.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let dir = entry?.path().join("src");
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
    }
    let examples = root.join("examples").join("src");
    if examples.is_dir() {
        collect_rs(&examples, &mut files)?;
    }
    // The filesystem walk order is platform-dependent; the report is not.
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let library = !rel.contains("/bin/") && !rel.ends_with("main.rs");
        findings.extend(scan_source(&rel, &src, FileClass { library }));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(ScanReport {
        findings,
        files_scanned: files.len(),
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    const LIB: FileClass = FileClass { library: true };

    fn rules_found(src: &str) -> Vec<Rule> {
        scan_source("t.rs", src, LIB)
            .into_iter()
            .filter(|f| f.allowed.is_none())
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wall_clock_fires() {
        assert_eq!(
            rules_found("fn f() { let t = std::time::Instant::now(); }"),
            vec![Rule::WallClock]
        );
        // Two hits on one line dedup to a single finding.
        assert_eq!(
            rules_found("fn f() -> SystemTime { SystemTime::now() }"),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn entropy_fires() {
        assert_eq!(
            rules_found("fn f() { let mut rng = rand::thread_rng(); }"),
            vec![Rule::AmbientRandomness]
        );
    }

    #[test]
    fn raw_spawn_fires() {
        assert_eq!(
            rules_found("fn f() { std::thread::spawn(|| {}); }"),
            vec![Rule::RawThreadSpawn]
        );
    }

    #[test]
    fn scoped_threads_fire_at_the_scope_call() {
        // Token-level fixture: the scope call is the finding; the
        // `scope.spawn` method calls inside it are not second ones, and a
        // path that merely ends in `scope` is not a thread scope.
        let src = "fn f(xs: &[u8]) {\n    crossbeam::thread::scope(|scope| {\n        scope.spawn(move |_| xs.len());\n    })\n    .unwrap();\n    std::thread::scope(|s| { s.spawn(|| ()); });\n    zkdet_telemetry::scope(\"thread::scope\");\n}";
        let findings = scan_source("t.rs", src, LIB);
        let got: Vec<(u32, &str)> = findings
            .iter()
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(got, vec![(2, "thread::scope"), (6, "thread::scope")]);
        assert!(findings.iter().all(|f| f.rule == Rule::RawThreadSpawn));
        // And it is allowlistable like any other site.
        let src = "fn f() {\n    // zkdet-analyzer: allow(raw-thread-spawn) joins before returning; result order fixed\n    crossbeam::thread::scope(|s| { s.spawn(|_| ()); }).unwrap();\n}";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn process_exit_and_panic_fire() {
        assert_eq!(
            rules_found("fn f() { std::process::exit(1); }"),
            vec![Rule::ProcessExit]
        );
        assert_eq!(rules_found("fn f() { panic!(\"boom\"); }"), vec![Rule::LibraryPanic]);
        // Not in binaries:
        let bins = scan_source("crates/x/src/bin/b.rs", "fn f() { panic!(); }", FileClass { library: false });
        assert!(bins.is_empty());
    }

    #[test]
    fn hash_iteration_fires_for_fields_lets_and_loops() {
        let src = r"
            struct S { m: HashMap<u64, u8> }
            impl S {
                fn f(&self) { for (k, v) in m.iter() { use_it(k, v); } }
                fn g(&self) { let t: HashMap<u8, u8> = HashMap::new(); for x in &t {} }
                fn h(&self, w: &mut HashMap<u8, u8>) { w.retain(|_, _| true); }
            }
        ";
        let found = rules_found(src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|r| *r == Rule::UnorderedIteration));
    }

    #[test]
    fn lookup_only_hash_is_fine() {
        let src = r"
            fn f(m: &HashMap<u64, u8>) -> Option<u8> {
                let n = m.len();
                for i in 0..m.len() { touch(i); }
                m.get(&1).copied()
            }
        ";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn wrapped_hash_types_are_tracked() {
        let src = "struct C { memo: Mutex<HashMap<u64, u8>> }\nfn f(c: &C) { c.memo.lock(); for k in memo.keys() {} }";
        assert_eq!(rules_found(src), vec![Rule::UnorderedIteration]);
    }

    #[test]
    fn codec_struct_with_hash_field_fires() {
        let src = r"
            struct R { items: HashMap<u64, u8> }
            impl R { fn to_bytes(&self) -> Vec<u8> { vec![] } }
        ";
        assert_eq!(rules_found(src), vec![Rule::HashInCodecType]);
        let src = "#[derive(Serialize)]\nstruct D { s: HashSet<u8> }";
        assert_eq!(rules_found(src), vec![Rule::HashInCodecType]);
        // Non-codec struct: field alone is not a finding.
        assert!(rules_found("struct P { cache: HashMap<u64, u8> }").is_empty());
    }

    #[test]
    fn allow_directive_suppresses_with_reason() {
        let src = "fn f() {\n    // zkdet-analyzer: allow(wall-clock) measurement only, never scheduling\n    let t = Instant::now();\n}";
        let findings = scan_source("t.rs", src, LIB);
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].allowed.as_deref(),
            Some("measurement only, never scheduling")
        );
        assert_eq!(findings[0].severity(), Severity::Info);
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "// zkdet-analyzer: allow(wall-clock)\nlet t = Instant::now();";
        let found = rules_found(src);
        assert!(found.contains(&Rule::AllowMissingReason));
        assert!(found.contains(&Rule::WallClock), "reasonless allow must not suppress");
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = r#"
            fn lib() {}
            #[cfg(test)]
            mod tests {
                fn t() { let _ = Instant::now(); std::thread::spawn(|| {}); }
            }
        "#;
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn matches_in_strings_and_comments_do_not_fire() {
        let src = r#"fn f() { let s = "Instant::now"; } // Instant::now in comment"#;
        assert!(rules_found(src).is_empty());
    }
}
