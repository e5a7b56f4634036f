//! The analysed workspace model: lexed source files with their
//! test-code mask and suppression annotations, and the directory walker
//! that loads them.
//!
//! Scan scope: every `*.rs` under `src/` and `crates/*/src/`.
//! Integration tests and examples are not library code and are not
//! linted, but they do call the library: they are loaded as
//! [reader-only files](Workspace::readers) that only `dead-pub` looks
//! at. Manifests are Cargo's to read (`--locked`, and a `Cargo.lock`
//! without a `source =` line, keep the build hermetic).

use crate::lexer::{self, Token, TokenKind};
use crate::Finding;
use daos::DaosError;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The allow-annotation grammar: `// lint: allow(<key>, <reason>)`.
/// `key` is a lint's short allow key (see [`crate::lints::ALLOW_KEYS`]);
/// the reason is mandatory — an allow without a *why* is itself a
/// finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The allow key the annotation names (`panic`, `print`, …).
    pub key: String,
    /// The justification text.
    pub reason: String,
    /// The line the annotation suppresses findings on.
    pub target: u32,
}

/// One lexed `.rs` file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The `crates/<name>/…` component, if the file is in a crate.
    pub crate_name: Option<String>,
    /// The file's text.
    pub src: String,
    /// The token stream (comments included).
    pub tokens: Vec<Token>,
    /// Per-token flag: inside `#[test]` / `#[cfg(test)]`-gated code.
    pub in_test: Vec<bool>,
    /// Parsed `// lint: allow(…)` annotations.
    pub allows: Vec<Allow>,
    /// Lines justified by an `// ordering:` comment (for the
    /// atomic-ordering lint).
    pub ordering_justified: BTreeSet<u32>,
    /// Malformed-annotation findings discovered while parsing comments.
    pub annotation_findings: Vec<Finding>,
}

impl SourceFile {
    /// Lex and pre-analyse one file.
    pub fn parse(rel: String, crate_name: Option<String>, src: String) -> SourceFile {
        let tokens = lexer::lex(&src);
        let in_test = test_mask(&tokens, &src);
        let mut f = SourceFile {
            rel,
            crate_name,
            src,
            tokens,
            in_test,
            allows: Vec::new(),
            ordering_justified: BTreeSet::new(),
            annotation_findings: Vec::new(),
        };
        f.parse_comments();
        f
    }

    /// The text of a token.
    pub fn text(&self, t: &Token) -> &str {
        t.text(&self.src)
    }

    /// Indices of non-comment tokens, in order — what most passes walk.
    pub fn code(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| {
                !matches!(
                    self.tokens[i].kind,
                    TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect()
    }

    /// Live lines of code: lines on which a token starts that is neither
    /// a comment nor inside `#[test]` / `#[cfg(test)]`-gated code.
    pub fn live_lines(&self) -> usize {
        let lines: BTreeSet<u32> = self
            .code()
            .into_iter()
            .filter(|&i| !self.in_test[i])
            .map(|i| self.tokens[i].line)
            .collect();
        lines.len()
    }

    /// Is a finding of `key` at `line` suppressed by an annotation?
    pub fn allowed(&self, key: &str, line: u32) -> bool {
        self.allows.iter().any(|a| a.key == key && a.target == line)
    }

    /// The first code-token line strictly after `line` (for standalone
    /// comments, which annotate the code that follows them).
    fn next_code_line(&self, line: u32) -> Option<u32> {
        self.tokens
            .iter()
            .filter(|t| {
                !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                    && t.line > line
            })
            .map(|t| t.line)
            .min()
    }

    /// Does `line` hold a code token that starts before byte `before`?
    fn code_on_line_before(&self, line: u32, before: usize) -> bool {
        self.tokens.iter().any(|t| {
            t.line == line
                && t.start < before
                && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
        })
    }

    fn parse_comments(&mut self) {
        let comments: Vec<Token> = self
            .tokens
            .iter()
            .copied()
            .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        for c in comments {
            let body = comment_body(self.text(&c));
            // A trailing comment annotates its own line; a standalone
            // comment annotates the next code line (stacked comments
            // pass through to the same target).
            let target = if self.code_on_line_before(c.line, c.start) {
                Some(c.line)
            } else {
                self.next_code_line(c.line)
            };
            if body.starts_with("ordering:") {
                let reason = body["ordering:".len()..].trim();
                if reason.is_empty() {
                    self.annotation_findings.push(Finding::annotation(
                        &self.rel,
                        c.line,
                        "`// ordering:` comment has no justification text".into(),
                    ));
                } else if let Some(t) = target {
                    self.ordering_justified.insert(t);
                }
            } else if let Some(rest) = body.strip_prefix("lint:") {
                match parse_allow(rest.trim()) {
                    Ok((key, reason)) => {
                        if let Some(t) = target {
                            self.allows.push(Allow { key, reason, target: t });
                        }
                    }
                    Err(msg) => {
                        self.annotation_findings.push(Finding::annotation(
                            &self.rel, c.line, msg,
                        ));
                    }
                }
            }
        }
    }
}

/// Strip comment sigils: `//`, `///`, `//!`, `/* … */` framing.
fn comment_body(text: &str) -> &str {
    let t = text.trim_start_matches('/');
    let t = if let Some(inner) = t.strip_prefix('*') {
        inner.trim_end_matches('/').trim_end_matches('*')
    } else {
        t.strip_prefix('!').unwrap_or(t)
    };
    t.trim()
}

/// Parse `allow(<key>, <reason>)`; both parts mandatory, key must be a
/// known allow key.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let inner = s
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| {
            format!("malformed lint annotation `{s}`: expected `lint: allow(<key>, <reason>)`")
        })?;
    let (key, reason) = inner.split_once(',').ok_or_else(|| {
        format!("lint annotation `allow({inner})` is missing its mandatory reason")
    })?;
    let (key, reason) = (key.trim(), reason.trim());
    if reason.is_empty() {
        return Err(format!("lint annotation `allow({inner})` has an empty reason"));
    }
    if !crate::lints::ALLOW_KEYS.contains(&key) {
        return Err(format!(
            "unknown lint key `{key}` in allow annotation (known: {})",
            crate::lints::ALLOW_KEYS.join(", ")
        ));
    }
    Ok((key.to_string(), reason.to_string()))
}

/// Compute the per-token "inside test code" mask: tokens covered by a
/// `#[test]`-attributed item or a `#[cfg(test)]`-gated item (module,
/// fn, impl, …). `#[cfg(not(test))]` is *not* test code.
fn test_mask(tokens: &[Token], src: &str) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Work over code tokens; map back to full indices for marking.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(tokens[i].kind, TokenKind::LineComment | TokenKind::BlockComment)
        })
        .collect();
    let text = |ci: usize| tokens[code[ci]].text(src);
    let is_punct = |ci: usize, c: char| {
        tokens[code[ci]].kind == TokenKind::Punct && text(ci) == c.to_string().as_str()
    };

    let mut ci = 0;
    while ci + 1 < code.len() {
        if text(ci) == "macro_rules" && is_punct(ci + 1, '!') {
            // A `#[test]` in a macro template gates the expansion, not
            // this file's code.
            ci = match_close(&code, tokens, src, ci + 3, '{', '}').map_or(ci + 1, |c| c + 1);
            continue;
        }
        if !(is_punct(ci, '#') && is_punct(ci + 1, '[')) {
            ci += 1;
            continue;
        }
        // Find the attribute's closing `]`.
        let Some(close) = match_close(&code, tokens, src, ci + 1, '[', ']') else { break };
        let attr: Vec<&str> = (ci + 2..close).map(text).collect();
        if !attr_is_test(&attr) {
            ci = close + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut q = close + 1;
        while q + 1 < code.len() && is_punct(q, '#') && is_punct(q + 1, '[') {
            match match_close(&code, tokens, src, q + 1, '[', ']') {
                Some(c) => q = c + 1,
                None => break,
            }
        }
        // The gated item runs to its body's matching `}` — or to a `;`
        // for body-less items (`#[cfg(test)] use …;`). Parens/brackets
        // on the way (fn signatures) are skipped as groups.
        let mut end = code.len().saturating_sub(1);
        let mut r = q;
        while r < code.len() {
            if is_punct(r, ';') {
                end = r;
                break;
            } else if is_punct(r, '{') {
                end = match_close(&code, tokens, src, r, '{', '}').unwrap_or(end);
                break;
            } else if is_punct(r, '(') {
                r = match_close(&code, tokens, src, r, '(', ')').map_or(code.len(), |c| c + 1);
            } else if is_punct(r, '[') {
                r = match_close(&code, tokens, src, r, '[', ']').map_or(code.len(), |c| c + 1);
            } else {
                r += 1;
            }
        }
        for slot in &mut mask[code[ci]..=code[end.min(code.len() - 1)]] {
            *slot = true;
        }
        ci = end + 1;
    }
    mask
}

/// Find the code-index of the delimiter matching `open` at `at`.
fn match_close(
    code: &[usize],
    tokens: &[Token],
    src: &str,
    at: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0isize;
    for (off, &ti) in code.iter().enumerate().skip(at) {
        if tokens[ti].kind != TokenKind::Punct {
            continue;
        }
        let t = tokens[ti].text(src);
        if t.len() == 1 {
            let c = t.as_bytes()[0] as char;
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return Some(off);
                }
            }
        }
    }
    None
}

/// Is an attribute's token text `#[test]`-like or `#[cfg(test)]`-like?
fn attr_is_test(attr: &[&str]) -> bool {
    match attr.first() {
        Some(&"test") => true,
        Some(&"cfg") => {
            attr.iter().any(|&t| t == "test") && !attr.iter().any(|&t| t == "not")
        }
        _ => false,
    }
}

/// The loaded workspace: every scanned source file.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Lexed `.rs` files under `src/` and `crates/*/src/`.
    pub files: Vec<SourceFile>,
    /// Lexed `.rs` files under `tests/`, `examples/` and
    /// `crates/*/tests/`, minus any `fixtures/` tree (the lint's own
    /// fixture workspaces): callers of the library, never linted.
    pub readers: Vec<SourceFile>,
}

impl Workspace {
    /// Load `root` (a directory holding `Cargo.toml` and `crates/`).
    pub fn load(root: &Path) -> Result<Workspace, DaosError> {
        let (mut files, mut readers) = (Vec::new(), Vec::new());
        load_tree(&mut files, root, "src", None)?;
        load_tree(&mut readers, root, "tests", None)?;
        load_tree(&mut readers, root, "examples", None)?;
        let crates = root.join("crates");
        if crates.is_dir() {
            for dir in read_dir_sorted(&crates)?.into_iter().filter(|p| p.is_dir()) {
                let name = file_name(&dir);
                load_tree(&mut files, root, &format!("crates/{name}/src"), Some(&name))?;
                load_tree(&mut readers, root, &format!("crates/{name}/tests"), Some(&name))?;
            }
        }

        Ok(Workspace { root: root.to_path_buf(), files, readers })
    }
}

/// Lex every `.rs` file under `root/rel` (if it exists) into `out`.
fn load_tree(
    out: &mut Vec<SourceFile>,
    root: &Path,
    rel: &str,
    crate_name: Option<&str>,
) -> Result<(), DaosError> {
    let dir = root.join(rel);
    if dir.is_dir() {
        for p in walk_rs_files(&dir)? {
            let sub = p.strip_prefix(&dir).unwrap_or(&p).to_string_lossy().replace('\\', "/");
            let owner = crate_name.map(str::to_string);
            out.push(SourceFile::parse(format!("{rel}/{sub}"), owner, read(&p)?));
        }
    }
    Ok(())
}

fn read(p: &Path) -> Result<String, DaosError> {
    fs::read_to_string(p).map_err(|e| DaosError::io(p.to_string_lossy(), e))
}

fn file_name(p: &Path) -> String {
    p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, DaosError> {
    let rd = fs::read_dir(dir).map_err(|e| DaosError::io(dir.to_string_lossy(), e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| DaosError::io(dir.to_string_lossy(), e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, sorted, skipping `fixtures/`
/// directories.
fn walk_rs_files(dir: &Path) -> Result<Vec<PathBuf>, DaosError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for p in read_dir_sorted(&d)? {
            if p.is_dir() {
                if file_name(&p) != "fixtures" {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs".into(), Some("x".into()), src.into())
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let f = sf("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n");
        let code = f.code();
        let tok_text: Vec<(&str, bool)> = code
            .iter()
            .map(|&i| (f.text(&f.tokens[i]), f.in_test[i]))
            .collect();
        assert!(tok_text.contains(&("a", false)));
        assert!(tok_text.contains(&("unwrap", true)));
        assert!(tok_text.contains(&("c", false)));
    }

    #[test]
    fn live_lines_skip_comments_blanks_and_test_code() {
        let f = sf(
            "//! Crate docs.\n\
             \n\
             /// Item docs.\n\
             fn a() { // trailing comment\n\
                 b(); /* inline */ c();\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { a(); }\n\
             }\n",
        );
        assert_eq!(f.live_lines(), 3, "fn a's three lines");
    }

    #[test]
    fn test_fns_and_stacked_attrs_are_masked() {
        let f = sf("#[test]\n#[allow(dead_code)]\nfn t(x: Option<u8>) { x.unwrap(); }\nfn live() {}\n");
        let code = f.code();
        let masked: Vec<&str> = code
            .iter()
            .filter(|&&i| f.in_test[i])
            .map(|&i| f.text(&f.tokens[i]))
            .collect();
        assert!(masked.contains(&"unwrap"));
        assert!(!masked.contains(&"live"));
    }

    #[test]
    fn test_attributes_in_macro_templates_are_not_masked() {
        let f = sf("macro_rules! p {\n () => { #[test] fn t() { run_cases(); } };\n}\n");
        assert!(f.in_test.iter().all(|&b| !b), "the template is this file's code");
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let f = sf("#[cfg(not(test))]\nfn a() { x.unwrap(); }\n");
        assert!(f.in_test.iter().all(|&b| !b));
    }

    #[test]
    fn annotations_target_trailing_and_next_lines() {
        let f = sf(
            "fn a() { x.unwrap(); } // lint: allow(panic, trailing form)\n\
             // lint: allow(print, standalone form)\n\
             // more prose continues the comment\n\
             fn b() { println!(\"x\"); }\n",
        );
        assert!(f.allowed("panic", 1));
        assert!(f.allowed("print", 4), "standalone comment targets the next code line");
        assert!(f.annotation_findings.is_empty());
    }

    #[test]
    fn malformed_annotations_are_findings() {
        let f = sf("// lint: allow(panic)\nfn a() {}\n// lint: allow(bogus, why)\nfn b() {}\n");
        assert_eq!(f.annotation_findings.len(), 2);
        assert!(f.annotation_findings[0].message.contains("reason"));
        assert!(f.annotation_findings[1].message.contains("unknown lint key"));
    }

    #[test]
    fn ordering_comments_mark_their_target_lines() {
        let f = sf(
            "// ordering: Release pairs with the Acquire load below\n\
             flag.store(true, Ordering::Release);\n\
             let v = flag.load(Ordering::Acquire); // ordering: pairs with the store\n",
        );
        assert!(f.ordering_justified.contains(&2));
        assert!(f.ordering_justified.contains(&3));
    }
}
