//! File discovery, classification, and the masking line scanner.
//!
//! The scanner's job is to hand the rules a view of each source file in
//! which string/char literal contents and comments are blanked out, so a
//! pattern constant such as a rule's own name can never self-flag, while
//! line comments are kept separately for waiver parsing.

use crate::report::Violation;
use std::path::{Path, PathBuf};

/// What kind of compilation target a file belongs to. Rules apply per class:
/// the deterministic surface is `Lib` (and `Bin` for iteration order), while
/// benches, examples and the vendored shims legitimately touch the wall
/// clock or stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source — the deterministic surface; every rule applies.
    Lib,
    /// A binary target (`src/bin/`, `src/main.rs`) — may print, must not
    /// iterate unordered maps or spawn ad-hoc threads.
    Bin,
    /// Integration test — exempt from line rules (tests drive, not decide).
    Test,
    /// Bench target — needs the wall clock by definition.
    Bench,
    /// Example — a demo bin; may print.
    Example,
    /// Vendored shim under `crates/shims/` — mirrors an external crate's
    /// API and is skipped entirely.
    Shim,
}

/// Classify a workspace-relative path (always `/`-separated).
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("crates/shims/") {
        FileClass::Shim
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        FileClass::Bench
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileClass::Example
    } else if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileClass::Test
    } else if rel.contains("/src/bin/") || rel.ends_with("src/main.rs") {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// Recursively list every `.rs` file under `root`, as sorted
/// workspace-relative `/`-separated paths. Skips `target`, `.git` and other
/// dot-directories so the walk is independent of build state.
pub fn discover_rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked path is under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// One source line after masking: `code` has literal contents and comments
/// blanked (replaced by spaces); `comment` carries the text of a plain `//`
/// line comment (doc comments excluded) for waiver parsing.
#[derive(Debug, Clone)]
pub struct MaskedLine {
    /// The line's code with string/char literal contents and comments
    /// replaced by spaces. Column positions are preserved.
    pub code: String,
    /// Trimmed text after `//` if the line carries a plain line comment
    /// (`///` and `//!` doc comments are not included).
    pub comment: Option<String>,
}

/// A masked view of a whole file; line `n` is `lines[n - 1]`.
#[derive(Debug, Clone, Default)]
pub struct MaskedFile {
    /// The masked lines, in order.
    pub lines: Vec<MaskedLine>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    Str,
    RawStr(usize),
    Char,
    LineComment { doc: bool },
    BlockComment(usize),
}

/// Run the character state machine over `source`, producing masked lines.
///
/// The machine recognises string literals (including raw strings with any
/// number of `#`), char literals (distinguished from lifetimes by lookahead),
/// line comments and nested block comments. Contents of all of them are
/// replaced by spaces in `code`; plain `//` comments are additionally kept in
/// `comment` so waivers can be parsed.
pub fn mask(source: &str) -> MaskedFile {
    let mut out = MaskedFile::default();
    for raw_line in source.lines() {
        out.lines.push(MaskedLine { code: String::with_capacity(raw_line.len()), comment: None });
    }
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut line_idx = 0usize;
    let mut comment_buf = String::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            match state {
                State::LineComment { doc } => {
                    if !doc {
                        let text = comment_buf.trim().to_string();
                        out.lines[line_idx].comment = Some(text);
                    }
                    comment_buf.clear();
                    state = State::Code;
                }
                // An unterminated char literal cannot span lines; strings may
                // (the Str state is left untouched).
                State::Char => state = State::Code,
                _ => {}
            }
            line_idx += 1;
            i += 1;
            continue;
        }
        let push = |out: &mut MaskedFile, line_idx: usize, ch: char| {
            out.lines[line_idx].code.push(ch);
        };
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    let doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                    state = State::LineComment { doc };
                    push(&mut out, line_idx, ' ');
                    push(&mut out, line_idx, ' ');
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    push(&mut out, line_idx, ' ');
                    push(&mut out, line_idx, ' ');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    push(&mut out, line_idx, '"');
                    i += 1;
                    continue;
                }
                if c == 'r' && matches!(chars.get(i + 1), Some('"') | Some('#')) {
                    // Possible raw string: r" or r#...#"
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            push(&mut out, line_idx, ' ');
                        }
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    push(&mut out, line_idx, c);
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Lifetime (`'a`, `'static`) or char literal? A char
                    // literal either escapes (`'\n'`) or is one char wide
                    // (`'x'`); a lifetime's identifier is not followed by a
                    // closing quote.
                    let next = chars.get(i + 1).copied();
                    let after = chars.get(i + 2).copied();
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => after == Some('\''),
                        None => false,
                    };
                    if is_char {
                        state = State::Char;
                        push(&mut out, line_idx, '\'');
                        i += 1;
                        continue;
                    }
                    push(&mut out, line_idx, '\'');
                    i += 1;
                    continue;
                }
                push(&mut out, line_idx, c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    push(&mut out, line_idx, ' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        push(&mut out, line_idx, ' ');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                if c == '"' {
                    push(&mut out, line_idx, '"');
                    state = State::Code;
                    i += 1;
                    continue;
                }
                push(&mut out, line_idx, ' ');
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0usize;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        for _ in i..j {
                            push(&mut out, line_idx, ' ');
                        }
                        state = State::Code;
                        i = j;
                        continue;
                    }
                }
                push(&mut out, line_idx, ' ');
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    push(&mut out, line_idx, ' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        push(&mut out, line_idx, ' ');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    push(&mut out, line_idx, '\'');
                    state = State::Code;
                    i += 1;
                    continue;
                }
                push(&mut out, line_idx, ' ');
                i += 1;
            }
            State::LineComment { doc } => {
                if !doc {
                    comment_buf.push(c);
                }
                push(&mut out, line_idx, ' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    push(&mut out, line_idx, ' ');
                    push(&mut out, line_idx, ' ');
                    i += 2;
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    push(&mut out, line_idx, ' ');
                    push(&mut out, line_idx, ' ');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                }
                push(&mut out, line_idx, ' ');
                i += 1;
            }
        }
    }
    if let State::LineComment { doc: false } = state {
        // File ends mid line-comment (no trailing newline).
        if line_idx < out.lines.len() {
            out.lines[line_idx].comment = Some(comment_buf.trim().to_string());
        }
    }
    out
}

/// How far a waiver reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverKind {
    /// `tidy:allow` — the waiver's own line and the one after it.
    Allow,
    /// `tidy:module` — the whole file.
    Module,
}

/// A parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Workspace-relative file the waiver appears in.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The rule id being waived (e.g. `unordered-iter`).
    pub rule: String,
    /// Reach of the waiver.
    pub kind: WaiverKind,
    /// The mandatory `-- <justification>` text.
    pub justification: String,
}

impl Waiver {
    /// Does this waiver cover a violation of `rule` on `line`?
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.rule == rule
            && match self.kind {
                WaiverKind::Module => true,
                WaiverKind::Allow => line == self.line || line == self.line + 1,
            }
    }
}

/// Parse `tidy:allow(...)` / `tidy:module(...)` waivers out of a file's
/// plain line comments. A waiver missing its `-- justification` tail is
/// itself reported as a `malformed-waiver` violation.
pub fn parse_waivers(
    rel: &str,
    masked: &MaskedFile,
    violations: &mut Vec<Violation>,
) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (idx, line) in masked.lines.iter().enumerate() {
        let Some(comment) = &line.comment else { continue };
        let (kind, rest) = if let Some(rest) = comment.strip_prefix("tidy:allow(") {
            (WaiverKind::Allow, rest)
        } else if let Some(rest) = comment.strip_prefix("tidy:module(") {
            (WaiverKind::Module, rest)
        } else {
            continue;
        };
        let lineno = idx + 1;
        let Some((rule, tail)) = rest.split_once(')') else {
            violations.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: "malformed-waiver",
                message: "waiver is missing its closing parenthesis".to_string(),
            });
            continue;
        };
        let justification = tail.trim_start().strip_prefix("--").map(str::trim).unwrap_or("");
        if justification.is_empty() {
            violations.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: "malformed-waiver",
                message: format!(
                    "waiver for `{rule}` needs a justification: \
                     `// tidy:{}({rule}) -- <why this is sound>`",
                    if kind == WaiverKind::Allow { "allow" } else { "module" }
                ),
            });
            continue;
        }
        waivers.push(Waiver {
            file: rel.to_string(),
            line: lineno,
            rule: rule.trim().to_string(),
            kind,
            justification: justification.to_string(),
        });
    }
    waivers
}

/// Does `code` contain `word` bounded by non-identifier characters? Used for
/// type-name patterns (`Instant`, `HashMap`) where substring matching would
/// misfire on e.g. `InstantaneousRate`.
pub fn contains_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

/// Byte offset of the first identifier-bounded occurrence of `word`.
pub fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_layout() {
        assert_eq!(classify("crates/ftoa-core/src/guide.rs"), FileClass::Lib);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(classify("crates/experiments/src/bin/replay.rs"), FileClass::Bin);
        assert_eq!(classify("tests/paper_example.rs"), FileClass::Test);
        assert_eq!(classify("crates/flow/tests/proptest_flow.rs"), FileClass::Test);
        assert_eq!(
            classify("crates/experiments/benches/bench_parallel_sweep.rs"),
            FileClass::Bench
        );
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("crates/shims/rand/src/lib.rs"), FileClass::Shim);
    }

    #[test]
    fn masking_blanks_string_contents_but_keeps_structure() {
        let masked = mask("let x = \"Instant::now()\"; // trailing\n");
        assert_eq!(masked.lines.len(), 1);
        assert!(!masked.lines[0].code.contains("Instant"));
        assert!(masked.lines[0].code.starts_with("let x = \""));
        assert_eq!(masked.lines[0].comment.as_deref(), Some("trailing"));
    }

    #[test]
    fn masking_handles_raw_strings_and_escapes() {
        let src = "let a = r#\"HashMap \"quoted\" inside\"#;\nlet b = \"esc \\\" HashSet\";\nlet c = b;\n";
        let masked = mask(src);
        for line in &masked.lines {
            assert!(!line.code.contains("HashMap"), "{:?}", line.code);
            assert!(!line.code.contains("HashSet"), "{:?}", line.code);
        }
        assert!(masked.lines[2].code.contains("let c = b;"));
    }

    #[test]
    fn masking_distinguishes_lifetimes_from_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\n";
        let masked = mask(src);
        let code = &masked.lines[0].code;
        assert!(code.contains("<'a>"), "lifetime must survive: {code:?}");
        assert!(!code.contains("'x'") || code.contains("' '"), "char contents blanked: {code:?}");
    }

    #[test]
    fn doc_comments_are_not_waiver_comments() {
        let src = "//! tidy:allow(wall-clock) -- doc text\n/// tidy:module(x) -- doc\nlet y = 1;\n";
        let masked = mask(src);
        assert!(masked.lines[0].comment.is_none());
        assert!(masked.lines[1].comment.is_none());
    }

    #[test]
    fn block_comments_nest_and_blank() {
        let src = "/* outer /* inner Instant */ still out */ let z = 0;\n";
        let masked = mask(src);
        let code = &masked.lines[0].code;
        assert!(!code.contains("Instant"));
        assert!(code.contains("let z = 0;"));
    }

    #[test]
    fn waiver_parsing_accepts_good_and_flags_bad() {
        let src = "\
// tidy:allow(unordered-iter) -- order folded through a sort below
let a = 1;
// tidy:module(wall-clock) -- sanctioned clock module
// tidy:allow(stray-print)
let b = 2;
";
        let masked = mask(src);
        let mut violations = Vec::new();
        let waivers = parse_waivers("x.rs", &masked, &mut violations);
        assert_eq!(waivers.len(), 2);
        assert_eq!(waivers[0].rule, "unordered-iter");
        assert_eq!(waivers[0].kind, WaiverKind::Allow);
        assert!(waivers[0].covers("unordered-iter", 2));
        assert!(!waivers[0].covers("unordered-iter", 3));
        assert_eq!(waivers[1].kind, WaiverKind::Module);
        assert!(waivers[1].covers("wall-clock", 999));
        assert_eq!(violations.len(), 1, "justification-less waiver is flagged");
        assert_eq!(violations[0].rule, "malformed-waiver");
        assert_eq!(violations[0].line, 4);
    }

    #[test]
    fn word_boundaries_are_respected() {
        assert!(contains_word("use std::time::Instant;", "Instant"));
        assert!(!contains_word("let InstantaneousRate = 3;", "Instant"));
        assert!(!contains_word("my_Instant_like", "Instant"));
        assert!(contains_word("HashMap::new()", "HashMap"));
    }
}
