//! The 25 pinned manifests and seeded edits of them that cannot change
//! their verdicts, shared by the integration tests that need them.
//!
//! The edits mirror the repository benchmark's: a comment line, a
//! re-indent, and renaming `content => '...'` literals (the analyses
//! compare contents only for equality, so a consistent, injective
//! renaming keeps every verdict).

#![allow(dead_code)]

use rehearsal::benchmarks::{FIXED_SUITE, METADATA_SUITE, SUITE};

/// One pinned manifest and the verdict the checker must give it.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    pub name: &'static str,
    pub source: &'static str,
    /// Checked with the metadata model on.
    pub metadata: bool,
    /// `"deterministic"` or `"nondeterministic"`.
    pub verdict: &'static str,
}

fn label(deterministic: bool) -> &'static str {
    if deterministic {
        "deterministic"
    } else {
        "nondeterministic"
    }
}

/// The 19 `benchmarks/` manifests, then the 6 `benchmarks-metadata/` ones.
pub fn pinned() -> Vec<Pinned> {
    let mut out: Vec<Pinned> = Vec::new();
    for b in SUITE.iter().chain(FIXED_SUITE) {
        if out.iter().all(|p| p.name != b.name) {
            out.push(Pinned {
                name: b.name,
                source: b.source,
                metadata: false,
                verdict: label(b.deterministic),
            });
        }
    }
    out.extend(METADATA_SUITE.iter().map(|b| Pinned {
        name: b.name,
        source: b.source,
        metadata: true,
        verdict: label(b.deterministic_with_metadata),
    }));
    out
}

/// Inserts `# edit <tag>` before line `at` (modulo the line count + 1).
pub fn comment_edit(text: &str, at: usize, tag: &str) -> String {
    let mut lines: Vec<&str> = text.split('\n').collect();
    let comment = format!("# edit {tag}");
    lines.insert(at % (lines.len() + 1), &comment);
    lines.join("\n")
}

/// Re-indents every indented line to `width` spaces.
pub fn reindent(text: &str, width: usize) -> String {
    let indent = " ".repeat(width);
    text.split('\n')
        .map(|line| {
            let body = line.trim_start_matches(' ');
            if body.len() < line.len() && !body.is_empty() {
                format!("{indent}{body}")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The byte ranges of every `content => '...'` literal's text.
fn literal_ranges(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(found) = text[from..].find("content") {
        let mut i = from + found + "content".len();
        from = i;
        let rest = &text[i..];
        let trimmed = rest.trim_start();
        i += rest.len() - trimmed.len();
        let Some(after) = trimmed.strip_prefix("=>") else {
            continue;
        };
        i += 2;
        let trimmed = after.trim_start();
        i += after.len() - trimmed.len();
        let Some(body) = trimmed.strip_prefix('\'') else {
            continue;
        };
        let Some(end) = body.find('\'') else { continue };
        if !body[..end].contains('\\') {
            out.push((i + 1, i + 1 + end));
        }
        from = i + 1 + end + 1;
    }
    out
}

/// Appends `suffix` to every content literal: consistent (equal literals
/// stay equal) and injective (distinct ones stay distinct).
pub fn rename_literals(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last = 0;
    for (_, end) in literal_ranges(text) {
        out.push_str(&text[last..end]);
        out.push_str(suffix);
        last = end;
    }
    out.push_str(&text[last..]);
    out
}

/// Appends `suffix` inside the first single-quoted string outside a
/// comment line (a title, path or content literal), or `None` when there
/// is none.
pub fn edit_first_literal(text: &str, suffix: &str) -> Option<String> {
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if !line.trim_start().starts_with('#') {
            if let Some(open) = line.find('\'') {
                if let Some(len) = line[open + 1..].find('\'') {
                    let end = offset + open + 1 + len;
                    return Some(format!("{}{suffix}{}", &text[..end], &text[end..]));
                }
            }
        }
        offset += line.len();
    }
    None
}

/// A small deterministic generator (splitmix64) for seeded test cases.
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        Prng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn usize(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}
