//! A minimal JSON value model with a serializer and parser.
//!
//! The fleet report, the verdict cache, the `rehearsal-check/5` document
//! (`check --json` and the daemon's `/v1/check`) and the CLI's other
//! `--json` modes all need machine-readable output, and the build
//! environment is offline, so this module stands in for `serde_json`.
//! Objects preserve insertion order, which keeps rendered reports stable
//! across runs.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered without a trailing `.0` when integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with stable key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from any integer.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation, for human-adjacent output.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, level: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, level + 1);
                    item.write_pretty(out, level + 1);
                }
                out.push('\n');
                indent(out, level);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, level + 1);
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, level + 1);
                }
                out.push('\n');
                indent(out, level);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_num(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- diagnostics (the documented machine encoding of rehearsal-diag) ----

use rehearsal_diag::{Diagnostic, Label, Pos, Severity, Span};

fn pos_json(p: Pos) -> Json {
    Json::obj([("line", Json::num(p.line)), ("col", Json::num(p.col))])
}

fn pos_from_json(j: &Json) -> Option<Pos> {
    Some(Pos::new(
        j.get("line")?.as_u64()? as u32,
        j.get("col")?.as_u64()? as u32,
    ))
}

fn span_json(s: Span) -> Json {
    if s.is_dummy() {
        return Json::Null;
    }
    Json::obj([("lo", pos_json(s.lo)), ("hi", pos_json(s.hi))])
}

fn span_from_json(j: &Json) -> Option<Span> {
    match j {
        Json::Null => Some(Span::DUMMY),
        _ => Some(Span::new(
            pos_from_json(j.get("lo")?)?,
            pos_from_json(j.get("hi")?)?,
        )),
    }
}

fn label_json(l: &Label) -> Json {
    Json::obj([
        ("span", span_json(l.span)),
        ("message", Json::str(&l.message)),
    ])
}

fn label_from_json(j: &Json) -> Option<Label> {
    Some(Label::new(
        span_from_json(j.get("span")?)?,
        j.get("message")?.as_str()?,
    ))
}

/// Serializes one [`Diagnostic`] into the stable JSON encoding used by
/// the `rehearsal-check/5` document (`check --json` and `/v1/check`),
/// fleet report rows, the verdict cache, and `--error-format json`:
///
/// ```json
/// {"severity": "error", "code": "R3001", "message": "…",
///  "primary": {"span": {"lo": {"line": 1, "col": 1},
///                       "hi": {"line": 1, "col": 8}}, "message": "…"},
///  "secondary": [ … ], "notes": ["…"], "payload": {"key": "value"}}
/// ```
pub fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::obj([
        ("severity", Json::str(d.severity.label())),
        ("code", Json::str(&d.code)),
        ("message", Json::str(&d.message)),
        (
            "primary",
            match &d.primary {
                Some(l) => label_json(l),
                None => Json::Null,
            },
        ),
        (
            "secondary",
            Json::Arr(d.secondary.iter().map(label_json).collect()),
        ),
        ("notes", Json::Arr(d.notes.iter().map(Json::str).collect())),
        (
            "payload",
            Json::Obj(
                d.payload
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Parses a [`diagnostic_json`] document back (the round-trip inverse).
pub fn diagnostic_from_json(j: &Json) -> Option<Diagnostic> {
    let severity = Severity::from_label(j.get("severity")?.as_str()?)?;
    let mut d = Diagnostic::new(
        severity,
        j.get("code")?.as_str()?,
        j.get("message")?.as_str()?,
    );
    match j.get("primary")? {
        Json::Null => {}
        p => {
            let l = label_from_json(p)?;
            d = d.with_primary(l.span, l.message);
        }
    }
    for l in j.get("secondary")?.as_arr()? {
        let l = label_from_json(l)?;
        d = d.with_secondary(l.span, l.message);
    }
    for n in j.get("notes")?.as_arr()? {
        d = d.with_note(n.as_str()?);
    }
    if let Some(Json::Obj(pairs)) = j.get("payload") {
        for (k, v) in pairs {
            d = d.with_payload(k.clone(), v.as_str()?);
        }
    }
    Some(d)
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not combined; cache lines never
                            // contain them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // in one step. Both delimiters are ASCII and the input
                    // came from a `&str`, so the run ends on a char
                    // boundary and is valid UTF-8.
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let text = std::str::from_utf8(&self.bytes[start..start + run])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(text);
                    self.pos = start + run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::num(42u32),
            Json::Num(-1.5),
            Json::str("hi \"there\"\nline"),
        ] {
            assert_eq!(parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Json::obj([
            ("name", Json::str("fleet")),
            ("counts", Json::Arr(vec![Json::num(1u32), Json::num(2u32)])),
            (
                "inner",
                Json::obj([("ok", Json::Bool(true)), ("detail", Json::Null)]),
            ),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn object_accessors() {
        let v = Json::obj([("n", Json::num(7u32)), ("s", Json::str("x"))]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integral_numbers_render_without_fraction() {
        assert_eq!(Json::num(13u32).render(), "13");
        assert_eq!(Json::Num(1.25).render(), "1.25");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("123 trailing").is_err());
    }

    /// Deterministic splitmix64 generator for test-case sampling.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() % items.len() as u64) as usize]
        }
    }

    /// ASCII, both delimiters, control characters, and 2-, 3- and 4-byte
    /// UTF-8.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', 'é', 'ß', '→',
        '€', '\u{fffd}', '😀', '𝄞',
    ];

    fn random_string(rng: &mut Rng, len: usize) -> String {
        (0..len).map(|_| rng.pick(ALPHABET)).collect()
    }

    /// `s` as a JSON string literal with each char written either raw
    /// (escaped only where JSON requires) or, at random, as `\uXXXX`, so
    /// escapes land on every kind of run boundary.
    fn encode_with_unicode_escapes(rng: &mut Rng, s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            if (c as u32) < 0x1_0000 && rng.next().is_multiple_of(3) {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                let quoted = Json::str(c).render();
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn random_strings_roundtrip() {
        for seed in 0..200u64 {
            let mut rng = Rng(seed);
            let len = (rng.next() % 64) as usize;
            let s = random_string(&mut rng, len);
            let v = Json::str(s.clone());
            assert_eq!(parse(&v.render()).unwrap(), v, "seed {seed}");
            let escaped = encode_with_unicode_escapes(&mut rng, &s);
            assert_eq!(parse(&escaped).unwrap(), v, "seed {seed}: {escaped}");
        }
    }

    #[test]
    fn string_errors_are_kept() {
        assert_eq!(parse("\"abc").unwrap_err().message, "unterminated string");
        assert_eq!(parse("\"a\\").unwrap_err().message, "bad escape");
        assert_eq!(parse("\"a\\q\"").unwrap_err().message, "bad escape");
        assert_eq!(parse("\"\\u12g4\"").unwrap_err().message, "bad \\u escape");
        assert_eq!(
            parse("\"\\u12").unwrap_err().message,
            "truncated \\u escape"
        );
        // Raw control characters are accepted, not rejected.
        assert_eq!(parse("\"a\tb\"").unwrap(), Json::str("a\tb"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One 128 KiB value: a per-character rescan of the rest of the
        // input took several seconds at this size.
        let mut rng = Rng(7);
        let mut s = String::new();
        while s.len() < 128 * 1024 {
            s.push(rng.pick(ALPHABET));
        }
        let text = Json::obj([("detail", Json::str(s.clone()))]).render();
        let started = std::time::Instant::now();
        let back = parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(back.get("detail").and_then(Json::as_str), Some(s.as_str()));
        assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
    }

    #[test]
    fn unicode_survives() {
        let v = Json::str("path → vérité");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn diagnostics_roundtrip_through_json() {
        let d = Diagnostic::error("R3001", "two resources race")
            .with_primary(
                Span::new(Pos::new(3, 1), Pos::new(3, 40)),
                "this resource races",
            )
            .with_secondary(Span::new(Pos::new(7, 1), Pos::new(7, 36)), "the other one")
            .with_note("order A succeeds, order B errors")
            .with_payload("resource_a", "File[/etc/ntp.conf]")
            .with_payload("resource_b", "Package[ntp]");
        let j = diagnostic_json(&d);
        let back = diagnostic_from_json(&j).expect("decodes");
        assert_eq!(back.code, d.code);
        assert_eq!(back.message, d.message);
        assert_eq!(back.severity, d.severity);
        assert!(back.primary.as_ref().unwrap().span.same(&d.span()));
        assert_eq!(back.secondary.len(), 1);
        assert_eq!(back.notes, d.notes);
        assert_eq!(back.payload, d.payload);
        // And through the *text* encoding too.
        let text = j.render();
        let back2 = diagnostic_from_json(&parse(&text).unwrap()).unwrap();
        assert!(back2.span().same(&d.span()));
    }

    #[test]
    fn dummy_spans_encode_as_null() {
        let d = Diagnostic::warning("R1101", "modeling note");
        let j = diagnostic_json(&d);
        assert_eq!(j.get("primary"), Some(&Json::Null));
        let back = diagnostic_from_json(&j).unwrap();
        assert!(back.primary.is_none());
    }
}
