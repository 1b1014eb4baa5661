//! A hand-rolled JSON value: renderer and parser.
//!
//! Deliberately dependency-free. The renderer produces pretty-printed,
//! deterministic output (object keys keep insertion order). The parser
//! accepts standard JSON and reads every `ccv serve` request, every
//! persisted verdict-cache entry and every `ccv client` reply, so it
//! runs in linear time and bounds its recursion ([`MAX_DEPTH`]).

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so without a bound a request
/// line of `[`s could overflow the stack of the thread reading it.
/// Nothing `ccv` writes nests deeper than a dozen levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered with minimal digits; integers stay integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line (used for NDJSON event records).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    escape_into(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Appends the single-line rendering to `out` — the building block
    /// of writers that emit part of a document directly and the rest
    /// through a `Json` value.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document in time linear in its length. Trailing
    /// whitespace is allowed; any other trailing content, and arrays
    /// and objects nested deeper than [`MAX_DEPTH`], are errors.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` to `out` as a quoted JSON string literal.
///
/// Escapes `"`, `\\`, `\n`, `\r` and `\t` by name and every other
/// control character below U+0020 as `\u00XX`; everything else,
/// multi-byte text included, is copied through. Every escaped character
/// is ASCII, so the scan runs over bytes and copies each unescaped run
/// with one `push_str`.
pub fn escape_into(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    escape_unquoted_into(out, s);
    out.push('"');
}

/// Appends the escaped contents of `s` to `out`, without the quotes:
/// a piece of a string literal whose text is written in parts.
pub fn escape_unquoted_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays
/// and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match open {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?} at {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?} at {pos}")),
                }
            }
        }
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Parses the string literal at `pos`.
///
/// The text is already UTF-8 and both `"` and `\` are ASCII, so each
/// run between them ends on a char boundary: it is found by a byte
/// scan and copied with one `push_str`, and only escapes are decoded.
/// Raw control characters are taken as they are.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
        let Some(run) = run else {
            return Err("unterminated string".to_string());
        };
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let mut code = hex4(bytes, *pos + 1)?;
                *pos += 4;
                // A high surrogate followed by an escaped low one is a
                // pair; any other surrogate stands alone and becomes
                // U+FFFD. A malformed second escape is left for the
                // next turn of the loop to report.
                if (0xd800..0xdc00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                {
                    if let Ok(low @ 0xdc00..=0xdfff) = hex4(bytes, *pos + 3) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        *pos += 6;
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        *pos += 1;
    }
}

/// The value of the four hex digits of a `\u` escape, starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let number = &text[start..*pos];
    number
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {number:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;

    #[test]
    fn roundtrip_pretty() {
        let doc = Json::Obj(vec![
            ("name".to_string(), Json::str("illinois")),
            ("visits".to_string(), Json::int(22)),
            ("ok".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
            (
                "sizes".to_string(),
                Json::Arr(vec![Json::int(1), Json::int(2)]),
            ),
        ]);
        let text = doc.render();
        assert!(text.contains("\"visits\": 22"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn roundtrip_compact_and_escapes() {
        let doc = Json::Obj(vec![(
            "msg".to_string(),
            Json::str("line1\nline2\t\"quoted\" \\"),
        )]);
        let text = doc.render_compact();
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    /// The escaper as first written, one `char` at a time: the oracle
    /// `escape_into` must match byte for byte.
    fn escape_by_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn escape_into_matches_the_char_by_char_escaper() {
        let cases = [
            "",
            "plain ascii",
            "\"",
            "\\",
            "a\"b\\c\nd\re\tf",
            "\u{1}\u{1f}\u{7f}",
            "I⁺ S¡ M· 🦀",
            "🦀\"⁺\n¡\u{1}·\\",
            "(I⁺, M¹) --PrRd/BusRd--> (S*, M·)",
            "\n\n\t\t\"\"\\\\",
        ];
        for case in cases {
            let (mut fast, mut slow) = (String::from("x"), String::from("x"));
            escape_into(&mut fast, case);
            escape_by_char(&mut slow, case);
            assert_eq!(fast, slow, "escaping {case:?}");
            assert_eq!(
                Json::parse(&fast[1..]).unwrap(),
                Json::str(case),
                "round trip of {case:?}"
            );
        }
        // Every control character below U+0020, and the first above.
        let controls: String = (0u8..=0x20).map(char::from).collect();
        let (mut fast, mut slow) = (String::new(), String::new());
        escape_into(&mut fast, &controls);
        escape_by_char(&mut slow, &controls);
        assert_eq!(fast, slow);
        assert_eq!(Json::parse(&fast).unwrap(), Json::str(controls));
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 3, "b": [1.5, "x"], "c": -2}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap()[0].as_f64(),
            Some(1.5)
        );
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap()[1].as_str(),
            Some("x")
        );
        assert_eq!(doc.get("c").unwrap().as_u64(), None);
        assert_eq!(doc.get("c").unwrap().as_f64(), Some(-2.0));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn string_errors_name_the_first_fault() {
        for (text, error) in [
            ("\"open", "unterminated string"),
            ("\"open\\", "bad escape None"),
            ("\"a\\q\"", "bad escape Some(113)"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\u12\"}\"", "bad \\u escape"),
            ("\"\\u12é\"", "bad \\u escape"),
            ("\"\\ud83e\\uzzzz\"", "bad \\u escape"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("[1 2]", "expected ',' or ']', got Some(50) at 3"),
            ("[tru]", "invalid literal at byte 1"),
            ("[1.2.3]", "invalid number \"1.2.3\" at byte 1"),
        ] {
            assert_eq!(Json::parse(text), Err(error.to_string()), "{text}");
        }
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_become_replacement_characters() {
        let parse = |text: &str| Json::parse(text).unwrap();
        assert_eq!(parse(r#""\ud83e\udd80""#), Json::str("🦀"));
        assert_eq!(parse(r#""a\uD83E\uDD80b""#), Json::str("a🦀b"));
        assert_eq!(parse(r#""\ud800\udc00""#), Json::str("\u{10000}"));
        assert_eq!(parse(r#""\udbff\udfff""#), Json::str("\u{10ffff}"));
        // Lone halves, a high one before a non-surrogate escape, and a
        // low one before a high one.
        assert_eq!(parse(r#""\ud83e""#), Json::str("\u{fffd}"));
        assert_eq!(parse(r#""\udd80x""#), Json::str("\u{fffd}x"));
        assert_eq!(parse(r#""\ud83ex""#), Json::str("\u{fffd}x"));
        assert_eq!(parse(r#""\ud83e\n""#), Json::str("\u{fffd}\n"));
        assert_eq!(parse(r#""\ud83e\u0041""#), Json::str("\u{fffd}A"));
        assert_eq!(parse(r#""\ud83e\ud83e\udd80""#), Json::str("\u{fffd}🦀"));
        assert_eq!(parse(r#""\udd80\ud83e""#), Json::str("\u{fffd}\u{fffd}"));
    }

    #[test]
    fn nesting_is_bounded() {
        let refused =
            |text: &str| Json::parse(text).is_err_and(|e| e.starts_with("nesting deeper"));
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"x\":".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&arrays(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            ))
        );
        assert!(refused(&objects(MAX_DEPTH + 1)));
        // Far past the bound: refused, not a stack overflow.
        assert!(refused(&format!("{{\"x\":{}", "[".repeat(100_000))));
    }

    /// Runs `f` on its own thread and fails if it takes longer than
    /// `secs`: a reader that is quadratic in the document's length
    /// fails in seconds instead of running for hours.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(value) => {
                worker.join().expect("worker exits after sending");
                value
            }
            // A late worker is left running: a thread cannot be stopped,
            // and the test binary's exit ends it.
            Err(RecvTimeoutError::Timeout) => panic!("not finished within {secs} s"),
            Err(RecvTimeoutError::Disconnected) => panic!("the timed call panicked"),
        }
    }

    #[test]
    fn a_sixteen_megabyte_string_parses_and_round_trips() {
        // Multi-byte text and escapes throughout, so every path of the
        // string reader runs millions of times.
        let unit = "(I⁺, M¹) --PrRd/BusRd--> \"S*\"\\\n🦀\t\u{1}";
        let value = unit.repeat((16 << 20) / unit.len() + 1);
        assert!(value.len() >= 16 << 20);
        let text = Json::str(value.as_str()).render_compact();
        let parsed = within(10, move || Json::parse(&text));
        assert!(parsed.unwrap() == Json::Str(value), "round trip differs");
    }
}
