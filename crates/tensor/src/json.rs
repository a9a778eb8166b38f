//! Minimal hand-rolled JSON — the same dependency-free discipline as the
//! `shims/` crates. Covers what its users need: a recursive-descent parser
//! into a small value tree (depth- and size-limited, never panicking on
//! malformed input) for the serving protocol, and the writers shared by
//! response bodies, obs reports and experiment tables.

use std::fmt::Write as _;

/// Parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Nesting bound: a request body deeper than this is hostile, not data.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error. All
/// failures are `Err(String)` — malformed input can never panic the server.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    let x: f64 = text.parse().map_err(|_| format!("invalid number '{text}'"))?;
    if !x.is_finite() {
        return Err(format!("non-finite number '{text}'"));
    }
    Ok(Json::Num(x))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogates and other invalid scalars map to the
                        // replacement character; lone surrogates are not
                        // worth a state machine in an inference protocol.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("invalid escape".into()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("control character in string".into()),
            Some(_) => {
                // Bulk-consume the run of ordinary bytes up to the next
                // quote, escape, or control byte: one UTF-8 validation per
                // run keeps string parsing O(n), where re-validating the
                // whole remaining input per character would be O(n²) — an
                // 8MB string body could pin a worker for minutes.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 string".to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b'"')) {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b':')) {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

// -- writers ----------------------------------------------------------------

/// Escapes a string into a JSON literal (quotes included).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// An f64 that stays recognizably float-typed on round trip (`2.0`, never
/// `2`); JSON has no NaN or infinity, so non-finite values become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e']) {
        out.push_str(".0");
    }
}

/// `[a, b, c]` of f32 values (shortest round-trip formatting — `{}` on f32
/// is deterministic and re-parses to the same bits).
pub fn write_f32_array(out: &mut String, values: &[f32]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
}

/// A typed error body: `{"error": "...", "detail": "..."}`.
pub fn error_body(error: &str, detail: &str) -> String {
    let mut out = String::with_capacity(error.len() + detail.len() + 32);
    out.push_str("{\"error\": ");
    write_str(&mut out, error);
    out.push_str(", \"detail\": ");
    write_str(&mut out, detail);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"rows": [[1.5, -2e3], [0, 3.25]], "proba": true, "tag": "a\"b", "none": null}"#;
        let v = parse(doc).unwrap();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_array().unwrap()[1].as_f64(), Some(-2000.0));
        assert_eq!(v.get("proba"), Some(&Json::Bool(true)));
        assert_eq!(v.get("tag").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn malformed_documents_error_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "[1 2]",
            "\"unterminated",
            "nul",
            "01x",
            "[1]]",
            "{\"a\": Infinity}",
            "\u{0}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Hostile nesting is bounded, not stack-overflowed.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // ~768KB of mixed ASCII + multi-byte scalars. The pre-fix
        // quadratic path took minutes on this input, so completing inside
        // the test budget *is* the regression gate.
        let payload = "abcé漢🦀".repeat(64 * 1024);
        let doc = format!("{{\"s\": \"{payload}\"}}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(payload.as_str()));
    }

    #[test]
    fn f32_array_round_trips() {
        let values = [1.0f32, -0.333333, 1e-20, f32::MAX];
        let mut out = String::new();
        write_f32_array(&mut out, &values);
        let back = parse(&out).unwrap();
        let arr = back.as_array().unwrap();
        for (v, j) in values.iter().zip(arr) {
            assert_eq!(*v, j.as_f64().unwrap() as f32);
        }
        let mut with_nan = String::new();
        write_f32_array(&mut with_nan, &[f32::NAN]);
        assert_eq!(with_nan, "[null]");
    }
}
