//! Minimal JSON support for `mp5lint --format=json`.
//!
//! A tiny self-contained JSON document model with an emitter and a
//! parser, so JSON output can be produced *and* round-trip-verified
//! without external dependencies. Keys keep insertion order, which
//! makes emission deterministic and round-trips exact.

use std::fmt::Write as _;

use mp5_compiler::AnalysisReport;
use mp5_lang::{Diagnostic, Severity};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (emitted without a fractional part when integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: integer → number.
    pub fn int(v: impl Into<i64>) -> Json {
        Json::Num(v.into() as f64)
    }

    /// Convenience: string-ish → string.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for round-trips of our own
    /// output; tolerant of whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

fn emit_string(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain bytes up to the next quote or escape,
                // validated and copied once (validating the rest of the
                // document per character made this quadratic).
                let run = b[*pos..]
                    .iter()
                    .position(|c| matches!(c, b'"' | b'\\'))
                    .unwrap_or(b.len() - *pos);
                let text = std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

// ---------------------------------------------------------------------
// Report / diagnostic serialization
// ---------------------------------------------------------------------

/// A diagnostic as a JSON object.
pub fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("code".into(), Json::str(d.code.to_string())),
        (
            "severity".into(),
            Json::str(match d.severity {
                Severity::Note => "note",
                Severity::Warning => "warning",
                Severity::Error => "error",
            }),
        ),
        ("line".into(), Json::int(i64::from(d.span.line))),
        ("col".into(), Json::int(i64::from(d.span.col))),
        ("message".into(), Json::str(d.message.clone())),
        (
            "notes".into(),
            Json::Arr(d.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
    ])
}

/// An analysis report as a JSON object.
pub fn report_to_json(report: &AnalysisReport) -> Json {
    let regs = report
        .regs
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::str(r.name.clone())),
                ("size".into(), Json::int(i64::from(r.size))),
                ("class".into(), Json::str(r.class.as_str())),
                (
                    "culprits".into(),
                    Json::Arr(r.culprits.iter().map(|&c| Json::int(c as i64)).collect()),
                ),
                ("speculative".into(), Json::Bool(r.speculative)),
                ("covered".into(), Json::Bool(r.covered)),
            ])
        })
        .collect();
    let pressure = match &report.pressure {
        None => Json::Null,
        Some(p) => Json::Obj(vec![
            (
                "prologue_stages".into(),
                Json::int(p.prologue_stages as i64),
            ),
            ("body_stages".into(), Json::int(p.body_stages as i64)),
            ("total_stages".into(), Json::int(p.total_stages as i64)),
            ("max_stages".into(), Json::int(p.max_stages as i64)),
            ("peak_stage_ops".into(), Json::int(p.peak_stage_ops as i64)),
            (
                "max_ops_per_stage".into(),
                Json::int(p.max_ops_per_stage as i64),
            ),
            (
                "predicted_merges".into(),
                Json::int(p.predicted_merges as i64),
            ),
            (
                "sram_bits".into(),
                Json::Arr(p.sram_bits.iter().map(|&b| Json::int(b as i64)).collect()),
            ),
            (
                "max_sram_bits_per_stage".into(),
                Json::int(p.max_sram_bits_per_stage as i64),
            ),
            ("fits".into(), Json::Bool(p.fits)),
        ]),
    };
    Json::Obj(vec![
        ("regs".into(), Json::Arr(regs)),
        ("pressure".into(), pressure),
        (
            "diagnostics".into(),
            Json::Arr(report.diagnostics.iter().map(diagnostic_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::int(3)),
            ("b".into(), Json::str("hi \"there\"\nline2")),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(1.5)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = v.emit();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // Emission is deterministic, so a second trip is byte-identical.
        assert_eq!(back.emit(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("{}extra").is_err());
    }

    /// `parse_string` once re-validated the whole rest of the document
    /// for every plain character; these inputs then took minutes.
    #[test]
    fn parsing_is_linear_in_the_document() {
        let started = std::time::Instant::now();

        // Key- and string-heavy: 20 000 objects of five members.
        let row = |i: usize| {
            Json::Obj(
                (0..5)
                    .map(|f| {
                        (
                            format!("field_{f}_of_row_{i}"),
                            Json::str(format!("v{i}é\n")),
                        )
                    })
                    .collect(),
            )
        };
        let doc = Json::Arr((0..20_000).map(row).collect());
        let text = doc.emit();
        assert!(text.len() >= 2 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), doc);

        // One 1 MB string.
        let long = Json::str("é\\x".repeat(1 << 18));
        assert_eq!(Json::parse(&long.emit()).unwrap(), long);

        let took = started.elapsed();
        assert!(took.as_secs() < 30, "took {took:?}");
    }

    #[test]
    fn get_looks_up_object_keys() {
        let v = Json::parse(r#"{"x": 1, "y": [2]}"#).unwrap();
        assert_eq!(v.get("x"), Some(&Json::Num(1.0)));
        assert!(v.get("z").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
