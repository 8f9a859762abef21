//! A minimal JSON writer (the build has no registry access, so no serde).

use std::fmt::Write;

/// Escapes a string as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never valid JSON) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// An object built field by field from already-encoded values.
#[derive(Debug, Default)]
pub struct Object(Vec<(String, String)>);

impl Object {
    pub fn new() -> Self {
        Object::default()
    }

    pub fn raw(mut self, key: &str, encoded: String) -> Self {
        self.0.push((key.to_string(), encoded));
        self
    }

    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, number(v))
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, string(v))
    }

    pub fn encode(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
