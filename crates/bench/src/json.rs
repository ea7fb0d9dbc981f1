//! The one JSON writer (the build environment has no serde).
//!
//! A document is built field by field with [`Obj`] and [`array`]:
//! strings are escaped by [`string`], and every float is written with
//! the number of decimals its caller names, so the bytes of a document
//! depend only on the code that writes it. `BENCH_RESULTS.json` records
//! and every `lelantus --json` output go through it.

use std::fmt::{self, Display, Write};

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `items`, already rendered, as a JSON array.
pub fn array<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// `value`, already rendered, or `null`.
pub fn or_null<T: Display>(value: Option<T>) -> String {
    value.map_or_else(|| "null".into(), |v| v.to_string())
}

/// A JSON object under construction; [`Display`] writes it out.
#[derive(Debug, Clone, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `key` with an already-rendered value: a number, a bool, a
    /// nested [`Obj`] or [`array`].
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "{}:{value}", string(key));
        self
    }

    /// Adds `key` with `value`'s text as a string, escaped.
    pub fn str(self, key: &str, value: impl Display) -> Self {
        self.field(key, string(&value.to_string()))
    }

    /// Adds `key` with `value` written with `decimals` decimals.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, format_args!("{value:.decimals$}"))
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            f.write_str("{}")
        } else {
            write!(f, "{}}}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\t\u{1}"), "\"l1\\nl2\\t\\u0001\"");
    }

    #[test]
    fn objects_and_arrays_nest() {
        assert_eq!(Obj::new().to_string(), "{}");
        let inner = Obj::new().field("n", 3).field("ok", true);
        let doc = Obj::new()
            .str("name", "x\"y")
            .float("ratio", 2.0 / 3.0, 4)
            .field("inner", inner)
            .field("list", array([1, 2]))
            .field("none", or_null(None::<u8>))
            .field("empty", array(Vec::<u8>::new()));
        assert_eq!(
            doc.to_string(),
            r#"{"name":"x\"y","ratio":0.6667,"inner":{"n":3,"ok":true},"list":[1,2],"none":null,"empty":[]}"#
        );
    }
}
