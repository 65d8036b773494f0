//! The one JSON writer of the workspace: a value tree rendered compactly,
//! with keys in insertion order and no external dependencies. The server's
//! stats document and the bench reports (`BENCH_*.json`) are both built
//! from [`Json`] values.

/// A minimal JSON value: everything the stats document and the bench
/// reports need, nothing more.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null` (an absent subsystem, such as a resident server's scrubber).
    Null,
    /// A floating-point number, in shortest round-trip form (must be
    /// finite; NaN/∞ render as `null`).
    Num(f64),
    /// An unsigned integer (counters, node counts, nnz, thread counts).
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str((*key).to_string()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_compact_and_escaped() {
        let value = Json::Obj(vec![
            ("name", Json::Str("a\"b\\c\n\u{1}".to_string())),
            ("count", Json::Int(3)),
            ("ratio", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("bad", Json::Num(f64::NAN)),
            ("absent", Json::Null),
            ("items", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            value.render(),
            r#"{"name":"a\"b\\c\n\u0001","count":3,"ratio":0.5,"ok":true,"bad":null,"absent":null,"items":[1,2]}"#
        );
    }
}
