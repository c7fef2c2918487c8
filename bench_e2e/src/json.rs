//! A minimal JSON value and writer (the repository vendors no JSON crate).

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            // `{}` prints the shortest digits that round-trip, i.e. the
            // value as measured. JSON has no NaN/inf; a metric that comes
            // out non-finite is a harness bug and reads as 0.
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push('0'),
            Json::Str(s) => write_str(s, out),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&invidx_obs::escape_json(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line_shape() {
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Int(1000)),
            ("failed".into(), Json::Int(0)),
            (
                "metrics".into(),
                Json::Obj(vec![(
                    "latency_ms".into(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(1.2034)),
                        ("unit".into(), Json::Str("ms".into())),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn escapes_strings_and_guards_non_finite_numbers() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(f64::NAN).render(), "0");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }
}
