//! JSON writing for result files and the final result line.
//!
//! Values are built as `dooc_obs::json::Json` trees — the type the repo's own
//! parser produces — so everything this benchmark writes is read back by the
//! same parser in `check` and in the tests.

pub use dooc_obs::json::{parse, Json};

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// A JSON number; a non-finite value becomes `null` (JSON has no NaN).
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(num).collect())
}

/// Serialises on one line. Numbers print with Rust's shortest round-trip
/// form, so no measured digit is dropped.
pub fn to_line(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serialises with two-space indentation, for result files people read.
pub fn to_pretty(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(text) => write_string(out, text),
        Json::Arr(items) => {
            // Arrays of scalars stay on one line even when pretty-printing:
            // they are per-round value lists.
            let scalars = items
                .iter()
                .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
            let inner = if scalars { None } else { indent };
            let sep = if scalars && indent.is_some() {
                ", "
            } else {
                ","
            };
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                newline(out, inner, depth + 1);
                write_value(out, item, inner, depth + 1);
            }
            if !items.is_empty() {
                newline(out, inner, depth);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent, depth + 1);
            }
            if !fields.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// `v[key]` as a number, with the path in the error.
pub fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number \"{key}\""))
}

/// `v[key]` as a string.
pub fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string \"{key}\""))
}

/// `v[key]` as an array.
pub fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        obj([
            ("name", s("wall_s_per_iter \"quoted\"\n\ttab \u{1}")),
            ("value", num(0.1 + 0.2)),
            ("tiny", num(1.25e-9)),
            ("nan", num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("rounds", nums(&[1.5, 2.0, 3.25])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::Arr(vec![obj([("k", Json::Null)]), obj([])])),
        ])
    }

    #[test]
    fn both_forms_round_trip_through_the_obs_parser() {
        let v = sample();
        assert_eq!(v.get("nan"), Some(&Json::Null), "JSON has no NaN");
        assert_eq!(parse(&to_line(&v)).expect("line parses"), v);
        assert_eq!(parse(&to_pretty(&v)).expect("pretty parses"), v);
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 1.2034567890123457_f64;
        let back = parse(&to_line(&num(x))).expect("parses");
        assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()));
    }

    #[test]
    fn the_line_form_has_no_newline() {
        assert!(!to_line(&sample()).contains('\n'));
    }

    #[test]
    fn getters_name_the_missing_key() {
        let v = obj([("a", num(1.0))]);
        assert_eq!(get_f64(&v, "a"), Ok(1.0));
        assert!(get_f64(&v, "b").expect_err("missing").contains("\"b\""));
        assert!(get_str(&v, "a").is_err());
        assert!(get_arr(&v, "a").is_err());
    }
}
