//! Reference model of the JSON writer, kept for tests only.
//!
//! This is the straightforward writer the crate shipped before the
//! in-place one: every number goes through `to_string()`/`format!` and
//! every string is escaped one `char` at a time. Tests check that the
//! production writer produces exactly these bytes. It is compiled into
//! this crate's unit tests and, through `#[path]`, into integration tests
//! that build replies the old way; both places provide `Json` in the
//! parent module.

#![allow(dead_code)]

use super::Json;

/// Serialize without whitespace.
pub fn to_string_compact(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out, None, 0);
    out
}

/// Serialize with two-space indentation.
pub fn to_string_pretty(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out, Some(2), 0);
    out
}

fn write(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(n) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(n * depth));
        }
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Uint(u) => out.push_str(&u.to_string()),
        Json::Float(x) => out.push_str(&format_f64(*x)),
        Json::Str(s) => write_escaped(out, s),
        Json::Raw(text) => out.push_str(text),
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
                newline(out, depth + 1);
                write(item, out, indent, depth + 1);
            }
            newline(out, depth);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write(v, out, indent, depth + 1);
            }
            newline(out, depth);
            out.push('}');
        }
    }
}

fn format_f64(x: f64) -> String {
    if x.is_nan() || x.is_infinite() {
        return "null".to_string();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
