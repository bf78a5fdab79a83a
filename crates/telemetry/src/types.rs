//! Structured event types.

use std::fmt::Write as _;

/// One field value attached to a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rendered as `null` when non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    pub(crate) fn render_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(_) => out.push_str("null"),
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Str(v) => push_json_string(out, v),
        }
    }
}

/// A structured event recorded by the thread-local subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process-wide telemetry epoch (monotonic).
    pub ts_us: u64,
    /// Static event name, `alvc_<crate>.<subsystem>.<what>`.
    pub name: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders the event as one JSON object (a JSON-lines record, no
    /// trailing newline).
    pub(crate) fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"ts_us\":");
        let _ = write!(out, "{}", self.ts_us);
        out.push_str(",\"event\":");
        push_json_string(&mut out, self.name);
        for (k, v) in &self.fields {
            out.push(',');
            push_json_string(&mut out, k);
            out.push(':');
            v.render_json(&mut out);
        }
        out.push('}');
        out
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_as_one_json_object() {
        let ev = Event {
            ts_us: 17,
            name: "alvc_test.demo",
            fields: vec![
                ("n", FieldValue::U64(3)),
                ("ratio", FieldValue::F64(0.5)),
                ("bad", FieldValue::F64(f64::NAN)),
                ("ok", FieldValue::Bool(true)),
                ("who", FieldValue::Str("a\"b\\c\nd".into())),
            ],
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"ts_us\":17,\"event\":\"alvc_test.demo\",\"n\":3,\"ratio\":0.5,\
             \"bad\":null,\"ok\":true,\"who\":\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn field_value_from_impls_cover_common_types() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-2i32), FieldValue::I64(-2));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }
}
