//! The JSON-Schema-subset validator behind the `validate` bin.
//!
//! Supports exactly the subset the schemas under `schemas/` use: `type`
//! (string form), `required`, `properties`, `items`, `minimum`, and the
//! custom `format: "probe-name"` (the `alvc_<crate>.<name>` probe naming
//! convention from DESIGN.md §9).

use crate::json::Json;

/// Validates `value` against the schema subset. `path` names the
/// location for diagnostics (e.g. `"telemetry.counters[3]"`).
///
/// # Errors
///
/// A human-readable diagnostic naming the first violating path.
pub fn validate(value: &Json, schema: &Json, path: &str) -> Result<(), String> {
    if let Some(ty) = schema.get("type").and_then(Json::as_str) {
        let ok = match ty {
            "object" => matches!(value, Json::Object(_)),
            "array" => matches!(value, Json::Array(_)),
            "string" => matches!(value, Json::Str(_)),
            "number" => matches!(value, Json::Num(_)),
            "boolean" => matches!(value, Json::Bool(_)),
            "null" => matches!(value, Json::Null),
            other => return Err(format!("{path}: unsupported schema type {other:?}")),
        };
        if !ok {
            return Err(format!("{path}: expected {ty}, got {value:?}"));
        }
    }
    if let Some(min) = schema.get("minimum").and_then(Json::as_f64) {
        if let Some(n) = value.as_f64() {
            if n < min {
                return Err(format!("{path}: {n} below minimum {min}"));
            }
        }
    }
    if let Some(format) = schema.get("format").and_then(Json::as_str) {
        match format {
            "probe-name" => {
                if let Some(s) = value.as_str() {
                    if !is_probe_name(s) {
                        return Err(format!(
                            "{path}: {s:?} is not an alvc_<crate>.<name> probe name"
                        ));
                    }
                }
            }
            other => return Err(format!("{path}: unsupported schema format {other:?}")),
        }
    }
    if let Some(required) = schema.get("required").and_then(Json::as_array) {
        for key in required {
            let key = key.as_str().expect("required entries are strings");
            if value.get(key).is_none() {
                return Err(format!("{path}: missing required field {key:?}"));
            }
        }
    }
    if let Some(props) = schema.get("properties").and_then(Json::as_object) {
        for (key, sub) in props {
            if let Some(v) = value.get(key) {
                validate(v, sub, &format!("{path}.{key}"))?;
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let Some(arr) = value.as_array() {
            for (i, v) in arr.iter().enumerate() {
                validate(v, items, &format!("{path}[{i}]"))?;
            }
        }
    }
    Ok(())
}

/// `true` for `alvc_<crate>.<name>` probe names: at least two non-empty
/// dot-separated segments of `[a-z0-9_]`, the first `alvc_` and a crate.
fn is_probe_name(s: &str) -> bool {
    let segments: Vec<&str> = s.split('.').collect();
    segments.len() >= 2
        && segments[0].len() > "alvc_".len()
        && segments[0].starts_with("alvc_")
        && segments.iter().all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn accepts_conforming_documents() {
        let schema = parse(
            r#"{"type": "object", "required": ["a"], "properties": {
                "a": {"type": "number", "minimum": 0},
                "b": {"type": "array", "items": {"type": "string"}}
            }}"#,
        );
        let value = parse(r#"{"a": 3, "b": ["x", "y"]}"#);
        assert!(validate(&value, &schema, "$").is_ok());
    }

    #[test]
    fn reports_first_violation_with_path() {
        let schema = parse(r#"{"type": "object", "required": ["a"]}"#);
        let err = validate(&parse("{}"), &schema, "$").unwrap_err();
        assert!(err.contains("missing required field"), "{err}");
        let schema = parse(r#"{"properties": {"a": {"minimum": 10}}}"#);
        let err = validate(&parse(r#"{"a": 3}"#), &schema, "$").unwrap_err();
        assert!(err.contains("$.a"), "{err}");
        assert!(err.contains("below minimum"), "{err}");
    }

    #[test]
    fn probe_name_format_enforces_convention() {
        let schema = parse(r#"{"type": "string", "format": "probe-name"}"#);
        for good in [
            "alvc_core.shard.pod_construct_us",
            "alvc_affinity.propose_us",
            "alvc_core.label.clones",
        ] {
            assert!(
                validate(&parse(&format!("{good:?}")), &schema, "$").is_ok(),
                "{good}"
            );
        }
        for bad in [
            "core.label_clones",
            "alvc_core",
            "alvc_.clones",
            "alvc_core..clones",
            "Alvc_Core.label.clones",
        ] {
            assert!(
                validate(&parse(&format!("{bad:?}")), &schema, "$").is_err(),
                "{bad}"
            );
        }
    }
}
