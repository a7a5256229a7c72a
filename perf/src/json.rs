//! Generic JSON values over the workspace's serde shim.
//!
//! The shim parses into its own `Value` tree but only (de)serialises
//! concrete types; [`Json`] wraps the tree itself so `perf` can read a
//! child's result line and its own result files, whose metric names
//! are data, not struct fields.

use serde::{Deserialize, Serialize, Value};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Json {
    /// Parses a document.
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<Json> {
        serde::map_get(self.0.as_map()?, key).map(|v| Json(v.clone()))
    }

    /// The members of an object, in document order.
    pub fn entries(&self) -> Vec<(String, Json)> {
        self.0
            .as_map()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), Json(v.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The items of an array (empty for any other value).
    pub fn items(&self) -> Vec<Json> {
        match &self.0 {
            Value::Seq(items) => items.iter().cloned().map(Json).collect(),
            _ => Vec::new(),
        }
    }

    /// The item of an array of objects whose `name` member is `name`.
    pub fn named(&self, name: &str) -> Option<Json> {
        self.items()
            .into_iter()
            .find(|item| item.get("name").is_some_and(|n| n.as_str() == Some(name)))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Value::Float(f) => Some(f),
            Value::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self.0 {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact one-line form.
    pub fn compact(&self) -> String {
        serde_json::to_string(self).expect("value trees always serialise")
    }

    /// Indented form for files people read: objects and arrays of
    /// objects break across lines, arrays of scalars stay on one.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(&self.0, 0, &mut out);
        out.push('\n');
        out
    }
}

fn write_pretty(v: &Value, depth: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| out.push_str(&"  ".repeat(n));
    match v {
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                pad(depth + 1, out);
                out.push_str(&Json(Value::Str(k.clone())).compact());
                out.push_str(": ");
                write_pretty(val, depth + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            pad(depth, out);
            out.push('}');
        }
        Value::Seq(items) if items.iter().any(|i| matches!(i, Value::Map(_))) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(depth + 1, out);
                write_pretty(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(depth, out);
            out.push(']');
        }
        other => out.push_str(&Json(other.clone()).compact()),
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

pub fn f(x: f64) -> Value {
    Value::Float(x)
}

pub fn u(x: u64) -> Value {
    Value::Int(i128::from(x))
}

pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Seq(items.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_pretty_and_compact() {
        let doc = Json(obj([
            ("name", s("paper_cnn")),
            ("values", arr([f(1.5), f(2.0)])),
            ("rows", arr([obj([("n", u(3))])])),
        ]));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
        assert_eq!(
            doc.get("rows").unwrap().items()[0]
                .get("n")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(doc.get("values").unwrap().items()[0].as_f64(), Some(1.5));
    }
}
