//! `BENCHMARK.json`, read at run time so that metric names, units and
//! regression bounds are written down once.

use serde_json::Value;
use std::path::Path;

/// One metric of `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the baseline by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Look `key` up in a JSON object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn metrics(doc: &Value, list: &str) -> Result<Vec<MetricSpec>, String> {
    let items = get(doc, list)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json: no {list} list"))?;
    items
        .iter()
        .map(|m| {
            let text = |key| get(m, key).and_then(Value::as_str).map(str::to_string);
            Some(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                bound: get(m, "bound").and_then(Value::as_f64),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!(
            "BENCHMARK.json: a {list} metric lacks name or unit"
        ))
}

/// Read `BENCHMARK.json` from the repository root.
pub fn load(root: &Path) -> Result<Spec, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Spec {
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}
