//! Spans of the traced run, recorded around the benchmark's own calls into
//! each layer (spans inside the program are ROADMAP item 4). Kept in
//! memory; written out once, when the run ends.

use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: String,
    layer: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

/// Records nested spans of one workload's traced run.
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: self.now_us(),
            end_us: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Self time per layer in seconds: each span's duration minus its
    /// children's. Sums to the duration of the root spans.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, child_us) in self.spans.iter().zip(children_us) {
            let own = (s.end_us - s.start_us).saturating_sub(child_us);
            *by_layer.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Share of the root span's wall that its direct children account for.
    pub fn coverage(&self) -> f64 {
        let Some(root) = self.spans.first() else {
            return 0.0;
        };
        let attributed: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.end_us - s.start_us)
            .sum();
        attributed as f64 / (root.end_us - root.start_us).max(1) as f64
    }

    /// The spans as a JSON array of
    /// `{name, layer, workload, start_us, end_us, parent}`.
    pub fn to_json(&self) -> Value {
        let int = |n: u64| Value::Number(Number::U(n));
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.clone())),
                        ("layer".into(), Value::String(s.layer.into())),
                        ("workload".into(), Value::String(self.workload.clone())),
                        ("start_us".into(), int(s.start_us)),
                        ("end_us".into(), int(s.end_us)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| int(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_times_sum_to_the_root_and_children_are_subtracted() {
        let mut t = Tracer::new("w");
        t.span("root", "harness", |t| {
            t.span("a", "likelihood", |_| sleep(Duration::from_millis(20)));
            t.span("b", "wire", |t| {
                t.span("c", "likelihood", |_| sleep(Duration::from_millis(10)));
            });
            sleep(Duration::from_millis(5));
        });
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["likelihood"] >= 0.030);
        assert!(by_layer["wire"] < 0.005, "b's time is all c's");
        assert!(by_layer["harness"] >= 0.005);
        let root = (t.spans[0].end_us - t.spans[0].start_us) as f64 / 1e6;
        assert!((by_layer.values().sum::<f64>() - root).abs() < 1e-9);
        assert!(t.coverage() > 0.5 && t.coverage() < 1.0);
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.to_json().as_array().unwrap().len(), 4);
    }
}
