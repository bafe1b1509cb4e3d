//! The `core.*` layer metrics, read from the JSON-lines event log a
//! `--parallel` run writes with `--obs-out`.
//!
//! Event kinds consumed (and so not free to prune, see ROADMAP item 4):
//! `RunStarted`, `RunFinished`, `TaskDispatched`, `TaskCompleted`,
//! `WorkerTaskDone`, `QueueDepth`, `RoundCompleted`.

use crate::spec::get;
use serde_json::Value;
use std::path::Path;

/// What the scheduler did during one threaded run.
#[derive(Debug, Default)]
pub struct CoreMetrics {
    /// `TaskDispatched` events (exact).
    pub tasks_dispatched: u64,
    /// `RoundCompleted` events (exact).
    pub rounds: u64,
    /// Σ worker busy time / (workers × run wall).
    pub worker_utilization: f64,
    /// Share of the run wall with no task queued or in flight: the workers
    /// wait while the master does its serial work between rounds.
    pub master_serial_share: f64,
    /// Mean foreman dispatch→completion time of a task.
    pub foreman_service_us: f64,
    /// Median of the same.
    pub foreman_service_us_p50: u64,
    /// Deepest the foreman's work queue got.
    pub max_queue_depth: u64,
}

fn field(body: &Value, key: &str) -> Option<u64> {
    get(body, key)?.as_u64()
}

/// Read an event log. Fails on a log without `RunStarted`/`RunFinished`
/// or without a single completed task.
pub fn core_metrics(path: &Path) -> Result<CoreMetrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

fn parse(text: &str) -> Result<CoreMetrics, String> {
    let mut m = CoreMetrics::default();
    let (mut started, mut finished, mut workers) = (None, None, 0);
    let mut busy_us = 0u64;
    let mut service_us = Vec::new();
    // (since_us, nothing queued or in flight)
    let mut pipeline: Option<(u64, bool)> = None;
    let mut drained_us = 0u64;
    for line in text.lines() {
        // The bulk of a log is message traffic, which nothing here reads.
        if line.contains("\"Message") {
            continue;
        }
        let record: Value = serde_json::from_str(line).map_err(|e| format!("obs log: {e}"))?;
        let t_us = field(&record, "t_us").ok_or("obs record without t_us")?;
        // {"t_us": .., "event": {"Kind": {..}}}; payload-free kinds are strings.
        let Some((kind, body)) = get(&record, "event")
            .and_then(Value::as_object)
            .and_then(<[_]>::first)
        else {
            continue;
        };
        match kind.as_str() {
            "RunStarted" => {
                started = Some(t_us);
                workers = field(body, "workers").unwrap_or(0);
            }
            "RunFinished" => finished = Some(t_us),
            "TaskDispatched" => m.tasks_dispatched += 1,
            "RoundCompleted" => m.rounds += 1,
            "WorkerTaskDone" => busy_us += field(body, "busy_us").unwrap_or(0),
            "TaskCompleted" => service_us.push(field(body, "service_us").unwrap_or(0)),
            "QueueDepth" => {
                let work = field(body, "work").unwrap_or(0);
                let in_flight = field(body, "in_flight").unwrap_or(0);
                m.max_queue_depth = m.max_queue_depth.max(work);
                if let Some((since, true)) = pipeline {
                    drained_us += t_us - since;
                }
                pipeline = Some((t_us, work == 0 && in_flight == 0));
            }
            _ => {}
        }
    }
    let (Some(started), Some(finished)) = (started, finished) else {
        return Err("obs log has no RunStarted/RunFinished pair".into());
    };
    if service_us.is_empty() || workers == 0 {
        return Err("obs log records no completed task".into());
    }
    if let Some((since, true)) = pipeline {
        drained_us += finished.saturating_sub(since);
    }
    let wall_us = (finished - started).max(1) as f64;
    m.worker_utilization = busy_us as f64 / (workers as f64 * wall_us);
    m.master_serial_share = drained_us as f64 / wall_us;
    m.foreman_service_us = service_us.iter().sum::<u64>() as f64 / service_us.len() as f64;
    service_us.sort_unstable();
    m.foreman_service_us_p50 = service_us[service_us.len() / 2];
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_utilization_and_drained_time_come_from_the_events() {
        let log = r#"{"t_us":0,"event":{"RunStarted":{"ranks":5,"workers":2}}}
{"t_us":10,"event":{"QueueDepth":{"work":0,"ready":2,"in_flight":0}}}
{"t_us":100,"event":{"MessageSent":{"from":0,"to":1,"kind":"TreeTask","bytes":89}}}
{"t_us":110,"event":{"QueueDepth":{"work":3,"ready":1,"in_flight":1}}}
{"t_us":120,"event":{"TaskDispatched":{"task":0,"worker":3}}}
{"t_us":130,"event":{"TaskDispatched":{"task":1,"worker":4}}}
{"t_us":400,"event":{"WorkerTaskDone":{"worker":3,"task":0,"busy_us":250,"work_units":1,"pattern_updates":1}}}
{"t_us":410,"event":{"TaskCompleted":{"task":0,"worker":3,"service_us":290,"work_units":1,"ln_likelihood":-1.5}}}
{"t_us":600,"event":{"WorkerTaskDone":{"worker":4,"task":1,"busy_us":450,"work_units":1,"pattern_updates":1}}}
{"t_us":610,"event":{"TaskCompleted":{"task":1,"worker":4,"service_us":480,"work_units":1,"ln_likelihood":-1.5}}}
{"t_us":610,"event":{"QueueDepth":{"work":0,"ready":2,"in_flight":0}}}
{"t_us":700,"event":{"RoundCompleted":{"round":1,"candidates":2,"best_ln_likelihood":-1.5}}}
{"t_us":1000,"event":{"RunFinished":{"ln_likelihood":-1.5}}}
"#;
        let m = parse(log).unwrap();
        assert_eq!((m.tasks_dispatched, m.rounds, m.max_queue_depth), (2, 1, 3));
        assert_eq!(m.worker_utilization, 700.0 / 2000.0);
        // Drained from 10 to 110 and from 610 to the end.
        assert_eq!(m.master_serial_share, 490.0 / 1000.0);
        assert_eq!(m.foreman_service_us, 385.0);
        assert_eq!(m.foreman_service_us_p50, 480);
    }

    #[test]
    fn a_log_without_tasks_is_an_error() {
        let log = r#"{"t_us":0,"event":{"RunStarted":{"ranks":5,"workers":2}}}
{"t_us":9,"event":{"RunFinished":{"ln_likelihood":-1.5}}}
"#;
        assert!(parse(log).is_err());
        assert!(parse("").is_err());
    }
}
