//! Records: what one run writes, how runs are merged into `result.json`, and how a result
//! is compared with the committed baseline.

use std::path::Path;

use serde::Json;

use crate::catalogue::{self, END_TO_END, LAYERS, WORKLOADS};
use crate::measure;
use crate::workloads::Outcome;

/// Looks a field up in a JSON object.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(fields) => fields.iter().find_map(|(k, v)| (k == key).then_some(v)),
        _ => None,
    }
}

fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{name: {value, unit}}` for every metric of an outcome.
fn metrics_json(outcome: &Outcome) -> Json {
    Json::Object(
        outcome
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalogue::unit_of(name).unwrap_or("");
                (
                    name.to_string(),
                    object(vec![
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let line = object(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::UInt(outcome.attempted.max(1))),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics_json(outcome)),
    ]);
    serde_json::to_string(&line).expect("an owned JSON tree always serialises")
}

/// The full record of one run, written beside the trace.
pub fn run_record(
    workload: &str,
    traced: bool,
    seed: u64,
    seconds: f64,
    outcome: &Outcome,
) -> Json {
    object(vec![
        ("workload", Json::Str(workload.into())),
        (
            "kind",
            Json::Str(if traced { "per_layer" } else { "end_to_end" }.into()),
        ),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Float(seconds)),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics_json(outcome)),
        ("detail", Json::Object(outcome.detail.clone())),
    ])
}

/// Reads and parses one JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Merges the per-run records under `out` into one result, stamped with the host.
pub fn merge(out: &Path) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut runs = Vec::new();
        for kind in ["end_to_end", "per_layer"] {
            let path = out.join(format!("{workload}.{kind}.json"));
            if path.exists() {
                runs.push((kind.to_string(), read_json(&path)?));
            }
        }
        if !runs.is_empty() {
            workloads.push((workload.to_string(), Json::Object(runs)));
        }
    }
    if workloads.is_empty() {
        return Err(format!("no run records under {}", out.display()));
    }
    let stamp = measure::host_stamp()
        .into_iter()
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    Ok(object(vec![
        ("stamp", Json::Object(stamp)),
        ("workloads", Json::Object(workloads)),
    ]))
}

fn metric_value(result: &Json, workload: &str, kind: &str, name: &str) -> Option<f64> {
    let run = get(get(get(result, "workloads")?, workload)?, kind)?;
    number(get(get(get(run, "metrics")?, name)?, "value")?)
}

fn detail_text(result: &Json, workload: &str, kind: &str, name: &str) -> Option<String> {
    let run = get(get(get(result, "workloads")?, workload)?, kind)?;
    match get(get(run, "detail")?, name)? {
        Json::Str(s) => Some(s.clone()),
        other => number(other).map(|n| n.to_string()),
    }
}

/// Prints every metric of a merged result by name, with its unit.  Returns whether every
/// run in it was correct.
pub fn print(result: &Json) -> bool {
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        for (kind, names) in [
            (
                "end_to_end",
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            ("per_layer", LAYERS.iter().map(|m| m.name).collect()),
        ] {
            let Some(run) = get(result, "workloads")
                .and_then(|w| get(w, workload))
                .and_then(|w| get(w, kind))
            else {
                continue;
            };
            let correct = get(run, "correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            let count = |k: &str| get(run, k).and_then(number).unwrap_or(0.0);
            println!(
                "== {workload} ({kind}): {} — {} attempted, {} failed, failed_share {}",
                if correct { "correct" } else { "INCORRECT" },
                count("attempted"),
                count("failed"),
                count("failed") / count("attempted").max(1.0),
            );
            for name in names {
                if let Some(value) = metric_value(result, workload, kind, name) {
                    println!(
                        "{name:<40} {value:>16.4} {}",
                        catalogue::unit_of(name).unwrap_or("")
                    );
                }
            }
        }
    }
    all_correct
}

/// Signed change of `new` against `base`, as a share of `base`, positive = worse.
fn worsening(better: &str, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs().max(1e-12);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// A layer metric counts as having moved when it changed by more than this share.
const LAYER_MOVED: f64 = 0.1;

/// Compares `result` with `baseline`: per end-to-end metric the change against its
/// bound, and for one past its bound the layer metrics that moved with it.  Returns the
/// number of metrics past their bound plus seeded quantities that differ.
pub fn compare(result: &Json, baseline: &Json) -> usize {
    let mut regressions = 0;
    for (workload, _) in WORKLOADS {
        println!("== {workload}");
        for m in &END_TO_END {
            let (Some(base), Some(new)) = (
                metric_value(baseline, workload, "end_to_end", m.name),
                metric_value(result, workload, "end_to_end", m.name),
            ) else {
                continue;
            };
            let worse = worsening(m.better, base, new);
            let past = worse > m.bound;
            println!(
                "{:<24} {base:>14.4} -> {new:>14.4} {:<6} {:>+8.2}% (bound {:.0}%){}",
                m.name,
                m.unit,
                -worse * 100.0,
                m.bound * 100.0,
                if past { "  REGRESSION" } else { "" },
            );
            if !past {
                continue;
            }
            regressions += 1;
            let target = format!("{}@{workload}", m.name);
            for l in &LAYERS {
                let (Some(base), Some(new)) = (
                    metric_value(baseline, workload, "per_layer", l.name),
                    metric_value(result, workload, "per_layer", l.name),
                ) else {
                    continue;
                };
                let worse = worsening(l.better, base, new);
                let predicted = l.moves.contains(&target.as_str());
                if worse.abs() > LAYER_MOVED || (predicted && worse > 0.0) {
                    println!(
                        "    {} {:<38} {base:>14.4} -> {new:>14.4} {:<8} {:>+8.2}%",
                        if predicted { "predicted" } else { "also     " },
                        l.name,
                        l.unit,
                        -worse * 100.0,
                    );
                }
            }
        }
        // Seeded quantities repeat exactly or something changed the numerics.
        for (kind, name) in [
            ("end_to_end", "subplans"),
            ("end_to_end", "decision_digest"),
        ] {
            let (base, new) = (
                detail_text(baseline, workload, kind, name),
                detail_text(result, workload, kind, name),
            );
            if base.is_some() && new.is_some() && base != new {
                println!("{name:<24} {base:?} -> {new:?}  SEEDED QUANTITY CHANGED");
                regressions += 1;
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(value: f64) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("plan_p50_ms", value), ("plans_per_s", 100.0)],
            detail: vec![("subplans".into(), Json::UInt(405))],
        }
    }

    fn result(e2e: f64, layer: f64) -> Json {
        let layers = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![
                ("serve.reactor.queue_wait_us", layer),
                ("nn.made.train_step_ms", 1.0),
            ],
            detail: Vec::new(),
        };
        object(vec![(
            "workloads",
            object(vec![(
                "plan_burst",
                object(vec![
                    (
                        "end_to_end",
                        run_record("plan_burst", false, 1, 1.0, &outcome(e2e)),
                    ),
                    ("per_layer", run_record("plan_burst", true, 1, 1.0, &layers)),
                ]),
            )]),
        )])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = serde_json::parse(&result_line(&outcome(1.25))).expect("valid JSON");
        let Json::Object(fields) = &line else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&line, "correct"), Some(&Json::Bool(true)));
        let metric = get(get(&line, "metrics").expect("metrics"), "plan_p50_ms").expect("metric");
        assert_eq!(get(metric, "value").and_then(number), Some(1.25));
        assert_eq!(get(metric, "unit"), Some(&Json::Str("ms".into())));
    }

    #[test]
    fn compare_flags_only_changes_past_the_bound() {
        // 20 % slower is inside plan_p50_ms's 25 % bound; 30 % slower is past it.
        assert_eq!(compare(&result(1.2, 50.0), &result(1.0, 50.0)), 0);
        assert_eq!(compare(&result(1.3, 80.0), &result(1.0, 50.0)), 1);
        // Faster is never a regression, for a lower-is-better metric.
        assert_eq!(compare(&result(0.5, 50.0), &result(1.0, 50.0)), 0);
        assert!(worsening("higher", 100.0, 80.0) > 0.19);
        assert!(worsening("lower", 100.0, 80.0) < 0.0);
    }
}
