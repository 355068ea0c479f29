//! Result documents: the one-line result the driver reads, the detailed
//! report (`--out`), the run header, and `compare`.

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::workloads::{Measured, Outcome};
use giant::ontology::json::{self, Json};
use std::process::Command;

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_owned())
}

/// Renders `value` on one line (the repo's `json::render` pretty-prints;
/// the driver wants the result as the last *line* of standard output).
pub fn render_line(value: &Json) -> String {
    match value {
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_line).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", render_line(&Json::Str(k.clone())), render_line(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        // Scalars have no line breaks in the pretty form either.
        scalar => json::render(scalar).expect("finite scalar"),
    }
}

/// The metrics a run must report, in contract order.
pub fn contract(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The value reported for `spec`: the workload's measurement, or 0 for a
/// per-layer metric of a layer the workload does not exercise. An
/// end-to-end metric a workload failed to measure is a bug.
fn reported<'a>(outcome: &'a Outcome, spec: &MetricSpec, trace: bool) -> Option<&'a Measured> {
    let found = outcome.metrics.iter().find(|m| m.name == spec.name);
    assert!(
        trace || found.is_some(),
        "workload did not measure end-to-end metric {}",
        spec.name
    );
    found
}

/// The number reported for `spec` (JSON cannot carry a non-finite one: a
/// ratio over an empty sample reads 0, like an idle layer).
fn reported_value(outcome: &Outcome, spec: &MetricSpec, trace: bool) -> f64 {
    reported(outcome, spec, trace)
        .map(|m| m.value)
        .filter(|v| v.is_finite())
        .unwrap_or(0.0)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being exactly the contract's.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = contract(trace)
        .iter()
        .map(|spec| {
            let value = reported_value(outcome, spec, trace);
            (
                spec.name,
                obj(vec![("value", num(value)), ("unit", text(spec.unit))]),
            )
        })
        .collect();
    render_line(&obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", obj(metrics)),
    ]))
}

/// The detailed record of one workload run: every metric with quartiles,
/// sample count and top percentile, and every check by name.
pub fn workload_json(name: &str, outcome: &Outcome, trace: bool) -> Json {
    let metrics = contract(trace)
        .iter()
        .map(|spec| {
            let m = reported(outcome, spec, trace);
            let mut fields = vec![
                ("value", num(reported_value(outcome, spec, trace))),
                ("unit", text(spec.unit)),
                (
                    "better",
                    text(if spec.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }),
                ),
            ];
            if !trace {
                fields.push(("bound", num(spec.bound)));
            }
            if let Some(s) = m.and_then(|m| m.summary) {
                fields.push(("n", num(s.n as f64)));
                fields.push(("q1", num(s.q1)));
                fields.push(("q3", num(s.q3)));
                if let Some((p, v)) = s.top {
                    fields.push(("top_percentile", num(p)));
                    fields.push(("top_value", num(v)));
                }
            }
            (spec.name, obj(fields))
        })
        .collect();
    let checks = outcome
        .checks
        .iter()
        .map(|(what, held)| obj(vec![("check", text(what)), ("held", Json::Bool(*held))]))
        .collect();
    obj(vec![
        ("workload", text(name)),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("checks", Json::Arr(checks)),
        ("metrics", obj(metrics)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One-minute load average, or 0 when `/proc/loadavg` is unreadable.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on. Results from different seeds,
/// processor counts or modes are not comparable; `compare` refuses them.
pub fn header(seed: u64, seconds: f64, smoke: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("benchmark", text("giant")),
        ("claim", Json::Null),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", num(nproc as f64)),
        (
            "hardware_threads",
            num(crate::fixture::mining_config().threads as f64),
        ),
        (
            "git_sha",
            text(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", text(&command_line("rustc", &["--version"]))),
        ("load_average_1m", num(load_average())),
    ])
}

/// The `--out` document.
pub fn document(header: Json, workloads: Vec<Json>) -> Json {
    obj(vec![
        ("header", header),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The verdict on one (workload, metric) pair of two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound, and the
    /// quartile ranges are too far apart to blame noise.
    Regressed,
    /// The quartile ranges overlap by more than the bound allows a call.
    Unresolved,
}

/// Judges B against A. `worse` is the relative worsening of B's median;
/// it is a regression only when it exceeds the bound *and* the ranges
/// `[q1, q3]` are apart. When they overlap and the medians still differ by
/// more than the bound, the spread is wider than the bound can resolve.
pub fn judge(
    a: (f64, f64, f64),
    b: (f64, f64, f64),
    higher_is_better: bool,
    bound: f64,
) -> (f64, Change) {
    let (a_med, a_q1, a_q3) = a;
    let (b_med, b_q1, b_q3) = b;
    let worse = if higher_is_better {
        (a_med - b_med) / a_med
    } else {
        (b_med - a_med) / a_med
    };
    let apart = b_q1 > a_q3 || a_q1 > b_q3;
    let verdict = if worse <= bound {
        Change::Ok
    } else if apart {
        Change::Regressed
    } else {
        Change::Unresolved
    };
    (worse, verdict)
}

fn field(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing number {key:?}"))
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric) with
/// both medians, the relative change, the bound and the verdict. Returns
/// the table and the number of regressed rows; refuses reports that differ
/// in seed, processor count or mode, and smoke reports.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, usize), String> {
    let a = json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let head = |j: &Json, key: &str| j.get("header").and_then(|h| h.get(key)).cloned();
    for key in ["seed", "nproc", "smoke", "seconds"] {
        let (x, y) = (head(&a, key), head(&b, key));
        if x.is_none() || x != y {
            return Err(format!("reports differ in {key}: {x:?} vs {y:?}"));
        }
    }
    if head(&a, "smoke") != Some(Json::Bool(false)) {
        return Err("smoke reports carry no measurement; run without --smoke".into());
    }
    let workloads = |j: &Json| -> Vec<Json> {
        j.get("workloads")
            .and_then(Json::as_arr)
            .map(|w| {
                w.iter()
                    .filter(|w| w.get("trace") == Some(&Json::Bool(false)))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut table = format!(
        "{:<20}{:<14}{:>14}{:>14}{:>9}{:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut regressed = 0;
    for wa in workloads(&a) {
        let name = wa
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(&name))
        else {
            return Err(format!("B has no plain run of workload {name}"));
        };
        for spec in END_TO_END {
            let read = |w: &Json| -> Result<(f64, f64, f64), String> {
                let m = w
                    .get("metrics")
                    .and_then(|m| m.get(spec.name))
                    .ok_or_else(|| format!("{name}: missing metric {}", spec.name))?;
                let v = field(m, "value")?;
                // A metric without samples (a total over the run) has no
                // range of its own: its range is the point.
                Ok((v, field(m, "q1").unwrap_or(v), field(m, "q3").unwrap_or(v)))
            };
            let (ra, rb) = (read(&wa)?, read(&wb)?);
            let (worse, verdict) = judge(ra, rb, spec.higher_is_better, spec.bound);
            regressed += usize::from(verdict == Change::Regressed);
            table.push_str(&format!(
                "{:<20}{:<14}{:>14.3}{:>14.3}{:>+8.1}%{:>6.0}%  {}\n",
                name,
                spec.name,
                ra.0,
                rb.0,
                worse * 100.0,
                spec.bound * 100.0,
                match verdict {
                    Change::Ok => "ok",
                    Change::Regressed => "regressed",
                    Change::Unresolved => "unresolved",
                }
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        for spec in END_TO_END {
            o.put_median(spec.name, &[1.5, 2.5, 3.5, 4.5, 5.5]);
        }
        o.check("a \"quoted\" check", true);
        o
    }

    #[test]
    fn emitted_json_parses_back_with_the_repo_lexer() {
        let o = outcome();
        let line = result_line(&o, false);
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value")),
            Some(&Json::Num(3.5))
        );
        let doc = document(header(42, 10.0, false), vec![workload_json("w", &o, false)]);
        let pretty = json::render(&doc).expect("renders");
        assert_eq!(json::parse(&pretty).expect("document parses"), doc);
        assert_eq!(json::parse(&render_line(&doc)).expect("line parses"), doc);
    }

    #[test]
    fn traced_result_reports_every_layer_metric_and_zero_for_idle_layers() {
        let mut o = Outcome::default();
        o.put("net.batches", 7.0);
        let parsed = json::parse(&result_line(&o, true)).expect("parses");
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            parsed
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .cloned()
        };
        assert_eq!(value("net.batches"), Some(Json::Num(7.0)));
        assert_eq!(value("graph.plan_s"), Some(Json::Num(0.0)));
    }

    #[test]
    fn judge_needs_both_a_worse_median_and_separated_quartiles() {
        // Lower is better, bound 10%.
        assert_eq!(
            judge((100.0, 98.0, 102.0), (105.0, 103.0, 107.0), false, 0.1).1,
            Change::Ok
        );
        assert_eq!(
            judge((100.0, 98.0, 102.0), (120.0, 117.0, 123.0), false, 0.1).1,
            Change::Regressed
        );
        assert_eq!(
            judge((100.0, 80.0, 125.0), (120.0, 95.0, 140.0), false, 0.1).1,
            Change::Unresolved
        );
        // Higher is better: a drop is the worsening.
        let (worse, verdict) = judge((100.0, 99.0, 101.0), (80.0, 79.0, 81.0), true, 0.1);
        assert!((worse - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Change::Regressed);
        assert_eq!(
            judge((100.0, 99.0, 101.0), (130.0, 129.0, 131.0), true, 0.1).1,
            Change::Ok
        );
    }

    #[test]
    fn compare_refuses_mismatched_and_smoke_reports() {
        let o = outcome();
        let doc = |seed, smoke| {
            json::render(&document(
                header(seed, 10.0, smoke),
                vec![workload_json("w", &o, false)],
            ))
            .expect("renders")
        };
        assert!(compare(&doc(42, false), &doc(43, false))
            .unwrap_err()
            .contains("seed"));
        assert!(compare(&doc(42, true), &doc(42, false))
            .unwrap_err()
            .contains("smoke"));
        assert!(compare(&doc(42, true), &doc(42, true))
            .unwrap_err()
            .contains("smoke"));
        let (table, regressed) = compare(&doc(42, false), &doc(42, false)).expect("compares");
        assert_eq!(regressed, 0);
        assert_eq!(table.lines().count(), 1 + END_TO_END.len());
        assert!(table.lines().skip(1).all(|l| l.ends_with("ok")));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(file) = std::fs::read_to_string(path) else {
            return; // built outside the repo
        };
        let file = json::parse(&file).expect("BENCHMARK.json parses");
        for (key, specs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = file.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), specs.len(), "{key} length");
            for (j, spec) in listed.iter().zip(specs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(spec.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                let better = if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    spec.name
                );
                if bounded {
                    assert_eq!(
                        j.get("bound").and_then(Json::as_num),
                        Some(spec.bound),
                        "{}",
                        spec.name
                    );
                }
            }
        }
        let names: Vec<&str> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::workloads::WORKLOADS.map(|w| w.0));
    }
}
