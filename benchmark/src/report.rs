//! What `BENCHMARK.json` declares, and the output built from it: the
//! metric tables, the provenance stamp and the final result line.

use crate::stats::Better;
use obs::Json;
use std::collections::BTreeMap;

/// One declared metric.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen;
    /// `None` for a per-layer (informational) metric.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads. The file is the
/// one place metric names, units, directions and bounds are written
/// down; the harness emits exactly the metrics it lists.
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

pub fn declared() -> Declared {
    let doc = obs::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let items = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or_default();
    let text = |j: &Json, key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks `{key}`"))
            .to_string()
    };
    let metrics = |key: &str| {
        items(key)
            .iter()
            .map(|j| MetricDef {
                name: text(j, "name"),
                unit: text(j, "unit"),
                better: match text(j, "better").as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("BENCHMARK.json: `better` is `{other}`"),
                },
                bound: j.get("bound").and_then(Json::as_num),
            })
            .collect()
    };
    Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .expect("BENCHMARK.json: run_seconds"),
        workloads: items("workloads").iter().map(|j| text(j, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and from what a result was measured.
pub fn provenance(fields: Json) -> Json {
    let nproc = crate::workload::nproc();
    fields
        .set("nproc", nproc)
        .set("threads", crate::workload::thread_width())
        // With one core the "parallel" runs time-slice: counts hold,
        // wall-clock comparisons do not.
        .set("authoritative", nproc >= 2)
        .set(
            "git",
            tool_version("git", &["rev-parse", "--short", "HEAD"]),
        )
        .set("rustc", tool_version("rustc", &["-V"]))
}

/// Print those of `defs` that `m` has a value for, one per line.
pub fn print_metrics(defs: &[MetricDef], m: &BTreeMap<&'static str, f64>) {
    for d in defs {
        let Some(v) = m.get(d.name.as_str()) else {
            continue;
        };
        let dir = match d.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", bound {:.4}%", b * 100.0));
        println!(
            "  {:<28} {:>16.6} {:<6} ({dir} is better{bound})",
            d.name, v, d.unit
        );
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding exactly `defs`.
pub fn result_line(
    defs: &[MetricDef],
    m: &BTreeMap<&'static str, f64>,
    ops: u64,
    failed: u64,
) -> String {
    let mut metrics = Json::obj();
    for d in defs {
        let v = *m
            .get(d.name.as_str())
            .unwrap_or_else(|| panic!("metric `{}` is declared but was not measured", d.name));
        assert!(v.is_finite(), "metric `{}` is not a finite number", d.name);
        metrics = metrics.set(
            &d.name,
            Json::obj().set("value", v).set("unit", d.unit.as_str()),
        );
    }
    Json::obj()
        .set("correct", failed == 0)
        .set("attempted", ops.max(1))
        .set("failed", failed)
        .set("metrics", metrics)
        .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_harness_runs() {
        let d = declared();
        assert!(d
            .workloads
            .iter()
            .all(|w| crate::workload::spec(w).is_some()));
        assert_eq!(d.workloads.len(), 4);
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is declared twice");
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let defs = vec![MetricDef {
            name: "run_opt_s".to_string(),
            unit: "s".to_string(),
            better: Better::Lower,
            bound: Some(0.1),
        }];
        let m = BTreeMap::from([("run_opt_s", 1.25), ("extra", 2.0)]);
        let line = result_line(&defs, &m, 10, 0);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"run_opt_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
