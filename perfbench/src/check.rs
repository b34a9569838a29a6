//! `check bench <fresh_dir> <baseline.json>`: the regression gate.
//!
//! `run --out DIR` writes one `<workload>.json` artifact per workload and a
//! `summary.json` holding them all; the committed `baseline.json` is such a
//! summary. The gate fails when, for any workload of the baseline:
//!
//! * the fresh artifact or one of its end-to-end metrics is missing;
//! * the fresh run was not correct, or ran under another seed;
//! * an output digest differs;
//! * `ops_failed_frac` rose;
//! * an end-to-end metric worsened beyond its `BENCHMARK.json` bound.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the baseline value.
    pub bound: f64,
}

/// The end-to-end bounds declared in `BENCHMARK.json`.
///
/// # Errors
/// A description of the first malformed entry.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let lower_is_better = match m["better"].as_str() {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m["bound"]
                .as_f64()
                .ok_or_else(|| format!("{name}: missing bound"))?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

fn metric(artifact: &Value, name: &str) -> Option<f64> {
    artifact["metrics"].get(name)?.get("value")?.as_f64()
}

/// Compare fresh artifacts (by workload name) against a baseline summary;
/// returns every violation, empty when the gate passes.
pub fn gate(fresh: &BTreeMap<String, Value>, baseline: &Value, bounds: &[Bound]) -> Vec<String> {
    let mut fails = Vec::new();
    let Some(workloads) = baseline["workloads"].as_object() else {
        return vec!["baseline has no workloads".into()];
    };
    for (workload, base) in workloads.iter() {
        let Some(new) = fresh.get(workload) else {
            fails.push(format!("{workload}: missing from the fresh run"));
            continue;
        };
        if new["correct"].as_bool() != Some(true) {
            fails.push(format!(
                "{workload}: the fresh run failed its output checks"
            ));
        }
        if new["seed"].as_u64() != base["seed"].as_u64() {
            fails.push(format!("{workload}: seed differs from the baseline's"));
            continue;
        }
        if let Some(digests) = base["digests"].as_object() {
            for (name, want) in digests.iter() {
                let got = &new["digests"][name.as_str()];
                if got != want {
                    fails.push(format!("{workload}: {name} digest {got} ≠ baseline {want}"));
                }
            }
        }
        let frac = |a: &Value| a["ops_failed_frac"].as_f64();
        match (frac(new), frac(base)) {
            (Some(n), Some(b)) if n > b => {
                fails.push(format!("{workload}: ops_failed_frac rose {b} → {n}"))
            }
            (None, _) => fails.push(format!("{workload}: ops_failed_frac missing")),
            _ => {}
        }
        for b in bounds {
            let (Some(n), Some(old)) = (metric(new, &b.name), metric(base, &b.name)) else {
                fails.push(format!("{workload}: {} missing", b.name));
                continue;
            };
            let worse = if b.lower_is_better {
                n > old * (1.0 + b.bound)
            } else {
                n < old * (1.0 - b.bound)
            };
            if worse {
                fails.push(format!(
                    "{workload}: {} {n:.4} vs baseline {old:.4} is beyond its {:.0}% bound",
                    b.name,
                    b.bound * 100.0
                ));
            }
        }
    }
    fails
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Fresh artifacts by workload, for each workload the baseline names.
type Fresh = BTreeMap<String, Value>;

/// Read the bounds, the baseline, and the fresh artifacts it names.
fn load(
    benchmark: &Path,
    baseline: &Path,
    fresh_dir: &Path,
) -> Result<(Vec<Bound>, Value, Fresh), String> {
    let bounds = bounds(&read_json(benchmark)?)?;
    let baseline = read_json(baseline)?;
    let mut fresh = Fresh::new();
    if let Some(workloads) = baseline["workloads"].as_object() {
        for (name, _) in workloads.iter() {
            let path = fresh_dir.join(format!("{name}.json"));
            if path.exists() {
                fresh.insert(name.clone(), read_json(&path)?);
            }
        }
    }
    Ok((bounds, baseline, fresh))
}

/// `check bench <fresh_dir> <baseline.json> [--benchmark BENCHMARK.json]`;
/// returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let (positional, benchmark) = match args {
        [kind, fresh, base] if kind == "bench" => ([fresh, base], "BENCHMARK.json".to_string()),
        [kind, fresh, base, flag, path] if kind == "bench" && flag == "--benchmark" => {
            ([fresh, base], path.clone())
        }
        _ => {
            eprintln!(
                "usage: check bench <fresh_dir> <baseline.json> [--benchmark BENCHMARK.json]"
            );
            return 2;
        }
    };
    let [fresh_dir, baseline] = positional;
    let (bounds, baseline, fresh) = match load(
        Path::new(&benchmark),
        Path::new(baseline),
        Path::new(fresh_dir),
    ) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("check bench: {e}");
            return 2;
        }
    };
    let fails = gate(&fresh, &baseline, &bounds);
    for f in &fails {
        eprintln!("FAIL {f}");
    }
    if fails.is_empty() {
        eprintln!("check bench: {} workloads within bounds", fresh.len());
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "lat_p50_ms".into(),
                lower_is_better: true,
                bound: 0.10,
            },
            Bound {
                name: "ops_per_s".into(),
                lower_is_better: false,
                bound: 0.10,
            },
        ]
    }

    fn artifact(lat: f64, ops: f64, digest: &str, failed_frac: f64) -> Value {
        json!({
            "workload": "serve_direct",
            "seed": 2015u64,
            "correct": true,
            "ops_failed_frac": failed_frac,
            "digests": json!({ "pages": digest }),
            "metrics": json!({
                "lat_p50_ms": json!({ "value": lat, "unit": "ms" }),
                "ops_per_s": json!({ "value": ops, "unit": "1/s" }),
            }),
        })
    }

    fn baseline() -> Value {
        json!({ "workloads": json!({ "serve_direct": artifact(1.0, 100.0, "0xab", 0.0) }) })
    }

    fn fresh(a: Value) -> BTreeMap<String, Value> {
        BTreeMap::from([("serve_direct".to_string(), a)])
    }

    #[test]
    fn within_bounds_passes() {
        let f = fresh(artifact(1.09, 91.0, "0xab", 0.0));
        assert!(gate(&f, &baseline(), &bounds()).is_empty());
    }

    #[test]
    fn lower_is_better_regression_fails() {
        let fails = gate(
            &fresh(artifact(1.11, 100.0, "0xab", 0.0)),
            &baseline(),
            &bounds(),
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("lat_p50_ms"), "{fails:?}");
    }

    #[test]
    fn higher_is_better_regression_fails() {
        let fails = gate(
            &fresh(artifact(1.0, 89.0, "0xab", 0.0)),
            &baseline(),
            &bounds(),
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("ops_per_s"), "{fails:?}");
    }

    #[test]
    fn a_digest_change_fails() {
        let fails = gate(
            &fresh(artifact(1.0, 100.0, "0xcd", 0.0)),
            &baseline(),
            &bounds(),
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("digest"), "{fails:?}");
    }

    #[test]
    fn rising_failures_fail() {
        let fails = gate(
            &fresh(artifact(1.0, 100.0, "0xab", 0.001)),
            &baseline(),
            &bounds(),
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("ops_failed_frac"), "{fails:?}");
    }

    #[test]
    fn a_missing_workload_fails() {
        let fails = gate(&BTreeMap::new(), &baseline(), &bounds());
        assert_eq!(
            fails,
            vec!["serve_direct: missing from the fresh run".to_string()]
        );
    }

    #[test]
    fn a_missing_metric_fails() {
        let mut a = artifact(1.0, 100.0, "0xab", 0.0);
        if let Value::Object(m) = &mut a {
            m.insert(
                "metrics".into(),
                json!({ "ops_per_s": json!({ "value": 100.0, "unit": "1/s" }) }),
            );
        }
        let fails = gate(&fresh(a), &baseline(), &bounds());
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("lat_p50_ms missing"), "{fails:?}");
    }

    #[test]
    fn an_incorrect_run_fails() {
        let mut a = artifact(1.0, 100.0, "0xab", 0.0);
        if let Value::Object(m) = &mut a {
            m.insert("correct".into(), json!(false));
        }
        assert_eq!(gate(&fresh(a), &baseline(), &bounds()).len(), 1);
    }

    #[test]
    fn bounds_parse_from_benchmark_json() {
        let b = json!({ "end_to_end": vec![
            json!({ "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25 }),
            json!({ "name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1 }),
        ] });
        let parsed = super::bounds(&b).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed[0].lower_is_better && !parsed[1].lower_is_better);
        assert_eq!(parsed[0].bound, 0.25);
        let bad =
            json!({ "end_to_end": vec![json!({ "name": "x", "better": "up", "bound": 0.1 })] });
        assert!(super::bounds(&bad).is_err());
    }
}
