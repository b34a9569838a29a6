//! `geoserp-bench check` — the CI perf gate.
//!
//! Compares a freshly measured bench report against the committed baseline
//! and fails (nonzero exit) on regressions that survive runner noise:
//!
//! * **serve** (`BENCH_serve.json`): cells are matched by their full shape
//!   key `(backend, workers, keep_alive, concurrency, think_ms, shards,
//!   replicas)`. A matched cell regresses on throughput below 75% of
//!   baseline, or — where the baseline p99 is at least 1 ms, below which
//!   CI scheduler jitter swamps the signal — on p99 above 125% of
//!   baseline. Because single cells on shared runners are noisy (the
//!   slow-client and routed cells especially: their tails are
//!   queueing-dominated), up to `min(2, cells/4)` regressed
//!   cells are reported as noise warnings; a *real* serve-path regression
//!   (an extra syscall, a lost fast path) moves most cells at once and
//!   trips the allowance. New errors in any cell, and a baseline cell
//!   missing from the fresh report (coverage must not silently shrink),
//!   fail unconditionally; extra fresh cells are fine.
//! * **obs** (`BENCH_obs.json`): the byte-identity bits (`byte_identical`,
//!   and `routed_byte_identical` unless the baseline lacks it too) must be
//!   present and true — those are correctness, not noise — and every
//!   instrumented wall clock the baseline reports (`instrumented_best_s`,
//!   `routed_instrumented_best_s`) must be reported and stay within 125%
//!   of baseline. `within_target` is reported but not
//!   enforced: the 3% overhead target compares two runs on the *same*
//!   machine, which is meaningful per report but noisy as a cross-run
//!   gate.
//!
//! * **index** (`BENCH_index.json`): per scale, the `byte_identical` bit
//!   must be true (correctness, not noise), the compressed backend's
//!   retrieve p99 must stay within 125% of baseline plus a small absolute
//!   slack (index queries are tens-of-µs; pure ratios would gate scheduler
//!   jitter), and the compression ratio must not collapse below 80% of
//!   baseline. The report's headline claims — ≥10× corpus growth and
//!   sublinear p99 growth — are re-gated so the artifact cannot silently
//!   stop demonstrating what the docs say it demonstrates.
//!
//! The tolerances are deliberately loose — the gate exists to catch a
//! serve-path or tracing change that costs tens of percent, not to police
//! single-digit drift on shared runners.

use serde_json::Value;

/// Throughput below this fraction of baseline fails.
const MIN_THROUGHPUT_RATIO: f64 = 0.75;
/// p99 latency above this multiple of baseline fails.
const MAX_P99_RATIO: f64 = 1.25;
/// Instrumented wall clock above this multiple of baseline fails.
const MAX_WALL_RATIO: f64 = 1.25;
/// Baseline p99s under this are runner noise, not signal; no p99 gate.
const P99_GATE_FLOOR_US: u64 = 1_000;

/// One gate verdict: a human line plus whether it fails the build.
#[derive(Debug)]
pub struct Verdict {
    /// What was checked and what was seen.
    pub line: String,
    /// True when this verdict alone fails the gate.
    pub failed: bool,
}

fn pass(line: String) -> Verdict {
    Verdict {
        line,
        failed: false,
    }
}

fn fail(line: String) -> Verdict {
    Verdict { line, failed: true }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn int(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// The identity of a serve-matrix cell: everything but the measurement.
fn cell_key(e: &Value) -> String {
    format!(
        "{} w{} ka={} c{} think{} {}x{}",
        e.get("backend").and_then(Value::as_str).unwrap_or("?"),
        int(e, "workers"),
        e.get("keep_alive")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        int(e, "concurrency"),
        int(e, "think_ms"),
        int(e, "shards"),
        int(e, "replicas"),
    )
}

/// Gate one serve cell against its baseline twin. Error regressions land
/// in `out` (unconditional failures); throughput/p99 regressions are
/// returned as candidate noise lines for the cross-cell allowance.
fn check_serve_cell(key: &str, fresh: &Value, base: &Value, out: &mut Vec<Verdict>) -> Vec<String> {
    let (fr, br) = (&fresh["report"], &base["report"]);

    let (fresh_errors, base_errors) = (int(fr, "errors"), int(br, "errors"));
    if fresh_errors > base_errors {
        out.push(fail(format!(
            "[{key}] errors regressed: {base_errors} -> {fresh_errors}"
        )));
    }

    let mut perf = Vec::new();
    let (fresh_tp, base_tp) = (num(fr, "throughput_rps"), num(br, "throughput_rps"));
    if base_tp > 0.0 && fresh_tp < base_tp * MIN_THROUGHPUT_RATIO {
        perf.push(format!(
            "[{key}] throughput dropped: {base_tp:.0} -> {fresh_tp:.0} rps \
             (floor {:.0})",
            base_tp * MIN_THROUGHPUT_RATIO
        ));
    }

    let (fresh_p99, base_p99) = (int(fr, "p99_us"), int(br, "p99_us"));
    if base_p99 >= P99_GATE_FLOOR_US && fresh_p99 as f64 > base_p99 as f64 * MAX_P99_RATIO {
        perf.push(format!(
            "[{key}] p99 regressed: {base_p99} -> {fresh_p99} us \
             (ceiling {:.0})",
            base_p99 as f64 * MAX_P99_RATIO
        ));
    }

    if perf.is_empty() {
        out.push(pass(format!(
            "[{key}] ok: {fresh_tp:.0} rps (base {base_tp:.0}), \
             p99 {fresh_p99} us (base {base_p99})"
        )));
    }
    perf
}

/// Gate a fresh `BENCH_serve.json` against the committed baseline.
pub fn check_serve(fresh: &Value, baseline: &Value) -> Vec<Verdict> {
    let empty = Vec::new();
    let fresh_entries = fresh["entries"].as_array().unwrap_or(&empty);
    let base_entries = baseline["entries"].as_array().unwrap_or(&empty);
    let mut out = Vec::new();
    if base_entries.is_empty() {
        out.push(fail("baseline has no entries".to_string()));
        return out;
    }
    let mut gated_cells = 0usize;
    let mut regressed: Vec<(String, Vec<String>)> = Vec::new();
    for base in base_entries {
        let key = cell_key(base);
        match fresh_entries.iter().find(|e| cell_key(e) == key) {
            Some(f) => {
                gated_cells += 1;
                let perf = check_serve_cell(&key, f, base, &mut out);
                if !perf.is_empty() {
                    regressed.push((key, perf));
                }
            }
            None => out.push(fail(format!("[{key}] missing from fresh report"))),
        }
    }
    // The noise allowance: lone regressed cells are runner jitter, a
    // cluster of them is a serve-path regression.
    let allowance = (gated_cells / 4).min(2);
    let over = regressed.len() > allowance;
    for (key, lines) in &regressed {
        for line in lines {
            out.push(if over {
                fail(line.clone())
            } else {
                pass(format!("noise-allowed {line}"))
            });
        }
        if !over {
            out.push(pass(format!(
                "[{key}] regressed within the {allowance}-cell noise allowance"
            )));
        }
    }
    if over {
        out.push(fail(format!(
            "{} cells regressed (> {allowance}-cell noise allowance of {gated_cells} gated)",
            regressed.len()
        )));
    }
    let extra = fresh_entries
        .iter()
        .filter(|e| !base_entries.iter().any(|b| cell_key(b) == cell_key(e)))
        .count();
    if extra > 0 {
        out.push(pass(format!(
            "{extra} new cell(s) not in baseline (not gated)"
        )));
    }
    out
}

/// Gate one instrumented wall clock against baseline. A baseline that
/// reports the clock requires the fresh report to report it too: a missing
/// or zero fresh value fails rather than slipping past the ratio check.
fn check_wall(out: &mut Vec<Verdict>, fresh: &Value, baseline: &Value, key: &str) {
    let (f, b) = (num(fresh, key), num(baseline, key));
    if b > 0.0 && f <= 0.0 {
        out.push(fail(format!(
            "{key} missing from fresh report (base {b:.3}s)"
        )));
    } else if b > 0.0 && f > b * MAX_WALL_RATIO {
        out.push(fail(format!(
            "{key} regressed: {b:.3}s -> {f:.3}s (ceiling {:.3}s)",
            b * MAX_WALL_RATIO
        )));
    } else if f > 0.0 {
        out.push(pass(format!("{key} ok: {f:.3}s (base {b:.3}s)")));
    }
}

/// Gate a byte-identity bit: false is a determinism bug, never noise, and
/// so is a missing bit — unless `optional`, where it may be absent.
fn check_identity(out: &mut Vec<Verdict>, fresh: &Value, key: &str, optional: bool) {
    match fresh.get(key).and_then(Value::as_bool) {
        Some(true) => out.push(pass(format!("{key}: true"))),
        Some(false) => out.push(fail(format!(
            "{key} is false — instrumentation perturbed the output"
        ))),
        None if optional => {}
        None => out.push(fail(format!("{key} missing from fresh report"))),
    }
}

/// Gate a fresh `BENCH_obs.json` against the committed baseline.
pub fn check_obs(fresh: &Value, baseline: &Value) -> Vec<Verdict> {
    let mut out = Vec::new();
    check_identity(&mut out, fresh, "byte_identical", false);
    // The routed cell may be absent only from reports whose baseline
    // predates it.
    let routed_optional = baseline.get("routed_byte_identical").is_none();
    check_identity(&mut out, fresh, "routed_byte_identical", routed_optional);
    check_wall(&mut out, fresh, baseline, "instrumented_best_s");
    check_wall(&mut out, fresh, baseline, "routed_instrumented_best_s");
    for key in ["overhead_pct", "routed_overhead_pct"] {
        if fresh.get(key).is_some() {
            out.push(pass(format!(
                "{key}: {:+.2}% (target <{:.0}%: {}; advisory only)",
                num(fresh, key),
                num(fresh, "target_pct"),
                fresh
                    .get(if key.starts_with("routed") {
                        "routed_within_target"
                    } else {
                        "within_target"
                    })
                    .and_then(Value::as_bool)
                    .unwrap_or(false)
            )));
        }
    }
    out
}

/// Absolute p99 slack for the index gate, microseconds: below this scale,
/// regressions are indistinguishable from scheduler jitter.
const INDEX_P99_SLACK_US: f64 = 150.0;
/// Compression ratio below this fraction of baseline fails.
const MIN_RATIO_FRACTION: f64 = 0.8;
/// The corpus growth the index artifact must keep demonstrating.
const MIN_CORPUS_GROWTH: f64 = 10.0;

/// Gate a fresh `BENCH_index.json` against the committed baseline.
pub fn check_index(fresh: &Value, baseline: &Value) -> Vec<Verdict> {
    let empty = Vec::new();
    let fresh_scales = fresh["scales"].as_array().unwrap_or(&empty);
    let base_scales = baseline["scales"].as_array().unwrap_or(&empty);
    let mut out = Vec::new();
    if base_scales.is_empty() {
        out.push(fail("baseline has no scales".to_string()));
        return out;
    }
    for base in base_scales {
        let scale = int(base, "scale");
        let key = format!("scale {scale}");
        let Some(f) = fresh_scales.iter().find(|e| int(e, "scale") == scale) else {
            out.push(fail(format!("[{key}] missing from fresh report")));
            continue;
        };

        match f.get("byte_identical").and_then(Value::as_bool) {
            Some(true) => out.push(pass(format!("[{key}] byte_identical: true"))),
            _ => out.push(fail(format!(
                "[{key}] byte_identical is not true — compressed diverged from exact"
            ))),
        }

        let (fresh_p99, base_p99) = (
            num(&f["latency_us"]["compressed"], "p99"),
            num(&base["latency_us"]["compressed"], "p99"),
        );
        let ceiling = base_p99 * MAX_P99_RATIO + INDEX_P99_SLACK_US;
        if base_p99 > 0.0 && fresh_p99 > ceiling {
            out.push(fail(format!(
                "[{key}] compressed p99 regressed: {base_p99:.0} -> {fresh_p99:.0} us \
                 (ceiling {ceiling:.0})"
            )));
        } else {
            out.push(pass(format!(
                "[{key}] compressed p99 ok: {fresh_p99:.0} us (base {base_p99:.0})"
            )));
        }

        let (fresh_ratio, base_ratio) = (num(&f["bytes"], "ratio"), num(&base["bytes"], "ratio"));
        if base_ratio > 0.0 && fresh_ratio < base_ratio * MIN_RATIO_FRACTION {
            out.push(fail(format!(
                "[{key}] compression ratio collapsed: {base_ratio:.2}x -> {fresh_ratio:.2}x \
                 (floor {:.2}x)",
                base_ratio * MIN_RATIO_FRACTION
            )));
        } else {
            out.push(pass(format!(
                "[{key}] compression ratio ok: {fresh_ratio:.2}x (base {base_ratio:.2}x)"
            )));
        }
    }

    let growth = num(fresh, "corpus_growth");
    if growth < MIN_CORPUS_GROWTH {
        out.push(fail(format!(
            "corpus_growth {growth:.1}x below the {MIN_CORPUS_GROWTH:.0}x the artifact must show"
        )));
    } else {
        out.push(pass(format!("corpus_growth: {growth:.1}x")));
    }
    match fresh.get("sublinear").and_then(Value::as_bool) {
        Some(true) => out.push(pass(format!(
            "sublinear p99 growth: {:.2}x vs corpus {growth:.1}x",
            num(fresh, "p99_growth_compressed")
        ))),
        _ => out.push(fail(format!(
            "p99 growth {:.2}x is not sublinear in corpus growth {growth:.1}x",
            num(fresh, "p99_growth_compressed")
        ))),
    }
    out
}

/// Run the gate named by `argv` (`serve|obs|index <fresh> <baseline>`); returns
/// the process exit code after printing every verdict.
pub fn run(argv: &[String]) -> i32 {
    let (kind, fresh_path, base_path) = match argv {
        [k, f, b] => (k.as_str(), f, b),
        _ => {
            eprintln!("usage: geoserp-bench check <serve|obs|index> <fresh.json> <baseline.json>");
            return 2;
        }
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (fresh, baseline) = match (load(fresh_path), load(base_path)) {
        (Ok(f), Ok(b)) => (f, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[bench-check] {e}");
            return 2;
        }
    };
    let verdicts = match kind {
        "serve" => check_serve(&fresh, &baseline),
        "obs" => check_obs(&fresh, &baseline),
        "index" => check_index(&fresh, &baseline),
        other => {
            eprintln!("[bench-check] unknown report kind {other:?}: expected serve|obs|index");
            return 2;
        }
    };
    let mut failures = 0usize;
    for v in &verdicts {
        let tag = if v.failed { "FAIL" } else { "ok  " };
        eprintln!("[bench-check] {tag} {}", v.line);
        failures += usize::from(v.failed);
    }
    if failures > 0 {
        eprintln!(
            "[bench-check] {kind}: {failures} regression(s) vs {base_path} — \
             if intentional, regenerate the baseline on a quiet machine"
        );
        1
    } else {
        eprintln!("[bench-check] {kind}: no regressions vs {base_path}");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn cell(backend: &str, tp: f64, p99: u64, errors: u64) -> Value {
        let report = json!({
            "requests": 400u64,
            "ok": 400 - errors,
            "errors": errors,
            "elapsed_s": 0.01,
            "throughput_rps": tp,
            "p50_us": 10u64,
            "p99_us": p99,
        });
        let mut c = serde_json::Map::new();
        c.insert("backend".into(), json!(backend));
        c.insert("workers".into(), json!(1u64));
        c.insert("keep_alive".into(), json!(true));
        c.insert("concurrency".into(), json!(4u64));
        c.insert("think_ms".into(), json!(0u64));
        c.insert("shards".into(), json!(0u64));
        c.insert("replicas".into(), json!(0u64));
        c.insert("report".into(), report);
        Value::Object(c)
    }

    fn matrix(cells: Vec<Value>) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("seed".into(), json!(2015u64));
        m.insert("entries".into(), Value::Array(cells));
        Value::Object(m)
    }

    fn failed(vs: &[Verdict]) -> usize {
        vs.iter().filter(|v| v.failed).count()
    }

    #[test]
    fn identical_reports_pass() {
        let base = matrix(vec![cell("epoll", 40_000.0, 2_000, 0)]);
        assert_eq!(failed(&check_serve(&base, &base)), 0);
    }

    #[test]
    fn throughput_drop_fails_only_past_the_floor() {
        // A single-cell matrix has no noise allowance: min(2, 1/4) = 0.
        let base = matrix(vec![cell("epoll", 40_000.0, 50, 0)]);
        let slower = matrix(vec![cell("epoll", 31_000.0, 50, 0)]);
        assert_eq!(failed(&check_serve(&slower, &base)), 0, "within 25%");
        let cliff = matrix(vec![cell("epoll", 29_000.0, 50, 0)]);
        assert!(failed(&check_serve(&cliff, &base)) > 0, "past 25%");
    }

    #[test]
    fn p99_gate_ignores_sub_millisecond_baselines() {
        // 60 µs baseline: even a 10x blowup is scheduler noise territory.
        let base = matrix(vec![cell("epoll", 40_000.0, 60, 0)]);
        let noisy = matrix(vec![cell("epoll", 40_000.0, 600, 0)]);
        assert_eq!(failed(&check_serve(&noisy, &base)), 0);
        // 2 ms baseline: a 30% regression is signal.
        let base = matrix(vec![cell("epoll", 40_000.0, 2_000, 0)]);
        let worse = matrix(vec![cell("epoll", 40_000.0, 2_600, 0)]);
        assert!(failed(&check_serve(&worse, &base)) > 0);
    }

    #[test]
    fn lone_noisy_cells_pass_but_a_cluster_of_regressions_fails() {
        // 8 healthy baseline cells → allowance = min(2, 8/4) = 2.
        let backends: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
        let base = matrix(
            backends
                .iter()
                .map(|b| cell(b, 40_000.0, 2_000, 0))
                .collect(),
        );
        let degrade = |n: usize| {
            matrix(
                backends
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        if i < n {
                            cell(b, 20_000.0, 2_000, 0) // 50% drop: regressed
                        } else {
                            cell(b, 40_000.0, 2_000, 0)
                        }
                    })
                    .collect(),
            )
        };
        assert_eq!(failed(&check_serve(&degrade(2), &base)), 0, "2 ≤ allowance");
        assert!(
            failed(&check_serve(&degrade(3), &base)) > 0,
            "3 > allowance"
        );
    }

    #[test]
    fn new_errors_and_missing_cells_fail() {
        let base = matrix(vec![
            cell("epoll", 40_000.0, 2_000, 0),
            cell("router", 40_000.0, 2_000, 0),
        ]);
        let broken = matrix(vec![cell("epoll", 40_000.0, 2_000, 3)]);
        // One error regression + one missing router cell.
        assert_eq!(failed(&check_serve(&broken, &base)), 2);
    }

    #[test]
    fn obs_gate_enforces_identity_and_wall_clock() {
        let base = json!({
            "instrumented_best_s": 1.0,
            "routed_instrumented_best_s": 0.5,
        });
        let good = json!({
            "byte_identical": true,
            "routed_byte_identical": true,
            "instrumented_best_s": 1.1,
            "routed_instrumented_best_s": 0.55,
            "overhead_pct": 1.0,
            "target_pct": 3.0,
            "within_target": true,
        });
        assert_eq!(failed(&check_obs(&good, &base)), 0);
        let bad = json!({
            "byte_identical": false,
            "routed_byte_identical": true,
            "instrumented_best_s": 1.5,
            "routed_instrumented_best_s": 0.55,
        });
        // Identity broken + instrumented wall clock past 125%.
        assert_eq!(failed(&check_obs(&bad, &base)), 2);
    }

    fn index_scale_entry(scale: u64, p99: u64, ratio: f64, identical: bool) -> Value {
        let mut e = serde_json::Map::new();
        e.insert("scale".into(), json!(scale));
        e.insert("pages".into(), json!(scale * 12_000));
        e.insert("byte_identical".into(), json!(identical));
        e.insert(
            "bytes".into(),
            json!({ "exact": 1_000_000u64, "compressed": 300_000u64, "ratio": ratio }),
        );
        let mut lat = serde_json::Map::new();
        lat.insert("exact".into(), json!({ "p50": 10u64, "p99": p99 * 3 }));
        lat.insert("compressed".into(), json!({ "p50": 5u64, "p99": p99 }));
        e.insert("latency_us".into(), Value::Object(lat));
        Value::Object(e)
    }

    fn index_report(entries: Vec<Value>, growth: f64, sublinear: bool) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("scales".into(), Value::Array(entries));
        m.insert("corpus_growth".into(), json!(growth));
        m.insert("p99_growth_compressed".into(), json!(2.0f64));
        m.insert("sublinear".into(), json!(sublinear));
        Value::Object(m)
    }

    #[test]
    fn index_gate_passes_an_identical_report() {
        let report = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, true),
                index_scale_entry(16, 90, 3.2, true),
            ],
            16.0,
            true,
        );
        assert_eq!(failed(&check_index(&report, &report)), 0);
    }

    #[test]
    fn index_gate_fails_on_identity_ratio_p99_and_headline_regressions() {
        let base = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, true),
                index_scale_entry(16, 400, 3.2, true),
            ],
            16.0,
            true,
        );
        // Broken identity fails even with perfect numbers.
        let bad_identity = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, false),
                index_scale_entry(16, 400, 3.2, true),
            ],
            16.0,
            true,
        );
        assert_eq!(failed(&check_index(&bad_identity, &base)), 1);
        // p99 within ratio+slack passes; far past it fails.
        let slower_ok = index_report(
            vec![
                index_scale_entry(1, 150, 3.0, true), // 40*1.25+150 = 200 ceiling
                index_scale_entry(16, 500, 3.2, true),
            ],
            16.0,
            true,
        );
        assert_eq!(failed(&check_index(&slower_ok, &base)), 0);
        let slower_bad = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, true),
                index_scale_entry(16, 2_000, 3.2, true), // ceiling 650
            ],
            16.0,
            true,
        );
        assert_eq!(failed(&check_index(&slower_bad, &base)), 1);
        // Collapsed compression ratio fails.
        let shallow = index_report(
            vec![
                index_scale_entry(1, 40, 1.5, true), // floor 2.4
                index_scale_entry(16, 400, 3.2, true),
            ],
            16.0,
            true,
        );
        assert_eq!(failed(&check_index(&shallow, &base)), 1);
        // Lost headline claims fail: growth below 10x, or superlinear p99.
        let small = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, true),
                index_scale_entry(16, 400, 3.2, true),
            ],
            4.0,
            true,
        );
        assert_eq!(failed(&check_index(&small, &base)), 1);
        let superlinear = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, true),
                index_scale_entry(16, 400, 3.2, true),
            ],
            16.0,
            false,
        );
        assert_eq!(failed(&check_index(&superlinear, &base)), 1);
    }

    #[test]
    fn index_gate_fails_when_a_baseline_scale_disappears() {
        let base = index_report(
            vec![
                index_scale_entry(1, 40, 3.0, true),
                index_scale_entry(16, 400, 3.2, true),
            ],
            16.0,
            true,
        );
        let shrunk = index_report(vec![index_scale_entry(1, 40, 3.0, true)], 16.0, true);
        assert_eq!(failed(&check_index(&shrunk, &base)), 1);
    }

    #[test]
    fn obs_gate_fails_a_missing_identity_bit() {
        let base = json!({ "instrumented_best_s": 1.0 });
        let fresh = json!({ "instrumented_best_s": 1.0 });
        assert_eq!(
            failed(&check_obs(&fresh, &base)),
            1,
            "byte_identical absent"
        );
        // The routed bit may only be absent when the baseline lacks it too.
        let base = json!({ "routed_byte_identical": true, "instrumented_best_s": 1.0 });
        let fresh = json!({ "byte_identical": true, "instrumented_best_s": 1.0 });
        assert_eq!(failed(&check_obs(&fresh, &base)), 1, "routed bit dropped");
    }

    #[test]
    fn obs_gate_fails_a_wall_clock_the_baseline_has_but_the_report_lacks() {
        let base = json!({ "instrumented_best_s": 1.0, "routed_instrumented_best_s": 0.5 });
        let missing = json!({ "byte_identical": true, "instrumented_best_s": 1.0 });
        assert_eq!(failed(&check_obs(&missing, &base)), 1);
        let zero = json!({
            "byte_identical": true,
            "instrumented_best_s": 0.0,
            "routed_instrumented_best_s": 0.5,
        });
        assert_eq!(failed(&check_obs(&zero, &base)), 1);
    }

    #[test]
    fn obs_gate_tolerates_baselines_without_routed_keys() {
        // A baseline committed before the routed cell existed must not
        // block the report that introduces it.
        let base = json!({ "instrumented_best_s": 1.0 });
        let fresh = json!({
            "byte_identical": true,
            "routed_byte_identical": true,
            "instrumented_best_s": 1.0,
            "routed_instrumented_best_s": 0.5,
        });
        assert_eq!(failed(&check_obs(&fresh, &base)), 0);
    }
}
