//! `geoserp-perfbench`: run one workload and print one JSON result line, run
//! every workload in fresh child processes (`run`), or gate fresh artifacts
//! against the baseline (`check bench`). See the library docs for the
//! workloads, the metrics, and how to read the trace files.

use geoserp_perfbench::spans::Recorder;
use geoserp_perfbench::{check, run_workload, Metric, RunConfig, Workload, END_TO_END, PER_LAYER};
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  geoserp-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  geoserp-perfbench run [--workload NAME] [--seed N] [--seconds S] [--traced] [--out DIR]
  geoserp-perfbench check bench <fresh_dir> <baseline.json> [--benchmark BENCHMARK.json]
workloads: study_full study_faults_resume serve_direct serve_routed";

/// Default artifact directory, relative to the working directory.
const DEFAULT_OUT: &str = ".bench_build/perfbench";
const DEFAULT_SEED: u64 = 2015;
const DEFAULT_SECONDS: u64 = 15;

/// Parsed command-line options shared by the single-workload and `run`
/// modes.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
}

fn parse_options(args: &[String], trace_flag: bool) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" && !trace_flag {
            opts.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                opts.workload = Some(w);
            }
            "--seed" => opts.seed = number()?,
            "--seconds" if number()? >= 1 => opts.seconds = number()?,
            "--trace" if trace_flag && (value == "0" || value == "1") => opts.traced = value == "1",
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    Ok(opts)
}

fn metrics_object(metrics: &[&Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        map.insert(m.name.clone(), json!({ "value": m.value, "unit": m.unit }));
    }
    Value::Object(map)
}

fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process: print its result line, write its
/// artifacts, exit nonzero if its outputs were wrong.
fn single(opts: Options) -> Result<bool, String> {
    let workload = opts.workload.ok_or("--workload is required")?;
    let cfg = RunConfig {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        out: opts.out,
    };
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let mut rec = Recorder::new(cfg.traced);
    let mut out = run_workload(&cfg, &mut rec);

    // The result line carries exactly the declared metrics: all end-to-end
    // ones untraced, the shared per-layer set traced.
    let wanted: Vec<&str> = if cfg.traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let pool = if cfg.traced {
        &out.layers
    } else {
        &out.metrics
    };
    let mut chosen = Vec::new();
    let mut problems = Vec::new();
    for name in wanted {
        match pool.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => chosen.push(m),
            Some(_) => problems.push(format!("{name} is not finite")),
            None => problems.push(format!("{name} was not measured")),
        }
    }
    let correct = out.correct && problems.is_empty();
    let line = json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": metrics_object(&chosen),
    });
    out.problems.extend(problems);
    for p in &out.problems {
        eprintln!("[perfbench] {}: {p}", workload.name());
    }

    let name = workload.name();
    let digests: Map = out.digests.iter().fold(Map::new(), |mut m, (k, v)| {
        m.insert(k.to_string(), json!(hex(*v)));
        m
    });
    for (k, v) in &out.digests {
        eprintln!(
            "[perfbench] {name} seed {} {k} digest {}",
            cfg.seed,
            hex(*v)
        );
    }
    if cfg.traced {
        let layers: Vec<&Metric> = out.layers.iter().collect();
        let doc = json!({ "workload": name, "seed": cfg.seed, "metrics": metrics_object(&layers) });
        write(
            &cfg.out.join(format!("{name}.layers.json")),
            &serde_json::to_string_pretty(&doc).expect("layers serialize"),
        )?;
        write(
            &cfg.out.join(format!("{name}.trace.json")),
            &rec.to_chrome_trace(name),
        )?;
    } else {
        let all: Vec<&Metric> = out.metrics.iter().collect();
        let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
        let artifact = json!({
            "workload": name,
            "seed": cfg.seed,
            "seconds": cfg.seconds,
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "ops_failed_frac": failed_frac,
            "digests": Value::Object(digests),
            "metrics": metrics_object(&all),
        });
        write(
            &cfg.out.join(format!("{name}.json")),
            &serde_json::to_string_pretty(&artifact).expect("artifact serializes"),
        )?;
    }
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    Ok(correct)
}

/// Spawn this binary on one workload and return its result line.
fn child(opts: &Options, workload: Workload, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{}: no result line (exit {})",
            workload.name(),
            output.status
        )
    })?;
    if !output.status.success() || line["correct"].as_bool() != Some(true) {
        return Err(format!("{}: output checks failed", workload.name()));
    }
    Ok(line)
}

/// Run each selected workload in a fresh child process; print every metric
/// as `workload metric value unit`; write `summary.json` beside the
/// per-workload artifacts.
fn run_all(opts: Options) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let workloads: Vec<Workload> = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut summary = Map::new();
    let mut ok = true;
    for w in workloads {
        let passes: &[bool] = if opts.traced {
            &[false, true]
        } else {
            &[false]
        };
        for &traced in passes {
            match child(&opts, w, traced) {
                Ok(line) => {
                    if let Some(metrics) = line["metrics"].as_object() {
                        for (name, m) in metrics.iter() {
                            let unit = m["unit"].as_str().unwrap_or("");
                            let value = m["value"].as_f64().unwrap_or(f64::NAN);
                            println!("{} {name} {value} {unit}", w.name());
                        }
                    }
                }
                Err(e) => {
                    eprintln!("[perfbench] {e}");
                    ok = false;
                }
            }
        }
        let artifact = opts.out.join(format!("{}.json", w.name()));
        if let Ok(text) = std::fs::read_to_string(&artifact) {
            if let Ok(v) = serde_json::from_str::<Value>(&text) {
                summary.insert(w.name().to_string(), v);
            }
        }
    }
    let doc = json!({ "workloads": Value::Object(summary) });
    write(
        &opts.out.join("summary.json"),
        &serde_json::to_string_pretty(&doc).expect("summary serializes"),
    )?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => return ExitCode::from(check::run(&args[1..]) as u8),
        Some("run") => parse_options(&args[1..], false).and_then(run_all),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_options(&args, true).and_then(single),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("geoserp-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
