//! `geoserp` — the command-line front end.
//!
//! See [`commands::HELP`] (or run `geoserp help`) for usage. All state is
//! simulated; every command is deterministic in `--seed`.

mod args;
mod commands;

use commands::{
    cmd_analyze, cmd_compare, cmd_export, cmd_loadgen, cmd_probe, cmd_report, cmd_router, cmd_run,
    cmd_serve, cmd_trace, cmd_validate, CliError, HELP, SERVE_FLAGS, SERVE_SWITCHES,
};

fn dispatch(argv: &[String]) -> Result<String, CliError> {
    // Peek at the command to choose the flag grammar.
    let command = argv.first().map(String::as_str).unwrap_or("");
    match command {
        "run" => {
            let p = args::parse(
                argv,
                &[
                    "seed",
                    "scale",
                    "export",
                    "save",
                    "checkpoint",
                    "checkpoint-every",
                    "resume",
                    "max-rounds",
                    "retry-attempts",
                    "retry-backoff-ms",
                    "round-deadline-ms",
                    "metrics-out",
                    "trace-out",
                    "analysis-workers",
                    "index",
                    "components",
                ],
                &["quiet"],
            )?;
            cmd_run(&p)
        }
        "analyze" => {
            let p = args::parse(argv, &["analysis-workers"], &[])?;
            cmd_analyze(&p)
        }
        "report" => {
            let p = args::parse(argv, &[], &[])?;
            cmd_report(&p)
        }
        "compare" => {
            let p = args::parse(argv, &["seed", "scale"], &[])?;
            cmd_compare(&p)
        }
        "probe" => {
            let p = args::parse(argv, &["seed", "lat", "lon"], &["trace"])?;
            cmd_probe(&p)
        }
        "validate" => {
            let p = args::parse(argv, &["seed", "machines", "queries"], &[])?;
            cmd_validate(&p)
        }
        "export" => {
            let p = args::parse(argv, &["seed", "scale", "out"], &[])?;
            cmd_export(&p)
        }
        "serve" | "router" => {
            let p = args::parse(argv, SERVE_FLAGS, SERVE_SWITCHES)?;
            if command == "router" {
                cmd_router(&p)
            } else {
                cmd_serve(&p)
            }
        }
        "loadgen" => {
            let p = args::parse(
                argv,
                &[
                    "addr",
                    "requests",
                    "concurrency",
                    "keep-alive",
                    "query",
                    "out",
                    "trace-out",
                ],
                &[],
            )?;
            cmd_loadgen(&p)
        }
        "trace" => {
            let p = args::parse(argv, &["out"], &[])?;
            cmd_trace(&p)
        }
        "help" | "--help" | "-h" | "" => Ok(HELP.to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("geoserp: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_paths() {
        assert!(dispatch(&argv("help")).unwrap().contains("USAGE"));
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let err = dispatch(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_flag_fails_fast() {
        let err = dispatch(&argv("probe Coffee --seeed 1")).unwrap_err();
        assert!(err.to_string().contains("--seeed"));
        // A removed flag is rejected before any server starts, not ignored.
        let err =
            dispatch(&argv("serve --backend blocking --smoke --addr 127.0.0.1:0")).unwrap_err();
        assert!(err.to_string().contains("--backend"), "{err}");
        let err = dispatch(&argv("loadgen --matrix --workers 1,4")).unwrap_err();
        assert!(err.to_string().contains("--matrix"), "{err}");
    }
}
