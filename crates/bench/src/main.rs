//! `geoserp-bench` — the CI perf gate.
//!
//! `geoserp-bench check <serve|obs|index> <fresh.json> <baseline.json>`
//! compares a fresh bench report against the committed baseline and exits
//! nonzero on regressions (see [`geoserp_bench::check`]).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.split_first() {
        Some((cmd, rest)) if cmd == "check" => geoserp_bench::check::run(rest),
        _ => {
            eprintln!("usage: geoserp-bench check <serve|obs|index> <fresh.json> <baseline.json>");
            2
        }
    };
    std::process::exit(code);
}
