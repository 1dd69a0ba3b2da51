//! `mlint`: dataflow static analyzer for mcode assembly files.
//!
//! ```text
//! mlint [--program|--mroutine] [--base ADDR] [--nested] [--budget N]
//!       [--data-bytes N] [--deny-warnings] FILE...
//! ```
//!
//! Each file is assembled and analyzed as one unit; diagnostics print as
//! `file:line:col: level[check]: message (pc 0x…)`. The exit code is a
//! failure when any diagnostic denies (or, with `--deny-warnings`, when
//! any diagnostic fires at all).

use std::process::ExitCode;

use metal_lint::{lint_source, Level, LintConfig, UnitKind, MRAM_BASE};
use metal_util::cli::{parse_u32, usage};
use metal_util::outln;

const USAGE: &str = "mlint [--program|--mroutine] [--base ADDR] [--nested] [--budget N] \
                     [--data-bytes N] [--deny-warnings] FILE...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LintConfig::mroutine(MRAM_BASE);
    let mut deny_warnings = false;
    let mut files = Vec::new();
    let mut base_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return usage("mlint", USAGE, ""),
            "--program" => config.kind = UnitKind::Program,
            "--mroutine" => config.kind = UnitKind::Mroutine,
            "--nested" => config.nested_allowed = true,
            "--deny-warnings" => deny_warnings = true,
            "--base" => {
                let Some(v) = it.next().and_then(|s| parse_u32(s)) else {
                    return usage("mlint", USAGE, "--base needs a numeric address");
                };
                config.base = v;
                base_set = true;
            }
            "--budget" => {
                let Some(v) = it.next().and_then(|s| parse_u32(s)) else {
                    return usage("mlint", USAGE, "--budget needs a number");
                };
                config.budget = u64::from(v);
            }
            "--data-bytes" => {
                let Some(v) = it.next().and_then(|s| parse_u32(s)) else {
                    return usage("mlint", USAGE, "--data-bytes needs a number");
                };
                config.data_bytes = v;
            }
            other if other.starts_with('-') => {
                return usage("mlint", USAGE, &format!("unknown option {other}"));
            }
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        return usage("mlint", USAGE, "no input files");
    }
    // Guest programs conventionally assemble at 0 unless told otherwise.
    if config.kind == UnitKind::Program && !base_set {
        config.base = 0;
    }

    let mut failed = false;
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("mlint: {file}: {e}");
                failed = true;
                continue;
            }
        };
        let diags = match lint_source(&src, &config) {
            Ok(diags) => diags,
            Err(e) => {
                eprintln!("mlint: {file}: {e}");
                failed = true;
                continue;
            }
        };
        for d in &diags {
            outln!("{}", d.render(file));
            if d.level == Level::Deny || deny_warnings {
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
