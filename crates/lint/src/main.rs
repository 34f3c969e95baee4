//! CLI for `srlr-lint`.
//!
//! Exit codes: `0` clean, `1` rule violations (or, with `--deny-all`,
//! stale baseline entries), `2` usage or I/O errors. `--format sarif`
//! always exits `0` once the report is produced: the document carries
//! the findings, and CI must receive it even (especially) when they
//! gate.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary's job is terminal output"
)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use srlr_lint::baseline::Baseline;
use srlr_lint::rules::ALL_RULES;
use srlr_lint::{run, sarif, write_api_locks, Config};

const USAGE: &str = "\
srlr-lint: workspace rules clippy cannot check (float-eq, units, layering, API locks, dataflow)

USAGE:
    srlr-lint [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root to scan (default: .)
    --baseline <FILE>   baseline file (default: <root>/lint-baseline.txt)
    --deny-all          also fail on stale baseline entries (CI mode)
    --write-baseline    rewrite the baseline from current violations
    --write-api-lock    rewrite every api-lock.txt from the current public surface
    --format <FMT>      output format: text (default) or sarif
    --list-rules        print the rule catalog and exit
    --help              print this help
";

enum Format {
    Text,
    Sarif,
}

struct Cli {
    config: Config,
    deny_all: bool,
    write_baseline: bool,
    write_api_lock: bool,
    list_rules: bool,
    format: Format,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut deny_all = false;
    let mut write_baseline = false;
    let mut write_api_lock = false;
    let mut list_rules = false;
    let mut format = Format::Text;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory argument")?;
                root = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file argument")?;
                baseline = Some(PathBuf::from(v));
            }
            "--deny-all" => deny_all = true,
            "--write-baseline" => write_baseline = true,
            "--write-api-lock" => write_api_lock = true,
            "--format" => {
                let v = it.next().ok_or("--format needs `text` or `sarif`")?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}` (text|sarif)")),
                };
            }
            "--list-rules" => list_rules = true,
            "--help" | "-h" => return Err(String::new()), // usage, exit 0 path handled below
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    let mut config = Config::new(root.unwrap_or_else(|| PathBuf::from(".")));
    if let Some(b) = baseline {
        config.baseline_path = b;
    }
    Ok(Cli {
        config,
        deny_all,
        write_baseline,
        write_api_lock,
        list_rules,
        format,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = args.iter().any(|a| a == "--help" || a == "-h");
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(_) if wants_help => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if cli.list_rules {
        for rule in ALL_RULES {
            println!("{:<16} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if cli.write_api_lock {
        match write_api_locks(&cli.config) {
            Ok(paths) => {
                println!("wrote {} api-lock file(s)", paths.len());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match run(&cli.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if cli.write_baseline {
        let keys: BTreeSet<String> = report.all_violation_keys();
        let content = Baseline::render(&keys);
        if let Err(e) = std::fs::write(&cli.config.baseline_path, content) {
            eprintln!("error: writing {}: {e}", cli.config.baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} entries to {}",
            keys.len(),
            cli.config.baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    if matches!(cli.format, Format::Sarif) {
        // SARIF is an export format: CI uploads it for code-review
        // annotation and must not lose the artifact to a non-zero
        // exit. The findings are *in* the document; gating stays with
        // the text format (matching `srlr verify-noc --format sarif`).
        print!("{}", sarif::render(&report));
        return ExitCode::SUCCESS;
    }

    for d in &report.fresh {
        print!("{}", d.render());
    }
    for key in &report.stale {
        println!(
            "stale-baseline: `{key}` no longer matches any violation; delete it from {}",
            cli.config.baseline_path.display()
        );
    }

    let failures = report.fresh.len();
    let mut summary = format!(
        "srlr-lint: {} files checked, {failures} violation(s)",
        report.files_checked
    );
    if !report.baselined.is_empty() {
        summary.push_str(&format!(", {} baselined", report.baselined.len()));
    }
    if !report.stale.is_empty() {
        summary.push_str(&format!(
            ", {} stale baseline entr(ies)",
            report.stale.len()
        ));
    }
    println!("{summary}");

    let stale_fails = cli.deny_all && !report.stale.is_empty();
    if failures > 0 || stale_fails {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
