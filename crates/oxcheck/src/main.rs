//! CLI entry point: `cargo run -p oxcheck [--] [FLAGS] [ROOT]`.
//!
//! Walks the workspace (default: the workspace root when invoked through
//! cargo), prints every finding as `path:line: [Lx lint] message`, and
//! exits non-zero if any lint fired — suitable as a CI gate.
//!
//! Flags:
//!
//! * `--report json` — emit the machine-readable report (the findings) to
//!   stdout instead of the human format.
//! * `--baseline <file>` — ratchet mode: findings are checked against the
//!   baseline instead of failing outright. New findings (above the
//!   baseline count) fail; so does a stale baseline (counts above what
//!   remains — debt may only shrink). Defaults to `oxcheck.baseline` at
//!   the root when that file exists.
//! * `--write-baseline` — rewrite the baseline file from current findings.

use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    report_json: bool,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn usage() -> ! {
    eprintln!("usage: oxcheck [--report json] [--baseline FILE] [--write-baseline] [ROOT]");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        root: default_root(),
        report_json: false,
        baseline: None,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    let mut root_set = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => match args.next().as_deref() {
                Some("json") => opts.report_json = true,
                _ => usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => opts.baseline = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--write-baseline" => opts.write_baseline = true,
            "--help" | "-h" => usage(),
            _ if a.starts_with('-') => usage(),
            _ if !root_set => {
                opts.root = PathBuf::from(a);
                root_set = true;
            }
            _ => usage(),
        }
    }
    opts
}

fn default_root() -> PathBuf {
    // Under `cargo run -p oxcheck` the cwd is wherever the user is; the
    // workspace root is two levels above this crate's manifest.
    let manifest: PathBuf = env!("CARGO_MANIFEST_DIR").into();
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let findings = match oxcheck::analyze_workspace(&opts.root, &oxcheck::Config::default()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("oxcheck: failed to walk {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    // Baseline: explicit flag, else `oxcheck.baseline` at the root if present.
    let baseline_path = opts.baseline.clone().or_else(|| {
        let p = opts.root.join("oxcheck.baseline");
        p.exists().then_some(p)
    });

    if opts.write_baseline {
        let path = baseline_path.unwrap_or_else(|| opts.root.join("oxcheck.baseline"));
        let text = oxcheck::report::baseline_text(&findings);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("oxcheck: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "oxcheck: wrote baseline ({} finding(s)) to {}",
            findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if opts.report_json {
        print!("{}", oxcheck::report::to_json(&findings));
        // The JSON report is an artifact, not a gate: always succeed so CI
        // can upload it from a separate step.
        return ExitCode::SUCCESS;
    }

    for f in &findings {
        println!("{f}");
    }
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("oxcheck: failed to read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let errors = oxcheck::report::check_baseline(&findings, &text);
        return if errors.is_empty() {
            println!(
                "oxcheck: ratchet holds ({} finding(s) within baseline {})",
                findings.len(),
                path.display()
            );
            ExitCode::SUCCESS
        } else {
            for e in &errors {
                println!("oxcheck: {e}");
            }
            ExitCode::FAILURE
        };
    }
    if findings.is_empty() {
        println!("oxcheck: clean ({} ok)", opts.root.display());
        ExitCode::SUCCESS
    } else {
        println!(
            "oxcheck: {} finding(s); fix them or annotate with \
             `// oxcheck:allow(<lint>): <why>` (docs/static-analysis.md)",
            findings.len()
        );
        ExitCode::FAILURE
    }
}
