//! `oxperf` command line: `run`, `compare`, `list`.

use oxperf::compare;
use oxperf::metrics;
use oxperf::run::{self, RunArgs};
use oxperf::workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  oxperf run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--quick]
             [--out <results.jsonl>] [--out-dir <dir>]
  oxperf compare <a.jsonl> <b.jsonl> [--identical]
  oxperf list
  oxperf spec        (prints BENCHMARK.json)";

fn parse_run(args: &[String]) -> Result<(RunArgs, Option<PathBuf>), String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: oxperf::spec::RUN_SECONDS,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => run.workload = value("--workload")?,
            "--seed" => {
                run.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                run.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--out-dir" => run.out_dir = PathBuf::from(value("--out-dir")?),
            "--quick" => run.quick = true,
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok((run, out))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (args, out) = parse_run(args)?;
    let outcome = run::run(&args)?;
    println!(
        "# oxperf {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { " quick" } else { "" }
    );
    for v in &outcome.values {
        println!(
            "{:<40} {:>18} {}",
            v.name,
            format!("{:.4}", v.value),
            v.unit
        );
    }
    println!(
        "steady {} (applies: {}; warm-up overwrites {:.2}, waf half drift {:.2} %)",
        outcome.steady.ok,
        outcome.steady_applies,
        outcome.steady.overwrites,
        outcome.steady.half_drift * 100.0
    );
    if let Some(path) = out {
        run::append_line(&path, &run::record_line(&args, &outcome))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", run::result_line(&outcome));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let identical = args.iter().any(|a| a == "--identical");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("compare needs exactly two result files".into());
    };
    let rows = compare::compare(&compare::load(a.as_ref())?, &compare::load(b.as_ref())?);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric)".into());
    }
    for r in &rows {
        println!(
            "{:<12} {:<36} {:>16.4} {:>16.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.status.name()
        );
    }
    let count = |s: compare::Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} pass, {} improved, {} changed, {} regressed, {} unresolved",
        count(compare::Status::Pass),
        count(compare::Status::Improved),
        count(compare::Status::Changed),
        count(compare::Status::Regressed),
        count(compare::Status::Unresolved)
    );
    Ok(if compare::fails(&rows, identical) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_list() {
    for s in &workload::SPECS {
        println!("{}", s.name);
    }
    eprintln!(
        "{} end-to-end metrics, {} per-layer metrics",
        metrics::END_TO_END.len(),
        metrics::per_layer_defs().len()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("list") => {
            cmd_list();
            Ok(ExitCode::SUCCESS)
        }
        Some("spec") => {
            print!("{}", oxperf::spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("oxperf: {e}");
        ExitCode::from(2)
    })
}
