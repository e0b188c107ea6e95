//! The one way a figure's output leaves the process.
//!
//! A figure binary hands every line and table row it produces to a
//! [`Report`], which echoes it to stdout and keeps it; [`Report::finish`]
//! then writes exactly that text to `results/<name>[.<backend>][.quick].txt`
//! and the run's observability snapshot beside it. The text is a function of
//! `(mode, seed)` alone — nothing under `crates/bench/src/` reads the host
//! clock (the root `clippy.toml` bans it) — so `scripts/regen-results.sh` reproduces the
//! committed tables byte for byte. Status messages go to stderr and are not
//! part of the report.

use crate::backend::BenchBackend;
use crate::quick_mode;
use ox_sim::trace::Obs;

/// The text of one figure run.
pub struct Report {
    artifact: String,
    text: String,
}

impl Report {
    /// A report for the binary `name`. A run `OX_BACKEND` pointed at one
    /// personality (`selected`) is tagged with it, and a `--quick` run with
    /// `.quick`, so each lands beside the committed full-mode artifacts
    /// instead of on top of them.
    pub fn new(name: &str, selected: Option<BenchBackend>) -> Report {
        Report {
            artifact: artifact(name, selected, quick_mode()),
            text: String::new(),
        }
    }

    /// One line of output (it may carry its own blank lines as `\n`).
    pub fn line(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        println!("{line}");
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// A Markdown-ish table row, each cell left-aligned to its width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S], widths: &[usize]) {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {:<w$} |", c.as_ref()));
        }
        self.line(line);
    }

    /// A table separator.
    pub fn sep(&mut self, widths: &[usize]) {
        let mut line = String::from("|");
        for w in widths {
            line.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        self.line(line);
    }

    /// Everything reported so far, as it will be written.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Writes the report to `results/<artifact>.txt` and `obs` (metrics +
    /// trace JSON) to `results/<artifact>.obs.json`.
    pub fn finish(self, obs: &Obs) {
        write_artifact(&format!("{}.txt", self.artifact), &self.text);
        write_artifact(&format!("{}.obs.json", self.artifact), &obs.to_json());
    }
}

/// `<name>[.<backend>][.quick]`: the file stem a run's outputs are written
/// under.
fn artifact(name: &str, selected: Option<BenchBackend>, quick: bool) -> String {
    let backend = selected.map(|b| format!(".{}", b.label()));
    let quick = if quick { ".quick" } else { "" };
    format!("{name}{}{quick}", backend.unwrap_or_default())
}

/// Failures are reported but not fatal: stdout already carries the rows.
fn write_artifact(file: &str, contents: &str) {
    let dir = std::path::Path::new("results");
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_and_backend_runs_are_tagged_beside_the_committed_artifact() {
        let ztl = Some(BenchBackend::Oxztl);
        assert_eq!(artifact("fig5_throughput", None, false), "fig5_throughput");
        assert_eq!(
            artifact("fig5_throughput", ztl, false),
            "fig5_throughput.oxztl"
        );
        assert_eq!(
            artifact("fig5_throughput", None, true),
            "fig5_throughput.quick"
        );
        assert_eq!(
            artifact("fig5_throughput", ztl, true),
            "fig5_throughput.oxztl.quick"
        );
    }
}
