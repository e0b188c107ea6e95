//! `oxperf compare <a.jsonl> <b.jsonl>`: holds run set B against run set A
//! by the benchmark's own bounds.
//!
//! A set is a results file written by `oxperf run --out`: one line per run,
//! any number of seeds per workload. Per (workload, metric):
//!
//! * "v" metrics and counts repeat exactly at equal (seed, `--seconds`), so
//!   they are compared seed by seed: all equal is `pass`; otherwise the
//!   medians decide between `improved`, `changed` (moved, within the bound)
//!   and `regressed` (worse by more than the bound).
//! * host metrics compare medians against the bound; when either side has
//!   at least four runs and its interquartile range exceeds the bound, the
//!   verdict is `unresolved` rather than a claim either way.

use crate::json::{self, Json};
use crate::metrics::{self, Better};
use std::collections::BTreeMap;
use std::path::Path;

/// One run read back from a results file.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed the run used.
    pub seed: u64,
    /// Every value the run reported.
    pub values: BTreeMap<String, f64>,
}

/// Reads a results file.
pub fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let doc = json::parse(line).map_err(|e| bad(&e))?;
        let num = |k: &str| doc.get(k).and_then(Json::num).ok_or_else(|| bad(k));
        let values = doc
            .get("values")
            .and_then(Json::obj)
            .ok_or_else(|| bad("values"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
            .collect();
        out.push(Record {
            workload: doc
                .get("workload")
                .and_then(Json::str)
                .ok_or_else(|| bad("workload"))?
                .to_string(),
            seed: num("seed")? as u64,
            values,
        });
    }
    Ok(out)
}

/// Verdict on one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// No worse than the bound allows (exact metrics: identical).
    Pass,
    /// Better by more than the bound (exact metrics: better at all).
    Improved,
    /// An exact metric moved, within its bound.
    Changed,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread exceeds the bound; no claim either way.
    Unresolved,
}

impl Status {
    /// Name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Improved => "improved",
            Status::Changed => "changed",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median over set A.
    pub a: f64,
    /// Median over set B.
    pub b: f64,
    /// Verdict.
    pub status: Status,
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` gives them.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How a metric is judged: (better, bound, exact), or `None` for host-time
/// per-layer metrics, which carry no bound and are not compared.
fn rule(name: &str) -> Option<(Better, f64, bool)> {
    if let Some(d) = metrics::end_to_end_def(name) {
        return Some((d.better, d.bound, d.exact));
    }
    if name.ends_with("wall_self_ns_per_op")
        || name.ends_with(".wall_share")
        || name == "trace.overhead_pct"
    {
        return None;
    }
    let better = metrics::PER_LAYER_SPECIFIC
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(Better::Lower, |(_, _, b)| *b);
    Some((better, 0.0, true))
}

fn values(xs: &[(u64, f64)]) -> Vec<f64> {
    xs.iter().map(|x| x.1).collect()
}

fn median(xs: &[(u64, f64)]) -> f64 {
    quartiles(&values(xs))[1]
}

fn judge(a: &[(u64, f64)], b: &[(u64, f64)], better: Better, bound: f64, exact: bool) -> Status {
    let (ma, mb) = (median(a), median(b));
    // Positive = B worse than A, as a share of A.
    let worse = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    } / if ma == 0.0 { 1.0 } else { ma.abs() };
    if exact {
        let same = a.len() == b.len()
            && a.iter()
                .all(|(seed, x)| b.iter().any(|(s, y)| s == seed && x == y));
        return match same {
            true => Status::Pass,
            false if worse > bound => Status::Regressed,
            false if worse < 0.0 => Status::Improved,
            false => Status::Changed,
        };
    }
    let wide = |xs: &[(u64, f64)]| xs.len() >= 4 && spread(&values(xs)) > bound;
    if wide(a) || wide(b) {
        Status::Unresolved
    } else if worse > bound {
        Status::Regressed
    } else if worse < -bound {
        Status::Improved
    } else {
        Status::Pass
    }
}

/// Compares set `b` against set `a`.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let group = |set: &[Record]| {
        let mut g: BTreeMap<(String, String), Vec<(u64, f64)>> = BTreeMap::new();
        for r in set {
            for (name, &x) in &r.values {
                g.entry((r.workload.clone(), name.clone()))
                    .or_default()
                    .push((r.seed, x));
            }
        }
        g
    };
    let (ga, gb) = (group(a), group(b));
    let mut rows = Vec::new();
    for (key, xa) in &ga {
        let (Some(xb), Some((better, bound, exact))) = (gb.get(key), rule(&key.1)) else {
            continue;
        };
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            a: median(xa),
            b: median(xb),
            status: judge(xa, xb, better, bound, exact),
        });
    }
    rows
}

/// Whether a comparison fails: any regression, or — with `identical`, the
/// same-commit acceptance check — any exact metric that moved at all.
pub fn fails(rows: &[Row], identical: bool) -> bool {
    rows.iter().any(|r| match r.status {
        Status::Regressed => true,
        Status::Changed | Status::Improved => {
            identical && rule(&r.metric).is_some_and(|(_, _, exact)| exact)
        }
        Status::Pass | Status::Unresolved => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn exact_metrics_need_equality_host_metrics_a_bound() {
        let a = [(1, 10.0), (2, 12.0)];
        assert_eq!(judge(&a, &a, Better::Lower, 0.05, true), Status::Pass);
        let b = [(1, 10.0), (2, 12.1)];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05, true), Status::Changed);
        let c = [(1, 11.0), (2, 13.0)];
        assert_eq!(judge(&a, &c, Better::Lower, 0.05, true), Status::Regressed);
        assert_eq!(judge(&c, &a, Better::Lower, 0.05, true), Status::Improved);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10, false), Status::Pass);
        assert_eq!(judge(&a, &c, Better::Lower, 0.05, false), Status::Regressed);
        let noisy = [(1, 8.0), (2, 10.0), (3, 12.0), (4, 14.0)];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.10, false),
            Status::Unresolved
        );
    }
}
