//! Machine-readable reporting: `--report json` and the ratcheting baseline.
//!
//! The JSON report is the CI artifact (the findings). The baseline file (`oxcheck.baseline`) is the ratchet: it
//! records, per `(path, lint)`, how many findings are tolerated. CI fails
//! when the current count *exceeds* the baseline (new debt) and also when
//! it is *below* it (the baseline is stale and must shrink — debt can only
//! go down). An empty baseline therefore means: any finding fails CI.

use crate::Finding;
use std::collections::BTreeMap;

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the findings as a JSON document with stable ordering.
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"code\": \"{}\", \
             \"lint\": \"{}\", \"message\": \"{}\"}}{}\n",
            esc(&f.path),
            f.line,
            f.lint.code(),
            f.lint.name(),
            esc(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn counts(findings: &[Finding]) -> BTreeMap<(String, String), u64> {
    let mut map: BTreeMap<(String, String), u64> = BTreeMap::new();
    for f in findings {
        *map.entry((f.path.clone(), f.lint.name().to_string()))
            .or_default() += 1;
    }
    map
}

/// Renders findings as baseline text: one `path<TAB>lint<TAB>count` row per
/// `(path, lint)`, sorted. The output of `--write-baseline`.
pub fn baseline_text(findings: &[Finding]) -> String {
    let mut s = String::from(
        "# oxcheck baseline — tolerated findings per (path, lint).\n\
         # The ratchet: counts here may only go DOWN. New findings fail CI;\n\
         # fixing a finding requires shrinking this file (run with\n\
         # --write-baseline). Format: path<TAB>lint<TAB>count.\n",
    );
    for ((path, lint), n) in counts(findings) {
        s.push_str(&format!("{path}\t{lint}\t{n}\n"));
    }
    s
}

/// Checks findings against a baseline document. Returns human-readable
/// violations; empty means the ratchet holds.
pub fn check_baseline(findings: &[Finding], baseline: &str) -> Vec<String> {
    let mut base: BTreeMap<(String, String), u64> = BTreeMap::new();
    for line in baseline.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split('\t');
        let (Some(path), Some(lint), Some(n)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if let Ok(n) = n.parse::<u64>() {
            base.insert((path.to_string(), lint.to_string()), n);
        }
    }
    let cur = counts(findings);
    let mut errors = Vec::new();
    for (key, &n) in &cur {
        let allowed = base.get(key).copied().unwrap_or(0);
        if n > allowed {
            errors.push(format!(
                "{}: {} [{}] finding(s), baseline allows {} — fix them or \
                 justify with a pragma; the baseline only shrinks",
                key.0, n, key.1, allowed
            ));
        }
    }
    for (key, &allowed) in &base {
        let n = cur.get(key).copied().unwrap_or(0);
        if n < allowed {
            errors.push(format!(
                "{}: baseline allows {} [{}] finding(s) but only {} remain — \
                 stale baseline, shrink it (re-run with --write-baseline)",
                key.0, allowed, key.1, n
            ));
        }
    }
    errors.sort();
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Lint};

    fn f(path: &str, line: u32, lint: Lint) -> Finding {
        Finding {
            path: path.to_string(),
            line,
            lint,
            message: "m \"q\"".to_string(),
        }
    }

    #[test]
    fn baseline_roundtrip_holds() {
        let findings = vec![
            f("a.rs", 1, Lint::UnorderedIter),
            f("a.rs", 9, Lint::UnorderedIter),
            f("b.rs", 2, Lint::PanicPath),
        ];
        let text = baseline_text(&findings);
        assert!(check_baseline(&findings, &text).is_empty());
    }

    #[test]
    fn new_finding_fails_and_fixed_finding_requires_shrink() {
        let old = vec![f("a.rs", 1, Lint::UnorderedIter)];
        let text = baseline_text(&old);
        // One more finding of the same kind: ratchet fires.
        let more = vec![
            f("a.rs", 1, Lint::UnorderedIter),
            f("a.rs", 5, Lint::UnorderedIter),
        ];
        let errs = check_baseline(&more, &text);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("baseline allows 1"));
        // Finding fixed but baseline not shrunk: stale.
        let errs = check_baseline(&[], &text);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("stale baseline"));
        // Empty baseline + any finding: fails.
        assert!(!check_baseline(&old, "").is_empty());
        assert!(check_baseline(&[], "").is_empty());
    }

    #[test]
    fn json_escapes_and_structure() {
        let j = to_json(&[f("a \"b\".rs", 3, Lint::SpanDiscipline)]);
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("\"code\": \"L7\""));
        assert!(j.ends_with("}\n  ]\n}\n"), "{j}");
    }
}
