//! `BENCHMARK.json` is generated: the checked-in file must be what
//! `oxperf spec` prints, and must satisfy the driver's limits.

use oxperf::json::{self, Json};

fn checked_in() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn checked_in_file_is_the_generated_one() {
    assert_eq!(
        checked_in(),
        oxperf::spec::benchmark_json(),
        "regenerate with: oxperf spec > BENCHMARK.json"
    );
}

#[test]
fn file_meets_the_driver_limits() {
    let text = checked_in();
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |k: &str| doc.get(k).and_then(Json::arr).unwrap();
    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));
    let seconds = doc.get("run_seconds").and_then(Json::num).unwrap();
    assert!((1.0..=60.0).contains(&seconds));

    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    for w in list("workloads") {
        let name = w.get("name").and_then(Json::str).unwrap();
        let why = w.get("why").and_then(Json::str).unwrap();
        assert!(name_ok(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {} long",
            why.len()
        );
        assert!(names.insert(name.to_string()), "{name} used twice");
    }
    let mut has_setup = false;
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in list(key) {
            let name = m.get("name").and_then(Json::str).unwrap();
            assert!(name_ok(name), "{name}");
            assert!(
                unit_ok(m.get("unit").and_then(Json::str).unwrap()),
                "{name}"
            );
            let better = m.get("better").and_then(Json::str).unwrap();
            assert!(better == "higher" || better == "lower");
            assert!(names.insert(name.to_string()), "{name} used twice");
            assert_eq!(m.obj().unwrap().len(), if bounded { 4 } else { 3 });
            if bounded {
                let bound = m.get("bound").and_then(Json::num).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
                if name == "setup_s" {
                    has_setup = true;
                    assert_eq!(m.get("unit").and_then(Json::str), Some("s"));
                    assert_eq!(better, "lower");
                    let widest = list("end_to_end")
                        .iter()
                        .filter_map(|m| m.get("bound").and_then(Json::num))
                        .fold(0.0, f64::max);
                    assert_eq!(bound, widest, "setup_s carries the largest bound");
                }
            }
        }
    }
    assert!(has_setup);
}
