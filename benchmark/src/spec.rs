//! `BENCHMARK.json`, generated from the tables in [`crate::metrics`] and
//! [`crate::workload`] so the file the driver reads cannot drift from what
//! the program reports. `oxperf spec` prints it; a test holds the checked-in
//! file to it byte for byte.

use crate::json::quote;
use crate::metrics::{per_layer_defs, END_TO_END};
use crate::workload::SPECS;

/// How long one run measures, on the host the op counts were calibrated on:
/// [`crate::run::PASSES`] passes of a third of it each.
pub const RUN_SECONDS: u64 = 9;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            let why = format!(
                "{}; {} clients, {} ops per second of --seconds",
                s.why, s.clients, s.ops_per_second
            );
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(s.name),
                quote(&why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.name()),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer_defs()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(unit),
                quote(better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
