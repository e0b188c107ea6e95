//! Regenerates Figure 5: db_bench average throughput (kops/s) for
//! fill-sequential, read-sequential and read-random under horizontal vs.
//! vertical SSTable placement, with 1/2/4/8 clients; and Figure 6, the
//! same fills' throughput over time.
//!
//! Figure 5 runs once over native media and once over oxztl's virtual
//! device; both sections go to one report, a blank line between them.
//! Figure 6 follows, another blank line on, from the native fills.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig5_throughput [--quick]`

use lightlsm::Placement;
use ox_bench::backend::{media_sections, BenchBackend};
use ox_bench::fig5::{run, Fig5Config, Fig5Result};
use ox_bench::{figure_obs, quick_mode, Report, CLIENT_COUNTS};
use ox_sim::trace::Obs;

fn main() {
    let cfg = if quick_mode() {
        Fig5Config::quick()
    } else {
        Fig5Config::full()
    };
    let obs = figure_obs();
    let mut report = Report::new("fig5_throughput");
    let mut native = None;
    media_sections(&mut report, |backend, report| {
        let result = section(&cfg, backend, &obs, report);
        if backend == BenchBackend::OxBlock {
            native = Some(result);
        }
    });
    report.line("");
    timeline(&cfg, &native.expect("the oxblock section ran"), &mut report);
    report.finish(&obs);
}

fn section(cfg: &Fig5Config, backend: BenchBackend, obs: &Obs, report: &mut Report) -> Fig5Result {
    report.line("Figure 5 — db_bench throughput over LightLSM (16 B keys, 1 KB values, no compression/caching)");
    report.line(format!(
        "device: paper TLC scaled (192 KB chunks, 6 MB full-width SSTables); backend: {}; fill {} MB/client\n",
        backend.label(),
        cfg.fill_bytes_per_client / (1024 * 1024)
    ));
    let result = run(cfg, backend, obs);

    let widths = [22usize, 10, 10, 10, 10];
    report.row(
        &[
            "workload / placement",
            "1 client",
            "2 clients",
            "4 clients",
            "8 clients",
        ],
        &widths,
    );
    report.sep(&widths);
    type Metric = fn(&ox_bench::fig5::Fig5Cell) -> f64;
    let rows: [(&str, Metric); 3] = [
        ("fill-sequential", |c| c.fill.kops_per_sec),
        ("read-sequential", |c| c.read_seq.kops_per_sec),
        ("read-random", |c| c.read_random.kops_per_sec),
    ];
    for (name, metric) in rows {
        for placement in [Placement::Horizontal, Placement::Vertical] {
            let mut cells = vec![format!("{name} {}", placement.label())];
            for n in CLIENT_COUNTS {
                cells.push(format!("{:.1}", metric(result.cell(placement, n))));
            }
            report.row(&cells, &widths);
        }
        report.sep(&widths);
    }
    report.line("(all numbers: thousands of operations per virtual second)\n");

    let h1 = result.cell(Placement::Horizontal, 1).fill.kops_per_sec;
    let v1 = result.cell(Placement::Vertical, 1).fill.kops_per_sec;
    let h2 = result.cell(Placement::Horizontal, 2).fill.kops_per_sec;
    let h8 = result.cell(Placement::Horizontal, 8).fill.kops_per_sec;
    let v8 = result.cell(Placement::Vertical, 8).fill.kops_per_sec;
    report.line("shape checks vs. the paper:");
    report.line(format!(
        "  fill 1 client: horizontal/vertical = {:.1}x (paper ~4x)",
        h1 / v1
    ));
    report.line(format!(
        "  fill horizontal 8 vs best(1,2) clients: {:.0}% (paper: degrades ~60%)",
        h8 / h1.max(h2) * 100.0
    ));
    report.line(format!(
        "  fill 8 clients: vertical/horizontal = {:.1}x (paper ~2x)",
        v8 / h8
    ));
    let rs1 = result.cell(Placement::Horizontal, 1).read_seq.kops_per_sec;
    let rr1 = result
        .cell(Placement::Horizontal, 1)
        .read_random
        .kops_per_sec;
    report.line(format!(
        "  read-seq / read-random (1 client, horizontal): {:.1}x (paper ~13x)",
        rs1 / rr1
    ));
    report.line(format!(
        "  writes >> reads: fill {:.1} kops vs read-seq {:.1} kops (1 client)",
        h1, rs1
    ));
    result
}

/// Figure 6: each fill's completion rate per window.
fn timeline(cfg: &Fig5Config, result: &Fig5Result, report: &mut Report) {
    report.line(format!(
        "Figure 6 — fill-sequential throughput over time (kops/s per {} ms window)\n",
        cfg.window.as_millis()
    ));
    for placement in [Placement::Horizontal, Placement::Vertical] {
        report.line(format!(
            "== fill-sequential with {} placement ==",
            placement.label()
        ));
        for clients in CLIENT_COUNTS {
            let fill = &result.cell(placement, clients).fill;
            let series: Vec<String> = fill
                .series
                .windows()
                .iter()
                .map(|w| format!("{:.0}", w.rate_per_sec / 1000.0))
                .collect();
            report.line(format!("{clients} client(s): [{}]", series.join(", ")));
            report.line(format!(
                "    duration {:.2}s  mean {:.1} kops/s  peak {:.1} kops/s",
                fill.duration.as_secs_f64(),
                fill.kops_per_sec,
                fill.series.peak_rate() / 1000.0
            ));
        }
        report.line("");
    }

    let duration = |placement, clients| result.cell(placement, clients).fill.duration.as_secs_f64();
    let (h1, h8) = (
        duration(Placement::Horizontal, 1),
        duration(Placement::Horizontal, 8),
    );
    let (v1, v8) = (
        duration(Placement::Vertical, 1),
        duration(Placement::Vertical, 8),
    );
    report.line("shape checks vs. the paper:");
    report.line(format!(
        "  horizontal completion time grows with clients: 1c {h1:.2}s -> 8c {h8:.2}s ({:.1}x slower per op; paper: 'time to complete increases significantly')",
        (h8 / 8.0) / h1
    ));
    report.line(format!(
        "  vertical per-client completion shrinks with clients: 1c {v1:.2}s -> 8c {v8:.2}s ({:.2}x; paper: 'shorter for larger number of clients')",
        (v8 / 8.0) / v1
    ));
    let v1_fill = &result.cell(Placement::Vertical, 1).fill;
    report.line(format!(
        "  vertical 1 client: peak {:.0} kops vs mean {:.0} kops (paper: 'a peak of throughput for a single thread even though the average is the lowest')",
        v1_fill.series.peak_rate() / 1000.0,
        v1_fill.kops_per_sec
    ));
}
