//! Regenerates Figure 5: db_bench average throughput (kops/s) for
//! fill-sequential, read-sequential and read-random under horizontal vs.
//! vertical SSTable placement, with 1/2/4/8 clients.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig5_throughput [--quick]`
//! Env: `OX_BACKEND=oxblock|oxztl` picks the media under LightLSM.

use lightlsm::Placement;
use ox_bench::backend::{BenchBackend, MEDIA_BACKENDS};
use ox_bench::fig5::{run, Fig5Config};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let selected = BenchBackend::from_env(&MEDIA_BACKENDS);
    let backend = selected.unwrap_or(BenchBackend::OxBlock);
    let cfg = if quick_mode() {
        Fig5Config::quick()
    } else {
        Fig5Config::full()
    };
    let mut report = Report::new("fig5_throughput", selected);
    report.line("Figure 5 — db_bench throughput over LightLSM (16 B keys, 1 KB values, no compression/caching)");
    report.line(format!(
        "device: paper TLC scaled (192 KB chunks, 6 MB full-width SSTables); backend: {}; fill {} MB/client\n",
        backend.label(),
        cfg.fill_bytes_per_client / (1024 * 1024)
    ));
    let obs = figure_obs();
    let result = run(&cfg, backend, &obs);

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
            for &n in &cfg.client_counts {
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
    report.finish(&obs);
}
