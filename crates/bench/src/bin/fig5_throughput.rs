//! Regenerates Figure 5: db_bench average throughput (kops/s) for
//! fill-sequential, read-sequential and read-random under horizontal vs.
//! vertical SSTable placement, with 1/2/4/8 clients.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig5_throughput [--quick]`

use lightlsm::Placement;
use ox_bench::backend::BenchBackend;
use ox_bench::fig5::{run, Fig5Config};
use ox_bench::{export_obs, figure_obs, print_row, print_sep, quick_mode};

fn main() {
    let cfg = if quick_mode() {
        Fig5Config::quick()
    } else {
        Fig5Config::full()
    };
    let backend = BenchBackend::from_env();
    println!("Figure 5 — db_bench throughput over LightLSM (16 B keys, 1 KB values, no compression/caching)");
    println!(
        "device: paper TLC scaled (192 KB chunks, 6 MB full-width SSTables); backend: {}; fill {} MB/client\n",
        backend.label(),
        cfg.fill_bytes_per_client / (1024 * 1024)
    );
    let obs = figure_obs();
    let result = run(&cfg, &obs);

    let widths = [22usize, 10, 10, 10, 10];
    print_row(
        &[
            "workload / placement".into(),
            "1 client".into(),
            "2 clients".into(),
            "4 clients".into(),
            "8 clients".into(),
        ],
        &widths,
    );
    print_sep(&widths);
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
            print_row(&cells, &widths);
        }
        print_sep(&widths);
    }
    println!("(all numbers: thousands of operations per virtual second)\n");

    let h1 = result.cell(Placement::Horizontal, 1).fill.kops_per_sec;
    let v1 = result.cell(Placement::Vertical, 1).fill.kops_per_sec;
    let h2 = result.cell(Placement::Horizontal, 2).fill.kops_per_sec;
    let h8 = result.cell(Placement::Horizontal, 8).fill.kops_per_sec;
    let v8 = result.cell(Placement::Vertical, 8).fill.kops_per_sec;
    println!("shape checks vs. the paper:");
    println!(
        "  fill 1 client: horizontal/vertical = {:.1}x (paper ~4x)",
        h1 / v1
    );
    println!(
        "  fill horizontal 8 vs best(1,2) clients: {:.0}% (paper: degrades ~60%)",
        h8 / h1.max(h2) * 100.0
    );
    println!(
        "  fill 8 clients: vertical/horizontal = {:.1}x (paper ~2x)",
        v8 / h8
    );
    let rs1 = result.cell(Placement::Horizontal, 1).read_seq.kops_per_sec;
    let rr1 = result
        .cell(Placement::Horizontal, 1)
        .read_random
        .kops_per_sec;
    println!(
        "  read-seq / read-random (1 client, horizontal): {:.1}x (paper ~13x)",
        rs1 / rr1
    );
    println!(
        "  writes >> reads: fill {:.1} kops vs read-seq {:.1} kops (1 client)",
        h1, rs1
    );
    export_obs(&backend.artifact("fig5_throughput"), &obs);
}
