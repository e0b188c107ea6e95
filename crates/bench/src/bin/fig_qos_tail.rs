//! §4.3 isolation as a latency distribution: per-tenant read p50/p99/p999
//! through the multi-queue I/O scheduler, with and without a competing
//! sequential writer + group-local GC relocation.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_qos_tail [--quick]`

use ox_bench::backend::BenchBackend;
use ox_bench::qos_tail::{run, PhaseResult};
use ox_bench::{export_bench_json, export_obs, figure_obs, print_row, print_sep, quick_mode};
use ox_sim::SimDuration;

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

fn phase_json(phase: &PhaseResult) -> String {
    let neighbor = phase.neighbor();
    let victim = phase.victim();
    format!(
        concat!(
            "{{\"contended\": {}, \"gc_dispatched\": {}, ",
            "\"neighbor\": {{\"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}, ",
            "\"victim\": {{\"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}}}"
        ),
        phase.contended,
        phase.gc_dispatched,
        neighbor.samples,
        neighbor.p50_ns,
        neighbor.p99_ns,
        neighbor.p999_ns,
        victim.samples,
        victim.p50_ns,
        victim.p99_ns,
        victim.p999_ns,
    )
}

fn main() {
    let duration = if quick_mode() {
        SimDuration::from_millis(150)
    } else {
        SimDuration::from_millis(1500)
    };
    let backend = BenchBackend::from_env();
    println!(
        "§4.3 — multi-tenant QoS tail (iosched over the paper drive, closed-loop tenants; backend: {})\n",
        backend.label()
    );
    let obs = figure_obs();
    let wall_start = std::time::Instant::now();
    let result = run(duration, &obs);
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let widths = [24usize, 14, 9, 10, 10, 10];
    print_row(
        &[
            "phase".into(),
            "tenant".into(),
            "samples".into(),
            "p50 (µs)".into(),
            "p99 (µs)".into(),
            "p999 (µs)".into(),
        ],
        &widths,
    );
    print_sep(&widths);
    for phase in &result.phases {
        for row in &phase.rows {
            print_row(
                &[
                    phase.name.to_string(),
                    row.name.to_string(),
                    row.samples.to_string(),
                    us(row.p50_ns),
                    us(row.p99_ns),
                    us(row.p999_ns),
                ],
                &widths,
            );
        }
        if phase.contended {
            println!("  ({} GC-class dispatches)", phase.gc_dispatched);
        }
    }

    let baseline = result.phases[0].neighbor().p99_ns;
    let fifo = result.phases[1].neighbor().p99_ns;
    let deadline = result.phases[2].neighbor().p99_ns;
    println!(
        "\nnon-GC-group reader p99: baseline {} µs | fifo+GC {} µs ({:.1}×) | deadline+GC {} µs ({:.1}×)",
        us(baseline),
        us(fifo),
        fifo as f64 / baseline as f64,
        us(deadline),
        deadline as f64 / baseline as f64,
    );
    println!(
        "(the paper's §4.3 isolation claim as a tail: deadline arbitration + the GC class keep"
    );
    println!(
        " the reader outside the marked group within 2× of its uncontended tail; the class-blind"
    );
    println!(" QD-1 FIFO baseline drags it through program times and relocation copies)");

    let total_samples: usize = result
        .phases
        .iter()
        .flat_map(|p| p.rows.iter().map(|r| r.samples))
        .sum();
    let phase_objects: Vec<String> = result
        .phases
        .iter()
        .map(|p| format!("\"{}\": {}", p.name, phase_json(p)))
        .collect();
    export_bench_json(
        &backend.artifact("qos"),
        &format!(
            concat!(
                "{{\"virtual_duration_ns\": {}, \"neighbor_p99_slowdown_fifo\": {:.2}, ",
                "\"neighbor_p99_slowdown_deadline\": {:.2}, \"wall_ns_per_op\": {}, {}}}\n"
            ),
            duration.as_nanos(),
            fifo as f64 / baseline as f64,
            deadline as f64 / baseline as f64,
            wall_ns / total_samples.max(1) as u64,
            phase_objects.join(", ")
        ),
    );
    export_obs(&backend.artifact("fig_qos_tail"), &obs);
}
