//! OX-ELEOS: log-structured storage on the controller, and why data copies
//! saturate it (the mechanism behind Figure 7).
//!
//! Run with: `cargo run --release --example eleos_log`

use ox_workbench::ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_eleos::{EleosConfig, EleosFtl, LogAddr, COPY_BANDWIDTH, CORES};
use ox_workbench::ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

fn main() {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let cfg = EleosConfig::default();
    let buffer_bytes = cfg.buffer_bytes;
    let (mut ftl, t0) = EleosFtl::format(media, cfg, SimTime::ZERO).expect("format");
    println!(
        "OX-ELEOS: LSS I/O buffers of {:.2} MB, page reads, byte-addressable log\n",
        buffer_bytes as f64 / (1024.0 * 1024.0)
    );

    // Append a few buffers.
    let buffer: Vec<u8> = (0..buffer_bytes).map(|i| (i / 4096) as u8).collect();
    let mut t = t0;
    let mut first = LogAddr(0);
    for i in 0..4 {
        let (addr, done) = ftl.append_buffer(t, &buffer).expect("append");
        if i == 0 {
            first = addr;
        }
        println!(
            "append buffer {i}: log address {:>10}, completed in {:>9} (2 copies on the controller + flash)",
            addr.0,
            done.saturating_since(t)
        );
        t = done;
    }

    // Byte-granularity reads: mapping finer than the unit of read.
    let mut hundred = vec![0u8; 100];
    let off = 4096 - 50; // straddles a page boundary
    let done = ftl
        .read(
            t + SimDuration::from_secs(1),
            LogAddr(first.0 + off),
            &mut hundred,
        )
        .expect("read");
    println!(
        "\nread 100 bytes at log offset {off}: {} — two full 4 KB sectors from media",
        done.saturating_since(t + SimDuration::from_secs(1))
    );
    println!(
        "read amplification so far: {:.0}× (the §4.2 sub-read-unit mapping cost)",
        ftl.read_amplification()
    );

    // Copyless reclamation.
    let live_before = ftl.live_bytes();
    let t2 = ftl
        .trim_until(done, LogAddr(2 * buffer_bytes as u64))
        .expect("trim");
    println!(
        "\ntrimmed the first two buffers: {} MB -> {} MB live, in {} (chunk erases only, no copies)",
        live_before / (1024 * 1024),
        ftl.live_bytes() / (1024 * 1024),
        t2.saturating_since(done)
    );

    // The controller CPU is the scarce resource.
    println!(
        "\ncontroller after {} buffers: {} commands, {:.0} MB copied",
        ftl.stats().user_writes.ops(),
        ftl.cpu().commands(),
        ftl.cpu().bytes_copied() as f64 / (1024.0 * 1024.0),
    );
    println!(
        "copy model: {} cores × {:.2} GB/s; one {:.1} MB buffer costs {} of CPU — two sustained \
         writers saturate the pool (Figure 7)",
        CORES,
        COPY_BANDWIDTH as f64 / 1e9,
        buffer_bytes as f64 / (1024.0 * 1024.0),
        ftl.cpu().write_service_time(buffer_bytes as u64),
    );
}
