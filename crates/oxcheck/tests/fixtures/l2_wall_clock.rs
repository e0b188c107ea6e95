// L2 `wall_clock` shapes. `tests/golden.rs` feeds this file in under figure
// harness paths (lines 5, 8 and 9 FLAGGED) and under the two exempt paths
// (clean): keep the three reads on those lines.

use std::time::Instant; // FLAGGED: the import

pub fn wall_ns_per_op(ops: u64) -> u64 {
    let start = Instant::now(); // FLAGGED: the read
    let _epoch = std::time::SystemTime::UNIX_EPOCH; // FLAGGED
    start.elapsed().as_nanos() as u64 / ops.max(1)
}

pub fn virtual_ns(t: ox_sim::SimTime) -> u64 {
    t.as_nanos() // CLEAN: virtual time
}
