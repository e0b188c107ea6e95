// L9 `private_replay` shapes. Line numbers are asserted by
// `tests/golden.rs`: keep the four FLAGGED items on lines 5, 8, 9 and 10.

use ox_core::checkpoint::CheckpointStore;
use ox_core::wal::scan as scan_log; // FLAGGED: importing it is using it

pub fn open(media: &Media, layout: &Layout, store: &mut CheckpointStore) {
    let (frames, _, _) = ox_core::wal::scan(media, &layout.wal_chunks, now); // FLAGGED
    let (snapshot, _) = store.read_latest(now); // FLAGGED
    let _ = CheckpointStore::read_latest(store, now); // FLAGGED
    let replay = Journal::replay(media, layout, now); // CLEAN: the shared replay
    let hits = index.scan(range); // CLEAN: some other scan
    let wal_scan = scan(frames); // CLEAN: not the log scan's path
    // oxcheck:allow(private_replay): fixture for the pragma
    let _ = wal::scan(media, &layout.wal_chunks, now); // EXEMPT by pragma
}

pub fn read_latest() {} // CLEAN: a definition, not a call

#[cfg(test)]
mod tests {
    fn frames() {
        let _ = wal::scan(media, chunks, now); // EXEMPT: test scope
    }
}
