// L10 `private_placement` shapes. Line numbers are asserted by
// `tests/golden.rs`: keep the four FLAGGED items on lines 6, 9, 15 and 18.

pub fn append(&mut self, now: SimTime, unit: &[u8]) -> Result<SimTime, Error> {
    loop {
        let slot = self.prov.allocate_horizontal().ok_or(Error::OutOfSpace)?; // FLAGGED
        match self.media.write(now, slot.chunk.ppa(slot.sector), unit) {
            Ok(comp) => return Ok(comp.done),
            Err(DeviceError::MediaFailure(_) | DeviceError::InvalidChunkState { .. }) => { // FLAGGED
                self.prov.mark_offline(slot.chunk);
            }
            Err(e) if e.retires_chunk() => {} // CLEAN: the shared predicate
            Err(e) => return Err(e.into()),
        }
        let near = self.prov.allocate_in_group(victim.group); // FLAGGED
        let placed = self.space.place(program, on_failover)?; // CLEAN: the shared path
    }
    if matches!(e, DeviceError::InvalidChunkState { chunk, .. }) {} // FLAGGED
    let e = DeviceError::InvalidChunkState { chunk, state }; // CLEAN: constructs the error
    // oxcheck:allow(private_placement): fixture for the pragma
    let slot = prov.allocate_horizontal(); // EXEMPT by pragma
}

pub fn allocate_horizontal(&mut self) {} // CLEAN: a definition, not a call

#[cfg(test)]
mod tests {
    fn fill() {
        let _ = prov.allocate_in_group(0); // EXEMPT: test scope
    }
}
