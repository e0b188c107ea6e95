// L11 `unreferenced_pub` shapes. Line numbers are asserted by
// `tests/golden.rs`: keep the three FLAGGED items on lines 7, 8 and 9.

pub struct Table;

impl Table {
    pub fn dead_areas(&self) -> usize { 0 } // FLAGGED: nobody names it
    pub fn head_addr(&self) -> u64 { self.tail() } // FLAGGED: only its own test does
    pub const fn byte_size() -> usize { 16 } // FLAGGED: `const` is still public
    pub fn tail(&self) -> u64 { 0 } // CLEAN: called above, in this file
    pub fn free_chunks(&self) -> u32 { 0 } // CLEAN: another file calls it
    pub fn read_vector(&self) {} // CLEAN: another file's test is harness use
    pub(crate) fn private_view(&self) {} // CLEAN: not public; rustc's dead_code covers it
    fn helper(&self) {} // CLEAN: not public
    // oxcheck:allow(unreferenced_pub): fixture for the pragma
    pub fn fence_shard(&self) {} // EXEMPT by pragma
}

#[cfg(test)]
mod tests {
    pub fn test_only_helper() {} // EXEMPT: test scope
    fn uses() {
        let _ = Table.head_addr();
    }
}
