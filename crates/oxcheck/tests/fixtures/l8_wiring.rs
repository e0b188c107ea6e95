// L8 `post_construction_wiring` shapes. Line numbers are asserted by
// `tests/golden.rs`: keep the three FLAGGED items on lines 7, 8 and 9.

pub struct Layer;

impl Layer {
    pub fn set_obs(&mut self) {} // FLAGGED
    pub fn set_gc_io_media(&self) {} // FLAGGED
    pub fn recover_with_obs() {} // FLAGGED
    pub fn set_fault_plan(&self) {} // CLEAN: a runtime control, not wiring
    pub fn obs(&self) {} // CLEAN: a getter
    fn set_obs_inner(&self) {} // CLEAN: not the hook's name
    pub(crate) fn set_gc_mode(&self) {} // CLEAN: neither public nor a hook
    // oxcheck:allow(post_construction_wiring): fixture for the pragma
    pub fn set_read_media(&self) {} // EXEMPT by pragma
}

#[cfg(test)]
mod tests {
    pub fn set_obs() {} // EXEMPT: test scope
}
