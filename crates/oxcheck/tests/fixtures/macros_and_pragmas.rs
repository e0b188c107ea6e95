//! Macro bodies are exempt (they expand at use sites, often into test
//! code), and `oxcheck:allow` pragmas suppress with a recorded reason.

macro_rules! registry_debug {
    () => {
        // A `pub fn` nothing names, inside a macro body: EXEMPT.
        pub fn dump_all(&self) -> usize {
            0
        }
    };
}

pub struct Registry;

impl Registry {
    // oxcheck:allow(unreferenced_pub): fixture for the pragma
    pub fn debug_dump(&self) -> Vec<String> {
        Vec::new()
    }
}
