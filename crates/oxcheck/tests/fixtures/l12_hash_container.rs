// L12 `hash_container` shapes. `tests/golden.rs` feeds this file in under
// in-scope paths (lines 6, 7, 10 and 14 FLAGGED) and out-of-scope ones
// (clean): keep the FLAGGED items on those lines.

use std::collections::BTreeMap; // CLEAN: an ordered container
use std::collections::HashMap; // FLAGGED: a `use` line
use std::collections::{BTreeSet, HashSet}; // FLAGGED: a grouped use

pub struct Index {
    live: HashMap<u64, u32>, // FLAGGED: a field
    order: BTreeMap<u64, BTreeSet<u32>>, // CLEAN
}

pub fn seen() -> std::collections::HashSet<u32> { // FLAGGED: fully qualified
    Default::default()
}

pub fn describe() -> &'static str {
    "HashMap" // CLEAN: a string, not an identifier
}

// oxcheck:allow(hash_container): fixture for the pragma
pub type Lookup = HashSet<u64>; // EXEMPT by the pragma above

#[cfg(test)]
mod tests {
    use std::collections::HashMap; // EXEMPT: test scope
    fn model() -> HashMap<u64, u64> {
        HashMap::new()
    }
}
