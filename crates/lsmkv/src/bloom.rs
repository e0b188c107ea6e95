//! Bloom filter over table keys (double hashing, à la LevelDB/RocksDB).

use ox_core::codec::{Decoder, Encoder};

#[inline]
fn hash64(data: &[u8], seed: u64) -> u64 {
    // FNV-1a with a seed fold and an avalanche finisher — fast, decent
    // dispersion, stable across platforms.
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// The two hashes a key's probe positions are derived from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyHash(u64, u64);

/// A bloom filter sized at build time for an expected key count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    k: u32,
}

impl BloomFilter {
    /// Builds an empty filter for `n` expected keys at `bits_per_key`
    /// (RocksDB's default is 10, ~1 % false positives).
    pub fn new(n: usize, bits_per_key: u32) -> Self {
        let num_bits = ((n.max(1) as u64) * bits_per_key as u64).max(64);
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits,
            k,
        }
    }

    /// What a key comes to in any filter, whatever its size.
    pub(crate) fn hash(key: &[u8]) -> KeyHash {
        KeyHash(hash64(key, 0x5155), hash64(key, 0xABCD) | 1)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hash(Self::hash(key));
    }

    /// Inserts a key hashed earlier: a table builder learns how many keys
    /// the filter is for only after it has seen the last of them.
    pub(crate) fn insert_hash(&mut self, KeyHash(h1, h2): KeyHash) {
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Whether the key may be present (no false negatives).
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        let KeyHash(h1, h2) = Self::hash(key);
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serializes the filter.
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.num_bits);
        e.u32(self.k);
        e.u32(self.bits.len() as u32);
        for w in &self.bits {
            e.u64(*w);
        }
    }

    /// Deserializes a filter.
    pub fn decode(d: &mut Decoder<'_>) -> Option<BloomFilter> {
        let num_bits = d.u64().ok()?;
        let k = d.u32().ok()?;
        let words = d.u32().ok()? as usize;
        if num_bits == 0 || k == 0 || words != (num_bits.div_ceil(64)) as usize || words > 1 << 26 {
            return None;
        }
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(d.u64().ok()?);
        }
        Some(BloomFilter { bits, num_bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("{i:016}").into_bytes()
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(10_000, 10);
        for i in 0..10_000 {
            f.insert(&key(i));
        }
        for i in 0..10_000 {
            assert!(f.maybe_contains(&key(i)), "key {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_one_percent() {
        let mut f = BloomFilter::new(10_000, 10);
        for i in 0..10_000 {
            f.insert(&key(i));
        }
        let fps = (10_000..110_000)
            .filter(|&i| f.maybe_contains(&key(i)))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "false-positive rate {rate}");
        assert!(rate > 0.0001, "suspiciously perfect filter");
    }

    #[test]
    fn fewer_bits_more_false_positives() {
        let build = |bpk| {
            let mut f = BloomFilter::new(2_000, bpk);
            for i in 0..2_000 {
                f.insert(&key(i));
            }
            (2_000..22_000)
                .filter(|&i| f.maybe_contains(&key(i)))
                .count()
        };
        assert!(build(4) > build(12));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut f = BloomFilter::new(500, 10);
        for i in 0..500 {
            f.insert(&key(i));
        }
        let mut e = Encoder::new();
        f.encode(&mut e);
        let buf = e.finish();
        let back = BloomFilter::decode(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(back, f);
        assert!(BloomFilter::decode(&mut Decoder::new(&buf[..8])).is_none());
    }

    #[test]
    fn empty_filter_rejects() {
        let f = BloomFilter::new(100, 10);
        let hits = (0..1000).filter(|&i| f.maybe_contains(&key(i))).count();
        assert_eq!(hits, 0);
    }
}
