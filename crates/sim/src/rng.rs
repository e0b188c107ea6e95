//! Deterministic, splittable pseudo-random number generation.
//!
//! The simulator needs reproducible randomness that is stable across platforms
//! and library versions, so we implement xoshiro256++ (public domain, Blackman
//! & Vigna) seeded through SplitMix64 rather than relying on an external RNG's
//! stream layout. `split` derives an independent child stream, which lets each
//! actor own a generator without coordinating draws.

/// A small, fast, splittable PRNG (xoshiro256++).
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Prng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator, keyed by `stream`.
    ///
    /// Children with different `stream` values (or from different parents)
    /// produce statistically independent sequences.
    pub fn split(&self, stream: u64) -> Prng {
        let mut sm = self.s[0] ^ self.s[2] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Prng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift rejection.
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.gen_range(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Fills a byte buffer with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let parent = Prng::seed_from_u64(7);
        let mut c1 = parent.split(0);
        let mut c2 = parent.split(1);
        let mut c1_again = parent.split(0);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = Prng::seed_from_u64(3);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = Prng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = Prng::seed_from_u64(5);
        for _ in 0..500 {
            let v = r.gen_range_in(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic]
    fn gen_range_zero_panics() {
        Prng::seed_from_u64(0).gen_range(0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = Prng::seed_from_u64(6);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Prng::seed_from_u64(8);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
        assert!(!Prng::seed_from_u64(1).gen_bool(0.0));
        assert!(Prng::seed_from_u64(1).gen_bool(1.1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut r = Prng::seed_from_u64(10);
        for len in 0..40 {
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} left all zero");
            }
        }
    }
}
