//! The load generator: everything the stacks are fed is made here, from the
//! run seed alone. The program under test never sees the seed, the PRNG or
//! the distributions — only keys, values and op kinds.
//!
//! * [`Rng`] — splitmix64-seeded xoshiro256**; `split` derives independent
//!   per-client streams so a client's op sequence does not depend on how the
//!   virtual-time scheduler interleaves it with the others.
//! * [`Zipf`] — Gray's zipfian generator (θ = 0.99, the YCSB default) with
//!   ranks scrambled through a splitmix finalizer so the hot set is spread
//!   over the key space.
//! * [`key`] / [`fill_value`] — 16-byte keys whose order is a seeded hash of
//!   the id (consecutive ids land far apart in key order) and full-length
//!   pseudo-random values. The values matter: `ocssd`'s payload store trims
//!   zero tails, so zero-padded values would leave the copy path idle.

/// Zipfian skew used by every skewed workload.
pub const THETA: f64 = 0.99;

/// splitmix64 step: also the finalizer used for scrambling and key hashing.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** seeded through splitmix64.
#[derive(Clone, Debug)]
pub struct Rng([u64; 4]);

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Rng {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(s)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for sub-generator `stream` of this seed.
    pub fn split(&self, stream: u64) -> Rng {
        Rng::new(mix64(self.0[0] ^ mix64(stream.wrapping_add(1))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2⁻⁴⁰ for our ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n.max(1) as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Gray's zipfian generator over `items` ranks; rank 0 is the hottest.
#[derive(Clone, Debug)]
pub struct Zipf {
    items: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
}

impl Zipf {
    /// A generator over `items` ranks with skew `theta`.
    pub fn new(items: u64, theta: f64) -> Zipf {
        let items = items.max(2);
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(items);
        Zipf {
            items,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            half_pow: 0.5f64.powf(theta),
        }
    }

    /// Draws a rank in `[0, items)`.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow {
            return 1;
        }
        let r = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.items - 1)
    }

    /// Draws a key id: the rank scrambled over `[0, items)`.
    pub fn id(&self, rng: &mut Rng) -> u64 {
        mix64(self.rank(rng)) % self.items
    }
}

/// Key length in bytes.
pub const KEY_BYTES: usize = 16;

/// The 16-byte key of record `id` under run seed `seed`: a seeded hash of
/// the id (so key order is a different shuffle of id order for every seed,
/// and with it which tables a flush or compaction overlaps) followed by the
/// id itself (so the id is recoverable and keys never collide).
pub fn key(seed: u64, id: u64) -> [u8; KEY_BYTES] {
    let mut k = [0u8; KEY_BYTES];
    k[..8].copy_from_slice(&mix64(id ^ mix64(seed)).to_be_bytes());
    k[8..].copy_from_slice(&id.to_be_bytes());
    k
}

/// The id embedded in a key made by [`key`].
pub fn key_id(key: &[u8]) -> Option<u64> {
    let raw: [u8; 8] = key.get(8..16)?.try_into().ok()?;
    Some(u64::from_be_bytes(raw))
}

/// Bytes of a value that carry its identity (id + version).
pub const VALUE_HEADER: usize = 16;

/// Fills `buf` with the value of record `id` at version `ver` under run seed
/// `seed`: a 16-byte identity header, then a pseudo-random payload that is a
/// function of (seed, id, ver) — no zero tail for the payload store to trim.
pub fn fill_value(seed: u64, id: u64, ver: u64, buf: &mut [u8]) {
    assert!(buf.len() >= VALUE_HEADER, "value shorter than its header");
    buf[..8].copy_from_slice(&id.to_le_bytes());
    buf[8..16].copy_from_slice(&ver.to_le_bytes());
    // Counter mode: word i is a hash of (base + i·φ). The words are
    // independent of each other, so the multiplies pipeline and payload
    // generation stays a small, flat share of the driver's host time.
    let base = mix64(seed ^ mix64(id) ^ mix64(ver).rotate_left(32));
    let word = |i: usize| {
        let z = base.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ((z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1).to_le_bytes()
    };
    let mut words = buf[VALUE_HEADER..].chunks_exact_mut(8);
    let mut n = 0;
    for chunk in words.by_ref() {
        chunk.copy_from_slice(&word(n));
        n += 1;
    }
    let rest = words.into_remainder();
    rest.copy_from_slice(&word(n)[..rest.len()]);
}

/// What a client asks of the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Get,
    /// Blind write of the next version.
    Put,
    /// Read, then write the next version.
    Rmw,
    /// Ordered scan of up to `len` entries starting at the key.
    Scan,
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// Which record.
    pub id: u64,
    /// Scan length (scans only).
    pub len: u32,
}

/// The op mix a client draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Insert ids `client, client + clients, …` in order (keys are hashed,
    /// so each client's inserts are a shuffle of a disjoint key set).
    Fill,
    /// Uniform random gets over all records.
    UniformGet,
    /// Zipfian keys; of every 40 ops 20 are read-modify-writes, 19 gets and
    /// one (5 % of the gets) a scan of 1..=16 entries.
    ZipfMixed,
    /// Zipfian keys; puts and gets alternate (50 % / 50 %).
    ZipfUpdate,
    /// Zipfian puts only (warm-up).
    ZipfPut,
}

/// Longest scan [`Mix::ZipfMixed`] issues.
pub const MAX_SCAN: u32 = 16;
/// Ops per repetition of [`Mix::ZipfMixed`]'s kind pattern.
const MIXED_PERIOD: u64 = 40;

/// One client's op stream.
#[derive(Clone, Debug)]
pub struct OpStream {
    mix: Mix,
    rng: Rng,
    records: u64,
    next_fill: u64,
    stride: u64,
    issued: u64,
    scans: u64,
}

impl OpStream {
    /// The stream of client `client` of `clients` under `seed`.
    pub fn new(mix: Mix, seed: u64, client: u64, clients: u64, records: u64) -> OpStream {
        OpStream {
            mix,
            rng: Rng::new(seed).split(client),
            records,
            next_fill: client,
            stride: clients,
            // Clients start at different points of the kind pattern.
            issued: client * 7,
            scans: client,
        }
    }

    /// The next op. `zipf` must cover `records` ranks (unused by the
    /// unskewed mixes).
    pub fn next(&mut self, zipf: &Zipf) -> Op {
        match self.mix {
            Mix::Fill => {
                let id = self.next_fill % self.records;
                self.next_fill += self.stride;
                Op {
                    kind: OpKind::Put,
                    id,
                    len: 0,
                }
            }
            Mix::UniformGet => Op {
                kind: OpKind::Get,
                id: self.rng.below(self.records),
                len: 0,
            },
            // The skewed mixes fix the *order* of op kinds (a repeating
            // pattern with exactly the stated shares) and draw only the keys:
            // a scan costs some forty gets, so letting the scan count wander
            // binomially would be most of the run-to-run spread.
            Mix::ZipfMixed => {
                let slot = self.issued % MIXED_PERIOD;
                self.issued += 1;
                let id = zipf.id(&mut self.rng);
                if slot == MIXED_PERIOD - 1 {
                    let len = 1 + self.scans * 7 % MAX_SCAN as u64;
                    self.scans += 1;
                    Op {
                        kind: OpKind::Scan,
                        id,
                        len: len as u32,
                    }
                } else {
                    Op {
                        kind: if slot % 2 == 0 {
                            OpKind::Rmw
                        } else {
                            OpKind::Get
                        },
                        id,
                        len: 0,
                    }
                }
            }
            Mix::ZipfPut => Op {
                kind: OpKind::Put,
                id: zipf.id(&mut self.rng),
                len: 0,
            },
            Mix::ZipfUpdate => {
                let slot = self.issued % 2;
                self.issued += 1;
                Op {
                    kind: if slot == 0 { OpKind::Put } else { OpKind::Get },
                    id: zipf.id(&mut self.rng),
                    len: 0,
                }
            }
        }
    }
}
