//! Binary codec utilities for on-media formats.
//!
//! All persistent structures (WAL frames, checkpoint snapshots, SSTable
//! table metadata in `lsmkv`) use explicit little-endian encoding with
//! CRC32C integrity — no serde on the data path, as in production storage
//! engines.

/// CRC-32C (Castagnoli), the checksum used by most storage engines.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_extend(!0u32, data) ^ !0u32
}

/// The Castagnoli polynomial, bit-reflected.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables, built at compile time. `TABLES[0][b]` is the raw
/// state after byte `b` alone; `TABLES[k][b]` after `b` and `k` zero bytes,
/// which is what byte `b` of an 8-byte word contributes once the `k` bytes
/// behind it have gone through the register.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut state = b as u32;
        let mut bit = 0;
        while bit < 8 {
            state = (state >> 1) ^ (POLY & (state & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = state;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Extends a raw (pre-finalization) CRC-32C state over more data: eight
/// bytes per step through [`TABLES`], the last `len % 8` one at a time.
fn crc32c_extend(mut state: u32, mut data: &[u8]) -> u32 {
    while let Some((word, rest)) = data.split_first_chunk::<8>() {
        let w = (u64::from_le_bytes(*word) ^ u64::from(state)).to_le_bytes();
        state = TABLES[7][w[0] as usize]
            ^ TABLES[6][w[1] as usize]
            ^ TABLES[5][w[2] as usize]
            ^ TABLES[4][w[3] as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
        data = rest;
    }
    for &byte in data {
        state = (state >> 8) ^ TABLES[0][(state as u8 ^ byte) as usize];
    }
    state
}

/// Little-endian append-only encoder.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed byte string (u32 length).
    pub fn var_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.bytes(v)
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// `header` followed by `body`, in a buffer of its own that the device keeps
/// when it is written through [`crate::Media::write_parts`]: the one copy of
/// `body` a frame costs. Zero-extended to the write unit, the padding holds
/// no bytes and is never scanned.
pub(crate) fn framed(header: &Encoder, body: &[u8]) -> ocssd::Payload {
    let mut frame = ocssd::PayloadBuf::zeroed(header.len() + body.len());
    let (head, tail) = frame.bytes_mut().split_at_mut(header.len());
    head.copy_from_slice(header.as_slice());
    tail.copy_from_slice(body);
    frame.freeze()
}

/// Decode error: ran out of bytes or structural mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian cursor decoder.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.data.len() {
            return Err(DecodeError("unexpected end of input"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?
            .try_into()
            .map_err(|_| DecodeError("unexpected end of input"))
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn var_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::matrix_seeds;
    use ox_sim::Prng;

    /// The definition the tables are derived from, one bit at a time: the
    /// oracle for [`crc32c_extend`].
    fn crc32c_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= byte as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        state
    }

    fn random_bytes(rng: &mut Prng, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn sliced_crc_matches_the_bit_loop_at_every_short_length_and_alignment() {
        for seed in matrix_seeds(2) {
            let mut rng = Prng::seed_from_u64(seed ^ 0xC4C);
            let buf = random_bytes(&mut rng, 8 + 257);
            let state = rng.next_u32();
            for start in 0..8 {
                for len in 0..=257 {
                    let data = &buf[start..start + len];
                    assert_eq!(
                        crc32c_extend(state, data),
                        crc32c_bitwise(state, data),
                        "seed {seed}: {len} bytes from offset {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_crc_matches_the_bit_loop_on_long_buffers_and_across_splits() {
        for seed in matrix_seeds(6) {
            let mut rng = Prng::seed_from_u64(seed ^ 0x51CE);
            let len = rng.gen_range(128 * 1024 + 1) as usize;
            let data = random_bytes(&mut rng, len);
            let state = rng.next_u32();
            let want = crc32c_bitwise(state, &data);
            assert_eq!(crc32c_extend(state, &data), want, "seed {seed}: {len} B");
            for _ in 0..16 {
                let (a, b) = data.split_at(rng.gen_range(len as u64 + 1) as usize);
                assert_eq!(
                    crc32c_extend(crc32c_extend(state, a), b),
                    want,
                    "seed {seed}: {len} B split at {}",
                    a.len()
                );
            }
        }
    }

    #[test]
    fn bit_flips_and_bursts_up_to_32_bits_in_a_4k_frame_change_the_crc() {
        // A CRC-32 detects every error burst no longer than its width. At
        // each bit of the frame: the single-bit flip, and one seeded burst
        // of 2..=32 bits (first and last bit set, anything in between).
        let seed = matrix_seeds(1).start;
        let mut rng = Prng::seed_from_u64(seed ^ 0xB0457);
        let frame = random_bytes(&mut rng, 4096);
        let clean = crc32c(&frame);
        let bits = frame.len() * 8;
        let mut bad = frame.clone();
        for first in 0..bits {
            let burst = 2 + rng.gen_range(31) as usize;
            for width in [1, burst.min(bits - first)] {
                let pattern = rng.next_u64() & ((1 << width) - 1) | 1 | 1 << (width - 1);
                let (byte, shift) = (first / 8, first % 8);
                let touched = byte..byte + (shift + width).div_ceil(8);
                for (b, e) in bad[touched.clone()]
                    .iter_mut()
                    .zip((pattern << shift).to_le_bytes())
                {
                    *b ^= e;
                }
                assert_ne!(
                    crc32c(&bad),
                    clean,
                    "seed {seed}: {width}-bit burst at bit {first}"
                );
                bad[touched.clone()].copy_from_slice(&frame[touched]);
            }
        }
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc_detects_corruption() {
        let data = b"hello world".to_vec();
        let c = crc32c(&data);
        let mut corrupted = data.clone();
        corrupted[3] ^= 0x01;
        assert_ne!(crc32c(&corrupted), c);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut e = Encoder::new();
        e.u8(7).u16(300).u32(70_000).u64(1 << 40).var_bytes(b"abc");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.var_bytes().unwrap(), b"abc");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn decoder_reports_truncation() {
        let buf = [1u8, 2];
        let mut d = Decoder::new(&buf);
        assert!(d.u32().is_err());
        // Failed take does not consume.
        assert_eq!(d.u16().unwrap(), 0x0201);
    }

    #[test]
    fn var_bytes_guards_length() {
        let mut e = Encoder::new();
        e.u32(1000); // claims 1000 bytes, provides none
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert!(d.var_bytes().is_err());
    }

    #[test]
    fn encoder_capacity_and_empty() {
        let e = Encoder::with_capacity(64);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let mut e = e;
        e.bytes(b"xy");
        assert_eq!(e.as_slice(), b"xy");
        assert_eq!(e.len(), 2);
    }
}
