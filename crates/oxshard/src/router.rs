//! Pluggable keyspace routing: consistent-hash or range sharding over a
//! fixed slot table.
//!
//! Both modes project a key onto one of [`SLOTS`] slots and then map slots
//! to shards through a shared assignment table — hash mode spreads keys by a
//! 64-bit FNV-1a digest, range mode by the key's big-endian 8-byte prefix,
//! so range mode preserves key order across shards (scans touch contiguous
//! slot runs) while hash mode spreads hot key ranges.
//!
//! The slot count is 2520 = lcm(1..=10): it divides evenly by every shard
//! count the workbench sweeps, so a balanced table gives every shard
//! *exactly* `SLOTS / N` slots and consistent-hash movement bounds are exact
//! rather than probabilistic — adding a shard moves exactly
//! `floor(SLOTS / (N+1))` slots, all of them onto the new shard, which keeps
//! key movement within the textbook `ceil(K / N)` bound.

use crate::error::ShardError;

/// Number of routing slots. `lcm(1..=10)`, see the module docs.
pub const SLOTS: usize = 2520;

const IMAGE_MAGIC: u32 = 0x4F58_5348; // "OXSH"
const IMAGE_VERSION: u8 = 1;

/// Keyspace projection mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharding {
    /// Consistent hashing: slot = fnv1a64(key) mod SLOTS.
    Hash,
    /// Range sharding: slot = floor(prefix64(key) * SLOTS / 2^64), where
    /// prefix64 is the first 8 key bytes, big-endian, zero-padded.
    Range,
}

/// 64-bit FNV-1a, the workbench's stock seedless byte hash.
fn fnv1a64(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Big-endian 8-byte prefix of `key`, zero-padded on the right, so the
/// projection preserves lexicographic order for keys up to 8 bytes and
/// prefix order beyond.
fn prefix64(key: &[u8]) -> u64 {
    let mut p = [0u8; 8];
    let n = key.len().min(8);
    p[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(p)
}

/// The routing table: keyspace → slot → shard.
///
/// Shard ids are stable (never reused); the live set shrinks on
/// [`Router::remove_shard`] and grows on [`Router::add_shard`]. The router
/// is host-side configuration state, serialized with [`Router::encode`] —
/// it is *not* stored on the devices it routes to, so it survives device
/// power loss by construction (see `docs/sharding.md`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Router {
    mode: Sharding,
    /// Slot → owning shard id; always `SLOTS` entries.
    assign: Vec<u32>,
    /// Live shard ids, ascending.
    live: Vec<u32>,
    /// Next id handed out by [`Router::add_shard`].
    next_id: u32,
}

impl Router {
    /// A balanced router over shards `0..shards`. Slot runs are contiguous,
    /// so range mode starts with one key range per shard.
    pub fn new(mode: Sharding, shards: u32) -> Result<Router, ShardError> {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        let n = shards as usize;
        let assign = (0..SLOTS).map(|i| (i * n / SLOTS) as u32).collect();
        Ok(Router {
            mode,
            assign,
            live: (0..shards).collect(),
            next_id: shards,
        })
    }

    /// The projection mode.
    pub fn mode(&self) -> Sharding {
        self.mode
    }

    /// Live shard ids, ascending.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// The slot a key projects onto (mode-dependent, assignment-independent).
    pub fn slot_of(&self, key: &[u8]) -> usize {
        match self.mode {
            Sharding::Hash => (fnv1a64(key) % SLOTS as u64) as usize,
            Sharding::Range => ((prefix64(key) as u128 * SLOTS as u128) >> 64) as usize,
        }
    }

    /// Routes a key to its owning shard. Total: every non-empty key maps to
    /// exactly one live shard.
    pub fn route(&self, key: &[u8]) -> Result<u32, ShardError> {
        if key.is_empty() {
            return Err(ShardError::EmptyKey);
        }
        Ok(self.assign[self.slot_of(key)])
    }

    /// Number of slots owned by `shard`.
    pub fn slots_owned(&self, shard: u32) -> usize {
        self.assign.iter().filter(|&&s| s == shard).count()
    }

    /// Adds a shard, granting it exactly `floor(SLOTS / n_new)` slots taken
    /// from the most-loaded current owners (highest slot index first, so
    /// range donors give up the tail of their runs). Returns the new shard
    /// id and the moved slots — every moved slot lands on the new shard, so
    /// key movement is bounded by `ceil(K / n_new)` for balanced keyspaces.
    pub fn add_shard(&mut self) -> (u32, Vec<usize>) {
        let id = self.next_id;
        self.next_id += 1;
        let take = SLOTS / (self.live.len() + 1);
        self.live.push(id);
        let mut moved = Vec::with_capacity(take);
        for _ in 0..take {
            // Donor: most-loaded live shard, lowest id on ties.
            let mut donor = None;
            for &s in &self.live {
                if s == id {
                    continue;
                }
                let count = self.slots_owned(s);
                match donor {
                    Some((_, best)) if best >= count => {}
                    _ => donor = Some((s, count)),
                }
            }
            let Some((donor, _)) = donor else { break };
            if let Some(slot) = (0..SLOTS).rev().find(|&i| self.assign[i] == donor) {
                self.assign[slot] = id;
                moved.push(slot);
            }
        }
        moved.sort_unstable();
        (id, moved)
    }

    /// Removes a live shard, spreading its slots over the least-loaded
    /// survivors (lowest id on ties). Returns the moved slots; only slots
    /// previously owned by `id` move, so key movement is again bounded by
    /// the removed shard's share — `ceil(K / N)` for balanced keyspaces.
    pub fn remove_shard(&mut self, id: u32) -> Result<Vec<usize>, ShardError> {
        let Some(pos) = self.live.iter().position(|&s| s == id) else {
            return Err(ShardError::UnknownShard(id));
        };
        if self.live.len() == 1 {
            return Err(ShardError::LastShard);
        }
        self.live.remove(pos);
        let mut moved = Vec::new();
        for slot in 0..SLOTS {
            if self.assign[slot] != id {
                continue;
            }
            let mut heir = None;
            for &s in &self.live {
                let count = self.slots_owned(s);
                match heir {
                    Some((_, best)) if best <= count => {}
                    _ => heir = Some((s, count)),
                }
            }
            // live is non-empty (checked above), so an heir always exists.
            if let Some((heir, _)) = heir {
                self.assign[slot] = heir;
                moved.push(slot);
            }
        }
        Ok(moved)
    }

    /// Moves up to `max_slots` slots from `from` to `to` (highest indices
    /// first) — the bad-block-driven rebalance primitive. Returns the moved
    /// slots; empty when `from` owns nothing.
    pub fn donate_slots(
        &mut self,
        from: u32,
        to: u32,
        max_slots: usize,
    ) -> Result<Vec<usize>, ShardError> {
        if !self.live.contains(&from) {
            return Err(ShardError::UnknownShard(from));
        }
        if !self.live.contains(&to) {
            return Err(ShardError::UnknownShard(to));
        }
        let mut moved = Vec::new();
        if from == to {
            return Ok(moved);
        }
        for slot in (0..SLOTS).rev() {
            if moved.len() == max_slots {
                break;
            }
            if self.assign[slot] == from {
                self.assign[slot] = to;
                moved.push(slot);
            }
        }
        moved.sort_unstable();
        Ok(moved)
    }

    /// Serializes the routing table (fixed-width little-endian fields; no
    /// external codec).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * (self.live.len() + SLOTS));
        out.extend_from_slice(&IMAGE_MAGIC.to_le_bytes());
        out.push(IMAGE_VERSION);
        out.push(match self.mode {
            Sharding::Hash => 0,
            Sharding::Range => 1,
        });
        out.extend_from_slice(&self.next_id.to_le_bytes());
        out.extend_from_slice(&(self.live.len() as u32).to_le_bytes());
        for &s in &self.live {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&(SLOTS as u32).to_le_bytes());
        for &s in &self.assign {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Decodes and validates a serialized routing table. Round-trips
    /// exactly: `decode(encode(r)) == r`.
    pub fn decode(buf: &[u8]) -> Result<Router, ShardError> {
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<&[u8], ShardError> {
            let end = at
                .checked_add(n)
                .ok_or(ShardError::BadRouterImage("overflow"))?;
            let s = buf
                .get(at..end)
                .ok_or(ShardError::BadRouterImage("truncated"))?;
            at = end;
            Ok(s)
        };
        let magic = u32::from_le_bytes(
            take(4)?
                .try_into()
                .map_err(|_| ShardError::BadRouterImage("magic"))?,
        );
        if magic != IMAGE_MAGIC {
            return Err(ShardError::BadRouterImage("magic"));
        }
        if take(1)?[0] != IMAGE_VERSION {
            return Err(ShardError::BadRouterImage("version"));
        }
        let mode = match take(1)?[0] {
            0 => Sharding::Hash,
            1 => Sharding::Range,
            _ => return Err(ShardError::BadRouterImage("mode")),
        };
        let rd_u32 = |s: &[u8]| -> Result<u32, ShardError> {
            Ok(u32::from_le_bytes(
                s.try_into()
                    .map_err(|_| ShardError::BadRouterImage("field"))?,
            ))
        };
        let next_id = rd_u32(take(4)?)?;
        let live_len = rd_u32(take(4)?)? as usize;
        if live_len == 0 || live_len > SLOTS {
            return Err(ShardError::BadRouterImage("live set"));
        }
        let mut live = Vec::with_capacity(live_len);
        for _ in 0..live_len {
            live.push(rd_u32(take(4)?)?);
        }
        let mut sorted = live.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != live.len() || live.iter().any(|&s| s >= next_id) {
            return Err(ShardError::BadRouterImage("live set"));
        }
        if rd_u32(take(4)?)? as usize != SLOTS {
            return Err(ShardError::BadRouterImage("slot count"));
        }
        let mut assign = Vec::with_capacity(SLOTS);
        for _ in 0..SLOTS {
            let s = rd_u32(take(4)?)?;
            if !live.contains(&s) {
                return Err(ShardError::BadRouterImage("assignment"));
            }
            assign.push(s);
        }
        if at != buf.len() {
            return Err(ShardError::BadRouterImage("trailing bytes"));
        }
        Ok(Router {
            mode,
            assign,
            live,
            next_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_is_lcm_of_one_to_ten() {
        for n in 1..=10 {
            assert_eq!(SLOTS % n, 0, "SLOTS must divide by {n}");
        }
    }

    #[test]
    fn new_router_is_balanced() {
        for &mode in &[Sharding::Hash, Sharding::Range] {
            let r = Router::new(mode, 7).unwrap();
            for s in 0..7 {
                assert_eq!(r.slots_owned(s), SLOTS / 7);
            }
        }
    }

    #[test]
    fn zero_shards_rejected() {
        assert_eq!(Router::new(Sharding::Hash, 0), Err(ShardError::NoShards));
    }

    #[test]
    fn add_moves_only_to_new_shard() {
        let mut r = Router::new(Sharding::Hash, 4).unwrap();
        let before = r.clone();
        let (id, moved) = r.add_shard();
        assert_eq!(id, 4);
        assert_eq!(moved.len(), SLOTS / 5);
        for &slot in &moved {
            assert_eq!(r.assign[slot], id);
        }
        for slot in 0..SLOTS {
            if !moved.contains(&slot) {
                assert_eq!(r.assign[slot], before.assign[slot]);
            }
        }
    }

    #[test]
    fn remove_moves_only_the_removed_share() {
        let mut r = Router::new(Sharding::Range, 6).unwrap();
        let before = r.clone();
        let moved = r.remove_shard(2).unwrap();
        assert_eq!(moved.len(), SLOTS / 6);
        for slot in 0..SLOTS {
            if moved.contains(&slot) {
                assert_eq!(before.assign[slot], 2);
                assert_ne!(r.assign[slot], 2);
            } else {
                assert_eq!(r.assign[slot], before.assign[slot]);
            }
        }
        assert_eq!(r.remove_shard(2), Err(ShardError::UnknownShard(2)));
    }

    #[test]
    fn last_shard_protected() {
        let mut r = Router::new(Sharding::Hash, 1).unwrap();
        assert_eq!(r.remove_shard(0), Err(ShardError::LastShard));
    }

    #[test]
    fn donate_moves_bounded() {
        let mut r = Router::new(Sharding::Hash, 4).unwrap();
        let moved = r.donate_slots(1, 3, 100).unwrap();
        assert_eq!(moved.len(), 100);
        assert_eq!(r.slots_owned(1), SLOTS / 4 - 100);
        assert_eq!(r.slots_owned(3), SLOTS / 4 + 100);
        assert!(r.donate_slots(1, 1, 10).unwrap().is_empty());
        assert!(r.donate_slots(99, 1, 10).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut r = Router::new(Sharding::Range, 5).unwrap();
        r.add_shard();
        r.remove_shard(1).unwrap();
        r.donate_slots(0, 5, 33).unwrap();
        let img = r.encode();
        assert_eq!(Router::decode(&img).unwrap(), r);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Router::decode(&[]).is_err());
        let mut img = Router::new(Sharding::Hash, 2).unwrap().encode();
        img[0] ^= 0xFF;
        assert!(Router::decode(&img).is_err());
        let mut img = Router::new(Sharding::Hash, 2).unwrap().encode();
        img.push(0);
        assert_eq!(
            Router::decode(&img),
            Err(ShardError::BadRouterImage("trailing bytes"))
        );
    }

    #[test]
    fn empty_key_rejected() {
        let r = Router::new(Sharding::Hash, 2).unwrap();
        assert_eq!(r.route(b""), Err(ShardError::EmptyKey));
    }

    #[test]
    fn range_mode_preserves_prefix_order() {
        let r = Router::new(Sharding::Range, 4).unwrap();
        let lo = r.slot_of(&1000u64.to_be_bytes());
        let hi = r.slot_of(&u64::MAX.to_be_bytes());
        assert!(lo <= hi);
        assert_eq!(r.slot_of(b"\x00"), 0);
    }
}
