//! The load driver: one host thread, closed-loop *virtual* clients.
//!
//! Clients are ordered by a min-heap on the virtual time they are next
//! ready; each issues one op, waits (in virtual time) for its completion and
//! issues the next. One more heap entry is the maintenance client, which
//! polls the stack's public background entry points every 500 µs of virtual
//! time and chases the completion time whenever work ran — the same shape
//! the figure drivers use, re-implemented here so the load cannot change
//! when they do.
//!
//! Every get and scan is checked against a shadow model (record id →
//! version; the value is regenerated from (seed, id, version)). Calls are
//! host-sequential, so the model is exact: a get must return the last put
//! *issued* before it, whatever the virtual completion times say.

use crate::clock;
use crate::gen::{self, Mix, Op, OpKind, OpStream, Zipf};
use crate::stacks::{Get, Put, Stack};
use crate::trace::{self, Cause, Layer};
use ox_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual period of the maintenance client's idle poll.
const MAINTENANCE_POLL: SimDuration = SimDuration::from_micros(500);

/// Slices (about) the measured phase's host time is recorded in.
pub const SLICES: u64 = 48;

/// What a phase is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Load, warm-up or read-back: outside the measured phase.
    Setup,
    /// The measured phase: host time is recorded in slices and, on a traced
    /// stack, every call is a span.
    Measure,
}

/// Virtual latencies of one phase, nanoseconds, by op class.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// Gets.
    pub read: Vec<u64>,
    /// Puts and read-modify-writes (whole cycle).
    pub write: Vec<u64>,
    /// Scans.
    pub scan: Vec<u64>,
}

/// Device bytes written and user bytes written at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteMark {
    /// `DeviceStats.writes.bytes + copies.bytes`.
    pub device_bytes: u64,
    /// Bytes clients have had acknowledged.
    pub user_bytes: u64,
}

/// What one closed-loop phase did.
#[derive(Clone, Debug, Default)]
pub struct PhaseOut {
    /// Virtual time the phase started.
    pub start: SimTime,
    /// Virtual completion of the last client op.
    pub end: SimTime,
    /// Ops taken from the generator.
    pub attempted: u64,
    /// Ops (and maintenance polls) the stack failed or refused.
    pub failed: u64,
    /// Gets/scans whose result disagreed with the shadow model.
    pub wrong: u64,
    /// Put retries after back-pressure.
    pub stall_retries: u64,
    /// Latencies by class.
    pub lat: Latencies,
    /// Host nanoseconds the phase took.
    pub wall_ns: u64,
    /// Write volume when the phase started.
    pub mark_start: WriteMark,
    /// Write volume when half the ops had been issued.
    pub mark_half: WriteMark,
    /// Op count at which `mark_half` is taken.
    half_at: u64,
    /// Host clock at the start of the phase, whenever another `slice_ops`
    /// ops have been issued, and at its end: consecutive differences tile
    /// the phase into slices of identical work on every run.
    pub slice_wall_ns: Vec<u64>,
    /// Ops per slice (0 = no slicing).
    pub slice_ops: u64,
    /// Write volume when the phase ended.
    pub mark_end: WriteMark,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Start,
    /// Read half of an RMW done; the put of this version is (still) due.
    PutDue,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    op: Op,
    started: SimTime,
    stage: Stage,
}

struct Client {
    stream: OpStream,
    left: u64,
    pending: Option<Pending>,
}

/// The stack under test plus everything the driver knows about it.
pub struct Bench {
    /// The stack.
    pub stack: Box<dyn Stack>,
    seed: u64,
    traced: bool,
    zipf: Zipf,
    /// Shadow model: current version of every record, 0 = never written.
    versions: Vec<u32>,
    /// Record ids in key order (for scan verification), once loaded.
    key_order: Vec<u64>,
    /// Position of each id in `key_order`.
    key_pos: Vec<u32>,
    value: Vec<u8>,
    expect: Vec<u8>,
    got: Vec<u8>,
    user_bytes: u64,
    next_op_id: u64,
}

impl Bench {
    /// Wraps a freshly formatted stack serving `records` records.
    pub fn new(stack: Box<dyn Stack>, seed: u64, records: u64, traced: bool) -> Bench {
        let value_bytes = stack.value_bytes();
        Bench {
            stack,
            seed,
            traced,
            zipf: Zipf::new(records, gen::THETA),
            versions: vec![0; records as usize],
            key_order: Vec::new(),
            key_pos: Vec::new(),
            value: vec![0; value_bytes],
            expect: vec![0; value_bytes],
            got: Vec::with_capacity(value_bytes),
            user_bytes: 0,
            next_op_id: 0,
        }
    }

    /// Records currently present in the shadow model.
    pub fn live_records(&self) -> u64 {
        self.versions.iter().filter(|&&v| v != 0).count() as u64
    }

    /// Write volume so far.
    pub fn mark(&self) -> WriteMark {
        let s = self.stack.device().stats();
        WriteMark {
            device_bytes: s.writes.bytes() + s.copies.bytes(),
            user_bytes: self.user_bytes,
        }
    }

    /// Builds the key-order index scans are verified against. Call once
    /// every record exists.
    pub fn index_keys(&mut self) {
        let n = self.versions.len() as u64;
        let mut order: Vec<u64> = (0..n).collect();
        let seed = self.seed;
        order.sort_unstable_by_key(|&id| gen::key(seed, id));
        let mut pos = vec![0u32; n as usize];
        for (i, &id) in order.iter().enumerate() {
            pos[id as usize] = i as u32;
        }
        self.key_order = order;
        self.key_pos = pos;
    }

    /// Checks a get's result against the shadow model; true when it agrees.
    fn get_agrees(&mut self, id: u64, got: Get) -> bool {
        let ver = self.versions[id as usize] as u64;
        if ver == 0 {
            return !got.found;
        }
        if !got.found {
            return false;
        }
        gen::fill_value(self.seed, id, ver, &mut self.expect);
        self.got == self.expect
    }

    fn do_get(&mut self, now: SimTime, id: u64, out: &mut PhaseOut) -> SimTime {
        let mut buf = std::mem::take(&mut self.got);
        let got = self.stack.get(now, id, &mut buf);
        self.got = buf;
        if got.failed {
            out.failed += 1;
        } else if !self.get_agrees(id, got) {
            out.wrong += 1;
        }
        got.done
    }

    /// Issues the put of `id`'s next version. `Ok(done)` when acknowledged
    /// (or failed for good), `Err(retry)` on back-pressure.
    fn do_put(&mut self, now: SimTime, id: u64, out: &mut PhaseOut) -> Result<SimTime, SimTime> {
        let ver = self.versions[id as usize] as u64 + 1;
        gen::fill_value(self.seed, id, ver, &mut self.value);
        match self.stack.put(now, id, &self.value) {
            Put::Done(t) => {
                self.versions[id as usize] = ver as u32;
                self.user_bytes += self.stack.user_bytes_per_put();
                Ok(t)
            }
            Put::Stalled(retry) => {
                out.stall_retries += 1;
                Err(retry)
            }
            Put::Failed(t) => {
                out.failed += 1;
                Ok(t)
            }
        }
    }

    fn do_scan(&mut self, now: SimTime, id: u64, len: u32, out: &mut PhaseOut) -> SimTime {
        let mut seen: Vec<(u64, bool)> = Vec::with_capacity(len as usize);
        let seed = self.seed;
        let versions = &self.versions;
        let mut expect = std::mem::take(&mut self.expect);
        let scan = self.stack.scan(now, id, len as usize, &mut |k, v| {
            let kid = gen::key_id(k).filter(|&kid| k == gen::key(seed, kid).as_slice());
            let ok = kid.is_some_and(|kid| {
                let ver = versions.get(kid as usize).copied().unwrap_or(0) as u64;
                ver != 0 && v.len() == expect.len() && {
                    gen::fill_value(seed, kid, ver, &mut expect);
                    v == expect.as_slice()
                }
            });
            seen.push((kid.unwrap_or(u64::MAX), ok));
        });
        self.expect = expect;
        if scan.failed {
            out.failed += 1;
            return scan.done;
        }
        // Exactly the next `len` records in key order, each at its current
        // version (every record exists once the load is done).
        let from = self.key_pos[id as usize] as usize;
        let want = &self.key_order[from..(from + len as usize).min(self.key_order.len())];
        let agrees = seen.len() == want.len()
            && seen.iter().zip(want).all(|(&(kid, ok), &w)| ok && kid == w);
        if !agrees {
            out.wrong += 1;
        }
        scan.done
    }

    /// Advances client `cl` at `now`; returns when it is next ready.
    fn step(&mut self, cl: &mut Client, now: SimTime, traced: bool, out: &mut PhaseOut) -> SimTime {
        let mut p = match cl.pending.take() {
            Some(p) => p,
            None => {
                cl.left -= 1;
                out.attempted += 1;
                if out.attempted == out.half_at {
                    out.mark_half = self.mark();
                }
                if out.slice_ops > 0 && out.attempted % out.slice_ops == 0 {
                    out.slice_wall_ns.push(clock::now_ns());
                }
                Pending {
                    op: cl.stream.next(&self.zipf),
                    started: now,
                    stage: Stage::Start,
                }
            }
        };
        if traced && p.stage == Stage::Start {
            self.next_op_id += 1;
            trace::begin_op(self.next_op_id);
        }
        let id = p.op.id;
        let done = match p.op.kind {
            OpKind::Get => {
                if traced {
                    trace::set_cause(Cause::FgRead);
                    trace::enter(Layer::Driver, "get", now, 0, true);
                }
                let t = self.do_get(now, id, out);
                if traced {
                    trace::exit(t, true);
                }
                out.lat.read.push(t.saturating_since(p.started).as_nanos());
                t
            }
            OpKind::Scan => {
                if traced {
                    trace::set_cause(Cause::FgScan);
                    trace::enter(Layer::Driver, "scan", now, 0, true);
                }
                let t = self.do_scan(now, id, p.op.len, out);
                if traced {
                    trace::exit(t, true);
                }
                out.lat.scan.push(t.saturating_since(p.started).as_nanos());
                t
            }
            OpKind::Put | OpKind::Rmw => {
                if traced {
                    trace::set_cause(Cause::FgWrite);
                    trace::enter(Layer::Driver, "put", now, 0, true);
                }
                let mut t = now;
                if p.op.kind == OpKind::Rmw && p.stage == Stage::Start {
                    if traced {
                        trace::set_cause(Cause::FgRead);
                    }
                    t = self.do_get(now, id, out);
                    p.stage = Stage::PutDue;
                    if traced {
                        trace::set_cause(Cause::FgWrite);
                    }
                }
                let r = self.do_put(t, id, out);
                if traced {
                    trace::exit(*r.as_ref().unwrap_or_else(|retry| retry), true);
                }
                match r {
                    Ok(t) => {
                        out.lat.write.push(t.saturating_since(p.started).as_nanos());
                        t
                    }
                    Err(retry) => {
                        cl.pending = Some(p);
                        retry
                    }
                }
            }
        };
        if traced && cl.pending.is_none() {
            trace::end_op();
        }
        done
    }

    /// Runs one closed-loop client per entry of `quotas` (its op count),
    /// drawing from `mix`, plus the maintenance client, starting at `start`.
    pub fn run(
        &mut self,
        phase: Phase,
        mix: Mix,
        stream_seed: u64,
        quotas: &[u64],
        start: SimTime,
    ) -> PhaseOut {
        let records = self.versions.len() as u64;
        let clients = quotas.len() as u64;
        let mut cls: Vec<Client> = quotas
            .iter()
            .zip(0..)
            .map(|(&left, c)| Client {
                stream: OpStream::new(mix, stream_seed, c, clients, records),
                left,
                pending: None,
            })
            .collect();
        let maintenance = clients as usize;
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> =
            (0..=maintenance).map(|who| Reverse((start, who))).collect();
        let mut out = PhaseOut {
            start,
            end: start,
            mark_start: self.mark(),
            half_at: (quotas.iter().sum::<u64>() / 2).max(1),
            slice_ops: if phase == Phase::Measure {
                (quotas.iter().sum::<u64>() / SLICES).max(1)
            } else {
                0
            },
            ..PhaseOut::default()
        };
        let traced = self.traced && phase == Phase::Measure;
        let wall_start = clock::now_ns();
        out.slice_wall_ns.push(wall_start);
        if traced {
            trace::set_cause(Cause::FgRead);
            trace::enter(Layer::Driver, "measure", start, 0, false);
        }
        let mut active = cls.iter().filter(|c| c.left > 0).count();
        while active > 0 {
            let Some(Reverse((now, who))) = heap.pop() else {
                break;
            };
            if who == maintenance {
                if traced {
                    trace::set_cause(Cause::BgFlush);
                    trace::enter(Layer::Driver, "maintain", now, 0, false);
                }
                let ran = self.stack.maintain(now);
                if traced {
                    trace::exit(now, true);
                }
                let next = match ran {
                    Ok(Some(done)) if done > now => done,
                    Ok(_) => now + MAINTENANCE_POLL,
                    Err(e) => {
                        if out.failed == 0 {
                            eprintln!("maintenance failed: {e}");
                        }
                        out.failed += 1;
                        now + MAINTENANCE_POLL
                    }
                };
                heap.push(Reverse((next, who)));
                continue;
            }
            let cl = &mut cls[who];
            if cl.left == 0 && cl.pending.is_none() {
                continue; // zero-quota client
            }
            let ready = self.step(cl, now, traced, &mut out);
            out.end = out.end.max(ready);
            if cl.left == 0 && cl.pending.is_none() {
                active -= 1;
            } else {
                heap.push(Reverse((ready, who)));
            }
        }
        if traced {
            trace::set_cause(Cause::FgRead);
            trace::exit(out.end, true);
        }
        let wall_end = clock::now_ns();
        out.wall_ns = wall_end - wall_start;
        out.slice_wall_ns.push(wall_end);
        out.mark_end = self.mark();
        out
    }

    /// Reads back every record of the shadow model (one sequential client);
    /// returns how many reads it made and how many were lost or wrong.
    pub fn read_back_all(&mut self, start: SimTime) -> (u64, u64) {
        let mut out = PhaseOut::default();
        let mut t = start;
        let records = self.versions.len() as u64;
        for id in 0..records {
            t = self.do_get(t, id, &mut out);
        }
        (records, out.failed + out.wrong)
    }
}
