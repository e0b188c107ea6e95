//! Cooperative virtual-time actor executor.
//!
//! Actors are state machines advanced in order of their next virtual-time
//! deadline (ties broken by scheduling order, so runs are deterministic).
//! Workload clients, background flushers, compaction workers, checkpointers
//! and garbage collectors are all actors; they share simulation state through
//! `Arc<Mutex<…>>` handles and interact with contended hardware through
//! [`crate::Timeline`]s.
//!
//! An actor's [`Actor::step`] performs one logical unit of work *synchronously
//! in virtual time* (e.g. "issue one KV operation", "flush one memtable") and
//! tells the executor when it next wants to run, or retires ([`Step::Done`]).
//! There is no parking: a live actor always has exactly one entry in the heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Identifies a spawned actor within one [`Executor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ActorId(usize);

/// What an actor wants to do next after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Run again at the given virtual time (clamped to be ≥ now).
    RunAt(SimTime),
    /// The actor has finished and will never run again.
    Done,
}

/// A cooperative simulation participant.
pub trait Actor {
    /// Performs one unit of work at virtual time `now`.
    fn step(&mut self, now: SimTime) -> Step;
}

/// Deterministic min-time actor scheduler.
#[derive(Default)]
pub struct Executor {
    // Each actor with its "has returned `Step::Done`" flag. A retired actor
    // lives as long as the executor: what its `Drop` reports (a scan
    // iterator closes its span there) keeps its place in the trace.
    actors: Vec<(Box<dyn Actor>, bool)>,
    // Reverse((time, seq, idx)): earliest time first, FIFO within a time.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    now: SimTime,
    steps: u64,
}

impl Executor {
    /// Creates an empty executor at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time (the deadline of the most recently run actor).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total actor steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Spawns an actor whose first step runs at `at`.
    pub fn spawn(&mut self, actor: Box<dyn Actor>, at: SimTime) -> ActorId {
        let idx = self.actors.len();
        self.actors.push((actor, false));
        self.push(idx, at);
        ActorId(idx)
    }

    fn push(&mut self, idx: usize, at: SimTime) {
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Runs the earliest pending actor step, if any. Returns `false` when no
    /// actor is scheduled (all done, or none spawned).
    pub fn step_one(&mut self) -> bool {
        let Some(Reverse((at, _, idx))) = self.heap.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        self.steps += 1;
        match self.actors[idx].0.step(self.now) {
            Step::RunAt(t) => self.push(idx, t.max(self.now)),
            Step::Done => self.actors[idx].1 = true,
        }
        true
    }

    /// Runs until no actor is scheduled. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step_one() {}
        self.now
    }

    /// True if the actor has retired.
    pub fn is_done(&self, id: ActorId) -> bool {
        self.actors.get(id.0).is_some_and(|&(_, done)| done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use std::sync::Arc;

    struct Ticker {
        period: SimDuration,
        remaining: u32,
        log: Arc<crate::sync::Mutex<Vec<(u64, &'static str)>>>,
        name: &'static str,
    }

    impl Actor for Ticker {
        fn step(&mut self, now: SimTime) -> Step {
            self.log.lock().push((now.as_nanos(), self.name));
            if self.remaining == 0 {
                return Step::Done;
            }
            self.remaining -= 1;
            Step::RunAt(now + self.period)
        }
    }

    #[test]
    fn actors_interleave_in_time_order() {
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let mut ex = Executor::new();
        ex.spawn(
            Box::new(Ticker {
                period: SimDuration::from_nanos(10),
                remaining: 3,
                log: log.clone(),
                name: "a",
            }),
            SimTime::ZERO,
        );
        ex.spawn(
            Box::new(Ticker {
                period: SimDuration::from_nanos(25),
                remaining: 1,
                log: log.clone(),
                name: "b",
            }),
            SimTime::from_nanos(5),
        );
        let end = ex.run();
        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                (0, "a"),
                (5, "b"),
                (10, "a"),
                (20, "a"),
                // Both reach t=30; "b" scheduled its t=30 step first (at t=5),
                // so FIFO tie-breaking runs it first.
                (30, "b"),
                (30, "a"),
            ]
        );
        assert_eq!(end, SimTime::from_nanos(30));
    }

    #[test]
    fn fifo_within_equal_deadlines() {
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let mut ex = Executor::new();
        for name in ["x", "y", "z"] {
            ex.spawn(
                Box::new(Ticker {
                    period: SimDuration::ZERO,
                    remaining: 0,
                    log: log.clone(),
                    name,
                }),
                SimTime::from_nanos(7),
            );
        }
        ex.run();
        let names: Vec<_> = log.lock().iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    /// Asks to run in the past on its first step, then retires.
    struct Backdater {
        seen: Arc<crate::sync::Mutex<Vec<u64>>>,
    }
    impl Actor for Backdater {
        fn step(&mut self, now: SimTime) -> Step {
            let mut seen = self.seen.lock();
            seen.push(now.as_nanos());
            if seen.len() == 1 {
                Step::RunAt(SimTime::from_nanos(3))
            } else {
                Step::Done
            }
        }
    }

    #[test]
    fn run_at_in_the_past_clamps_to_now() {
        let seen = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let mut ex = Executor::new();
        ex.spawn(
            Box::new(Backdater { seen: seen.clone() }),
            SimTime::from_nanos(50),
        );
        assert_eq!(ex.run(), SimTime::from_nanos(50));
        assert_eq!(seen.lock().clone(), vec![50, 50]);
    }

    #[test]
    fn a_done_actor_never_runs_again() {
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let mut ex = Executor::new();
        let once = ex.spawn(
            Box::new(Ticker {
                period: SimDuration::ZERO,
                remaining: 0,
                log: log.clone(),
                name: "once",
            }),
            SimTime::ZERO,
        );
        let ticker = ex.spawn(
            Box::new(Ticker {
                period: SimDuration::from_nanos(10),
                remaining: 2,
                log: log.clone(),
                name: "t",
            }),
            SimTime::ZERO,
        );
        assert!(ex.step_one());
        assert!(ex.is_done(once) && !ex.is_done(ticker));
        ex.run();
        assert!(ex.is_done(ticker));
        assert_eq!(ex.steps(), 4);
        assert!(!ex.step_one());
        let names: Vec<_> = log.lock().iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["once", "t", "t", "t"]);
    }

    #[test]
    fn step_count_and_empty_run() {
        let mut ex = Executor::new();
        assert!(!ex.step_one());
        assert_eq!(ex.run(), SimTime::ZERO);
        assert_eq!(ex.steps(), 0);
    }
}
