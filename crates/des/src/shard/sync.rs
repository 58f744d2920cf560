//! Conservative-synchronization internals of the sharded kernel.
//!
//! This module is the *machinery* side of the `shard-boundary` layer
//! contract (lint.toml `[layer.shard-boundary]`, enforced by AL008):
//! domain crates program against [`Partition`](super::Partition) /
//! [`ShardedSimulation`](super::ShardedSimulation) and must never name
//! the mailboxes, lower-bound announcements, barrier, or horizon math
//! in here — those are free to change as the protocol evolves.
//!
//! # Protocol
//!
//! The kernel runs Chandy–Misra–Bryant conservative synchronization in
//! *windowed* form: instead of per-channel null messages, every shard
//! publishes one lower bound (LB) per round — the timestamp of its
//! earliest pending event — which acts as a batched null message on all
//! of its outgoing edges at once. The raw LB vector is not yet safe to
//! window on: a shard whose own queue is empty (LB = ∞) can still
//! *receive* an event this round and relay a consequence of it early
//! the next — a multi-hop path the single-hop bound misses. So the
//! LBs are first relaxed through the lookahead graph to
//! earliest-execution bounds (the fixpoint of)
//!
//! ```text
//! exec(s) = min( LB(s), min over r != s of exec(r) + lookahead(r, s) )
//! ```
//!
//! — each shard's earliest time it could possibly execute *any* event,
//! pending or yet to arrive over any path — and then derives horizons:
//!
//! ```text
//! horizon(s) = min over r != s of  exec(r) + lookahead(r, s)
//! ```
//!
//! A shard may safely dispatch every event strictly below its horizon:
//! any event that could still reach it fires no earlier than that.
//! Because every declared lookahead is strictly positive, the shard
//! holding the globally earliest event has `exec` equal to its LB and a
//! horizon strictly above it, so every round makes progress — in exact
//! arithmetic. When a lookahead is below half an ulp of the clock,
//! `lb + la` rounds back to `lb` and the horizons freeze; [`next_step`]
//! reports that corner so the drivers can abort with a diagnostic
//! instead of livelocking.
//!
//! # Threaded rounds
//!
//! There is no coordinator thread. Each worker owns a chunk of shards,
//! and a round is a data phase and a sync phase, each ended by a wait
//! on the [`RoundBarrier`]:
//!
//! 1. **Data.** Run the window, then append each non-empty outbox
//!    bucket to the per-edge mailbox `src * n + dst` of the [`SyncPlane`].
//! 2. **Sync.** Drain the own shards' inbound mailboxes, merge the
//!    arrivals into the FELs, and announce each shard's LB.
//! 3. **Decision.** Every worker snapshots the LBs and calls
//!    [`next_step`] itself. Same inputs, same verdict (next horizons,
//!    quiescent, panicked, or stalled), so nobody has to publish it.
//!
//! The barriers make every shared slot single-writer: a mailbox is
//! filled only by its source's owner in the data phase and drained only
//! by its destination's owner in the sync phase; LBs and the panic flag
//! are written in the sync phase and read in the decision. So mailbox
//! locks are never contended, and mailboxes need no bound, no
//! backpressure and no flush handshake. A worker that catches a handler
//! panic still attends both barriers and raises the panic flag, so
//! every worker leaves at the same decision.
//!
//! The barrier spins, then yields, then parks. A fine-grained round
//! takes microseconds, less than a futex sleep and wake per wait (what
//! `std::sync::Barrier` costs). Spinning covers one core per worker,
//! yielding lets a peer sharing the core finish its phase, and parking
//! keeps oversubscribed runs from burning the cores stragglers need.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Busy-wait iterations before a barrier waiter starts yielding.
const SPINS: u32 = 64;
/// `yield_now` calls before a barrier waiter parks on the condvar.
const YIELDS: u32 = 64;

/// Locks `m`, ignoring poison: every critical section here is a plain
/// buffer move or a counter check that cannot leave broken state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Computes the conservative horizon of every shard from the current
/// lower-bound vector and the row-major `lookahead` matrix
/// (`lookahead[r * n + s]` = minimum cross-shard latency from `r` to
/// `s`, `INFINITY` when no edge exists). A shard with no incoming
/// edges gets an infinite horizon.
///
/// The LBs are first relaxed to earliest-execution bounds through the
/// lookahead graph (see the module docs): the shortest relaxing path
/// has at most `n - 1` edges, so `n - 1` Bellman–Ford sweeps reach the
/// fixpoint, and strictly positive lookaheads rule out the analogue of
/// negative cycles.
pub(crate) fn conservative_horizons(lbs: &[f64], lookahead: &[f64], out: &mut Vec<f64>) {
    let n = lbs.len();
    // The earliest time anything from another shard can reach `s`.
    // `INFINITY + la` stays infinite, so unreachable peers and missing
    // edges drop out of the min automatically.
    let inbound = |exec: &[f64], s: usize| {
        exec.iter()
            .enumerate()
            .filter(|&(r, _)| r != s)
            .map(|(r, ex)| ex + lookahead.get(r * n + s).copied().unwrap_or(f64::INFINITY))
            .fold(f64::INFINITY, f64::min)
    };
    let mut exec: Vec<f64> = lbs.to_vec();
    for _ in 1..n {
        let mut changed = false;
        for s in 0..n {
            let recv = inbound(&exec, s);
            if let Some(slot) = exec.get_mut(s) {
                if recv < *slot {
                    *slot = recv;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    out.clear();
    out.extend((0..n).map(|s| inbound(&exec, s)));
}

/// Whether a bounded run is finished: every shard's earliest pending
/// event is either nonexistent or strictly beyond the run horizon
/// (events *at* the horizon still execute, mirroring
/// `Simulation::run_until`).
fn quiescent(lbs: &[f64], run_horizon: f64) -> bool {
    lbs.iter()
        .all(|&lb| lb == f64::INFINITY || lb > run_horizon)
}

/// What a driver does once a round's lower bounds are in.
#[derive(Debug)]
pub(crate) enum Step {
    /// Run another round inside the horizons just computed.
    Round,
    /// Nothing is pending at or before the run horizon: the run is over.
    Quiescent,
    /// No shard can dispatch anything: every earliest pending event is
    /// at or beyond its horizon. Impossible in exact arithmetic (the
    /// globally earliest shard's horizon is strictly above its LB), but
    /// a lookahead below half an ulp of the clock rounds the horizons
    /// to a fixpoint that a retry would re-derive forever. Carries the
    /// earliest pending time for the diagnostic.
    Stalled(f64),
}

/// The one round decision both drivers share: quiescent, stalled, or
/// another round inside the horizons written to `horizons`. Pure in its
/// inputs, so every threaded worker computes the same verdict.
pub(crate) fn next_step(
    lbs: &[f64],
    lookahead: &[f64],
    run_horizon: f64,
    horizons: &mut Vec<f64>,
) -> Step {
    if quiescent(lbs, run_horizon) {
        return Step::Quiescent;
    }
    conservative_horizons(lbs, lookahead, horizons);
    let blocked = |(&lb, &h): (&f64, &f64)| lb >= h || lb > run_horizon;
    if lbs.iter().zip(horizons.iter()).all(blocked) {
        return Step::Stalled(lbs.iter().copied().fold(f64::INFINITY, f64::min));
    }
    Step::Round
}

/// A reusable barrier for a fixed number of parties: the last arrival
/// of a round bumps a generation counter, and the others wait for the
/// bump by spinning, then yielding, then parking on a condvar (see the
/// module docs for why). The bumper only touches the lock and the
/// condvar when someone has parked, so a round whose waiters all catch
/// the bump before parking costs it no system call.
pub(crate) struct RoundBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Waiters parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl RoundBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        RoundBarrier {
            parties: parties.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until every party has called `wait` for this round.
    /// Everything a party did before its call happens-before everything
    /// any party does after its return.
    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Nobody touches `arrived` again until they see the bump.
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst store-then-load here against the parker's SeqCst
            // increment-then-load below: either this load sees the
            // parker, or the parker sees the bump and never sleeps.
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // A parker holds the lock from its increment until it
                // sleeps on the condvar, so this wakeup is not lost.
                drop(lock(&self.lock));
                self.wake.notify_all();
            }
            return;
        }
        let passed = || self.generation.load(Ordering::SeqCst) != gen;
        for _ in 0..SPINS {
            if passed() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if passed() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = lock(&self.lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !passed() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The shared state of one threaded run: a mailbox per directed shard
/// pair, the per-shard lower bounds (f64 bit patterns in atomics), the
/// panic flag, and the round barrier. The barrier separates every
/// write from every read (see the module docs), so the atomics only
/// need to be tear-free and the mailbox locks are never contended.
pub(crate) struct SyncPlane<T> {
    /// `mailboxes[src * n + dst]`: events `src` sent to `dst` this round.
    mailboxes: Vec<Mutex<Vec<T>>>,
    lbs: Vec<AtomicU64>,
    panicked: AtomicBool,
    pub(crate) barrier: RoundBarrier,
}

impl<T> SyncPlane<T> {
    /// A plane for `lbs.len()` shards, announcing `lbs` as the lower
    /// bounds of the first round, shared by `parties` workers.
    pub(crate) fn new(lbs: &[f64], parties: usize) -> Self {
        let n = lbs.len();
        SyncPlane {
            mailboxes: (0..n * n).map(|_| Mutex::new(Vec::new())).collect(),
            lbs: lbs.iter().map(|lb| AtomicU64::new(lb.to_bits())).collect(),
            panicked: AtomicBool::new(false),
            barrier: RoundBarrier::new(parties),
        }
    }

    /// Data phase: appends every non-empty bucket of shard `src`'s
    /// outbox (indexed by destination shard) to its edge's mailbox,
    /// leaving the buckets empty with their allocations kept.
    pub(crate) fn post(&self, src: usize, outbox: &mut [Vec<T>]) {
        for (dst, bucket) in outbox.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            debug_assert_ne!(src, dst, "local events never go through a mailbox");
            if let Some(mailbox) = self.mailboxes.get(src * self.lbs.len() + dst) {
                lock(mailbox).append(bucket);
            }
        }
    }

    /// Sync phase: moves everything sent to shard `dst` this round into
    /// `into`. Arrival order does not matter: arrivals are sorted by
    /// `(time, seq)` before they enter the FEL.
    pub(crate) fn collect(&self, dst: usize, into: &mut Vec<T>) {
        let n = self.lbs.len();
        for src in (0..n).filter(|&src| src != dst) {
            if let Some(mailbox) = self.mailboxes.get(src * n + dst) {
                into.append(&mut lock(mailbox));
            }
        }
    }

    pub(crate) fn set_lb(&self, shard: usize, lb: f64) {
        if let Some(slot) = self.lbs.get(shard) {
            slot.store(lb.to_bits(), Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot_lbs(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.lbs
                .iter()
                .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed))),
        );
    }

    /// Sync phase only: a worker caught a handler panic this round.
    pub(crate) fn mark_panicked(&self) {
        self.panicked.store(true, Ordering::Relaxed);
    }

    pub(crate) fn has_panicked(&self) -> bool {
        self.panicked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizons_follow_relaxed_exec_plus_lookahead() {
        // Two shards, lookahead 1.0 both ways. Shard 1's earliest
        // pending event is at 20, but it could receive shard 0's t=5
        // event's consequence and relay at 5 + 1 + 1 = 7 — shard 0's
        // horizon must be 7, not 21.
        let la = vec![f64::INFINITY, 1.0, 1.0, f64::INFINITY];
        let mut out = Vec::new();
        conservative_horizons(&[5.0, 20.0], &la, &mut out);
        assert_eq!(out, vec![7.0, 6.0]);
    }

    #[test]
    fn empty_relay_shards_do_not_unbound_downstream_horizons() {
        // Chain 0 -> 1 -> 2 with unit lookahead; shard 1 is empty.
        // Shard 2 must still be bounded by the two-hop path through 1:
        // 0.0 + 1 + 1 = 2.0.
        let inf = f64::INFINITY;
        #[rustfmt::skip]
        let la = vec![
            inf, 1.0, inf,
            inf, inf, 1.0,
            inf, inf, inf,
        ];
        let mut out = Vec::new();
        conservative_horizons(&[0.0, inf, 100.0], &la, &mut out);
        assert_eq!(out, vec![inf, 1.0, 2.0]);
    }

    #[test]
    fn empty_peer_and_missing_edge_drop_out() {
        // 0 -> 1 only; shard 0 has no incoming edge.
        let la = vec![f64::INFINITY, 2.0, f64::INFINITY, f64::INFINITY];
        let mut out = Vec::new();
        conservative_horizons(&[3.0, f64::INFINITY], &la, &mut out);
        assert_eq!(out, vec![f64::INFINITY, 5.0]);
    }

    #[test]
    fn quiescence_is_strict_past_the_horizon() {
        assert!(!quiescent(&[10.0, f64::INFINITY], 10.0));
        assert!(quiescent(&[10.5, f64::INFINITY], 10.0));
        assert!(quiescent(&[f64::INFINITY], f64::INFINITY));
        assert!(!quiescent(&[3.0], f64::INFINITY));
    }

    /// Shard 0 of a partition declaring only the edge 0 -> 1 runs one
    /// real round: its handler schedules a local event and sends across
    /// 0 -> 1, then tries the undeclared edge 0 -> 2, which is refused.
    /// The posted mail sits on edge 0 -> 1 alone.
    #[test]
    fn mail_never_lands_on_diagonal_or_undeclared_edges() {
        use super::super::{run_round, unlabeled, LogicalProcess, RoundEnv, ShardCtx};
        use super::super::{ShardedSimulation, StaticPartition};
        struct Fan;
        impl LogicalProcess for Fan {
            type Event = u8;
            fn handle(&mut self, kind: u8, ctx: &mut ShardCtx<'_, u8>) {
                if kind == 0 {
                    ctx.schedule_in(0.5, 1);
                    ctx.send_in(1.0, 1, 9);
                } else {
                    ctx.send_in(1.0, 2, 9);
                }
            }
        }
        let mut part = StaticPartition::round_robin(3, 3, f64::INFINITY);
        part.set_lookahead(0, 1, 1.0);
        let mut sim: ShardedSimulation<_, Fan> =
            ShardedSimulation::new(part, vec![Fan, Fan, Fan], 1).expect("valid partition");
        sim.schedule(0.0, 0, 0);
        let env = RoundEnv {
            index: &sim.index,
            lookahead: &sim.lookahead,
            nshards: 3,
            seed: 1,
            labeler: unlabeled::<u8>,
            log_events: false,
        };
        let shard = sim.shards.first_mut().expect("shard 0 exists");
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_round(shard, 0, 10.0, f64::INFINITY, env)
        }));
        assert!(refused.is_err(), "the send on 0 -> 2 must be refused");
        assert_eq!(shard.dispatched, 2, "the local event ran inside the round");
        let plane = SyncPlane::new(&[0.0; 3], 1);
        plane.post(0, &mut shard.outbox);
        let mail: Vec<usize> = plane.mailboxes.iter().map(|m| lock(m).len()).collect();
        assert_eq!(mail, vec![0, 1, 0, 0, 0, 0, 0, 0, 0]);
        let mut arrived = Vec::new();
        plane.collect(1, &mut arrived);
        assert_eq!(arrived.len(), 1);
    }

    #[test]
    fn round_barrier_holds_with_more_parties_than_cores() {
        const PARTIES: usize = 8;
        const ROUNDS: usize = 10_000;
        let barrier = RoundBarrier::new(PARTIES);
        let arrivals = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..PARTIES {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        arrivals.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        let seen = arrivals.load(Ordering::Relaxed);
                        assert_eq!(seen, PARTIES * (round + 1), "round {round}");
                        // Nobody bumps again before everyone has checked.
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(arrivals.load(Ordering::Relaxed), PARTIES * ROUNDS);
    }
}
