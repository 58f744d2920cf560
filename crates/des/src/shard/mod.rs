//! The parallel-in-time sharded kernel: one simulation, many calendar
//! queues, conservative synchronization.
//!
//! [`Simulation`](crate::sim::Simulation) dispatches every event of a
//! run through one future-event list. This module generalizes it:
//! entities are partitioned into *logical processes* grouped onto
//! shards, each shard owns a sealed FEL of its own, and shards advance
//! in windowed rounds bounded by conservative horizons derived from the
//! [`Partition`]'s declared per-edge lookahead (the minimum cross-shard
//! latency of the domain model: a link delay, a router overhead, a tick
//! period). Cross-shard events are buffered per destination during a
//! round and merged into the destination FEL before the next round's
//! bounds are taken; see [`sync`] for the protocol.
//!
//! # Determinism
//!
//! The sharded kernel keeps the workspace's serial ≡ parallel contract
//! at the single-run level: for a fixed model, partition, and seed, the
//! dispatched `(time, seq, parent, event)` sequence — merged across
//! shards in `(time, seq)` order — is byte-for-byte identical at every
//! shard count and every thread count. Three rules make this hold *by
//! construction* rather than by luck:
//!
//! - **Entity-owned state.** A [`LogicalProcess`] owns its state
//!   exclusively and reacts only to its own events, so behavior cannot
//!   depend on which shard an entity landed on.
//! - **Lane-based event ids.** `seq` is `(lane << 32) | counter` where
//!   lane is `entity + 1` (lane 0 is reserved for externally scheduled
//!   roots) and the counter is per-lane. Ids depend only on how many
//!   events an entity has scheduled — not on global dispatch
//!   interleaving — so they are shard-count-invariant, unlike the dense
//!   global counter of the single-queue path.
//! - **Per-entity RNG streams.** [`ShardCtx::rng`] draws from a stream
//!   seeded by `(root seed, entity)`, so randomness is attached to the
//!   entity, never to the shard or thread that happens to run it.
//!
//! Tracer hooks are buffered per shard and replayed in merged order
//! after the run ([`trace`]), so traces are also shard-count-invariant.
//!
//! # Why conservative, not optimistic
//!
//! Optimistic engines (Time Warp) need rollback: snapshots of model
//! state and anti-messages to undo mis-speculated dispatches. Rollback
//! is at odds with every contract this kernel exports — state capsules
//! assume monotone time, tracer output is append-only, and byte-stable
//! determinism under speculation requires bit-exact rollback of every
//! side effect. Conservative lookahead synchronization needs none of
//! that: nothing executes until it provably cannot be preempted, so
//! the merged dispatch order *is* the single-queue order.
//!
//! # Bounded runs and `stop()`
//!
//! There is deliberately no `stop()` on [`ShardCtx`]: a stop observed
//! on one shard mid-round is a determinism race against events other
//! shards have already dispatched inside their own windows. Sharded
//! runs are horizon-bounded ([`ShardedSimulation::run_until`]) or run
//! to exhaustion ([`ShardedSimulation::run`]).

mod sync;
mod trace;

use crate::calendar::CalendarQueue;
use crate::fel::{Entry, FutureEventList};
use atlarge_stats::rng::{splitmix64_mix, StdRng, GOLDEN_GAMMA};
use atlarge_telemetry::tracer::{EventLabel, Tracer};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sync::{Step, SyncPlane};
use trace::{TraceBuf, TraceOp};

/// Bit position of the lane in an event id: the low 32 bits count
/// events per lane, the bits above identify the lane.
const LANE_SHIFT: u32 = 32;

/// Maximum number of entities a sharded simulation accepts. Lanes must
/// stay below 2^20 so every id fits in 52 bits — ids survive any
/// JSON consumer that routes integers through an f64.
pub const MAX_ENTITIES: usize = (1 << 20) - 1;

fn unlabeled<E>(_: &E) -> &'static str {
    "event"
}

/// SplitMix64-style finalizer deriving entity `e`'s RNG stream from the
/// root seed: statistically independent streams per entity, stable
/// across shard counts and partitions.
fn entity_stream_seed(seed: u64, entity: u32) -> u64 {
    splitmix64_mix(seed ^ (u64::from(entity).wrapping_add(1)).wrapping_mul(GOLDEN_GAMMA))
}

/// An event addressed to an entity — what shard FELs store. The
/// target's shard-local slot is resolved once, at scheduling time (the
/// sender already has the entity index in cache to route the event), so
/// the dispatch loop never touches the index again: at large entity
/// counts that lookup is a guaranteed cache miss per event.
#[derive(Debug, Clone)]
pub struct Routed<E> {
    entity: u32,
    slot: u32,
    event: E,
}

/// One dispatched event as seen by the optional event log
/// ([`ShardedSimulation::with_event_log`]): the global merge order of
/// these records is the kernel's determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulated dispatch time.
    pub time: f64,
    /// The event's lane-based id.
    pub id: u64,
    /// Id of the event whose handler scheduled this one.
    pub parent: Option<u64>,
    /// The entity that handled the event.
    pub entity: u32,
}

/// How entities map onto shards, and how much cross-shard latency the
/// model guarantees per directed shard pair.
///
/// `lookahead(from, to)` must return either a strictly positive finite
/// minimum delay (every event shard `from` sends to shard `to` fires at
/// least that far in the future) or `INFINITY` to declare "no edge".
/// Zero, negative, and NaN lookaheads are rejected up front by
/// [`ShardedSimulation::new`] — a zero-lookahead edge would allow
/// cycles of simultaneous cross-shard events, which no conservative
/// schedule can order without global knowledge.
pub trait Partition {
    /// Number of shards (logical-process groups).
    fn shards(&self) -> usize;
    /// The shard owning `entity`.
    fn shard_of(&self, entity: u32) -> usize;
    /// Minimum cross-shard event latency from shard `from` to shard
    /// `to` (`from != to`), or `INFINITY` for "no edge".
    fn lookahead(&self, from: usize, to: usize) -> f64;
}

/// A table-driven [`Partition`]: an explicit entity→shard assignment
/// plus a dense lookahead matrix. The common constructors cover block
/// and round-robin placement with a uniform all-to-all lookahead;
/// [`StaticPartition::set_lookahead`] refines individual edges.
#[derive(Debug, Clone)]
pub struct StaticPartition {
    shards: usize,
    assign: Vec<usize>,
    lookahead: Vec<f64>,
}

impl StaticPartition {
    fn with_uniform(shards: usize, assign: Vec<usize>, la: f64) -> Self {
        let shards = shards.max(1);
        let lookahead = (0..shards * shards)
            .map(|i| {
                if i / shards == i % shards {
                    f64::INFINITY
                } else {
                    la
                }
            })
            .collect();
        StaticPartition {
            shards,
            assign,
            lookahead,
        }
    }

    /// Contiguous blocks of entities per shard, uniform lookahead `la`
    /// on every directed edge.
    pub fn block(entities: usize, shards: usize, la: f64) -> Self {
        let shards = shards.max(1);
        let per = entities.div_ceil(shards.max(1)).max(1);
        let assign = (0..entities).map(|e| (e / per).min(shards - 1)).collect();
        Self::with_uniform(shards, assign, la)
    }

    /// Entities dealt round-robin across shards, uniform lookahead.
    pub fn round_robin(entities: usize, shards: usize, la: f64) -> Self {
        let shards = shards.max(1);
        let assign = (0..entities).map(|e| e % shards).collect();
        Self::with_uniform(shards, assign, la)
    }

    /// An explicit entity→shard map with uniform lookahead.
    pub fn from_assignment(assign: Vec<usize>, shards: usize, la: f64) -> Self {
        Self::with_uniform(shards, assign, la)
    }

    /// Overrides the lookahead of one directed edge.
    pub fn set_lookahead(&mut self, from: usize, to: usize, la: f64) {
        if from != to {
            if let Some(slot) = self.lookahead.get_mut(from * self.shards + to) {
                *slot = la;
            }
        }
    }
}

impl Partition for StaticPartition {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, entity: u32) -> usize {
        self.assign.get(entity as usize).copied().unwrap_or(0)
    }

    fn lookahead(&self, from: usize, to: usize) -> f64 {
        self.lookahead
            .get(from * self.shards + to)
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

/// Why a [`ShardedSimulation`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// The partition declared zero shards.
    NoShards,
    /// More entities than [`MAX_ENTITIES`].
    TooManyEntities {
        /// The offending entity count.
        entities: usize,
    },
    /// `shard_of` returned a shard outside `0..shards()`.
    ShardOutOfRange {
        /// The entity with the bad assignment.
        entity: u32,
        /// The out-of-range shard index.
        shard: usize,
    },
    /// A declared lookahead was zero, negative, or NaN.
    BadLookahead {
        /// Source shard of the edge.
        from: usize,
        /// Destination shard of the edge.
        to: usize,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoShards => write!(f, "partition declares zero shards"),
            PartitionError::TooManyEntities { entities } => write!(
                f,
                "{entities} entities exceed the sharded kernel's limit of {MAX_ENTITIES}"
            ),
            PartitionError::ShardOutOfRange { entity, shard } => {
                write!(f, "entity {entity} assigned to out-of-range shard {shard}")
            }
            PartitionError::BadLookahead { from, to, value } => write!(
                f,
                "lookahead {value} on edge {from}->{to} must be strictly positive \
                 (use INFINITY for no edge)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A logical process: one entity's state and behavior. The sharded
/// kernel's unit of partitioning.
///
/// Unlike [`Model`](crate::sim::Model) — which owns the whole world —
/// a logical process owns exactly one entity, so a run's outcome
/// cannot depend on entity co-location. Events for other entities go
/// through [`ShardCtx::send_at`]/[`ShardCtx::send_in`], which enforce
/// the partition's lookahead on cross-shard edges. A model that wants
/// to stay valid under *every* partition should respect the declared
/// lookahead on all entity-to-entity sends.
pub trait LogicalProcess {
    /// The event alphabet of this process.
    type Event;

    /// Reacts to `event` occurring now; schedules follow-ups via `ctx`.
    fn handle(&mut self, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);
}

/// Where an entity lives: its shard and its dense slot within it.
#[derive(Debug, Clone, Copy)]
struct EntitySlot {
    shard: u32,
    slot: u32,
}

/// Read-only per-round environment shared by every shard.
struct RoundEnv<'a, E> {
    index: &'a [EntitySlot],
    lookahead: &'a [f64],
    nshards: usize,
    seed: u64,
    labeler: fn(&E) -> &'static str,
    log_events: bool,
}

impl<E> Clone for RoundEnv<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for RoundEnv<'_, E> {}

/// One entity's dispatch-hot state: its lane counter and its logical
/// process, colocated so a dispatch touches one cache line instead of
/// two parallel arrays.
struct EntityCell<L> {
    lane: u64,
    lp: L,
}

/// One shard: its FEL, its entities' processes and lane counters, and
/// the round-local buffers of the synchronization protocol.
struct Shard<L: LogicalProcess, F> {
    fel: F,
    cells: Vec<EntityCell<L>>,
    entities: Vec<u32>,
    rngs: Vec<Option<StdRng>>,
    spare_rng: Option<StdRng>,
    /// Outgoing cross-shard events, buffered per target shard during a
    /// round and handed to the target shards between rounds.
    outbox: Vec<Vec<Entry<Routed<<L as LogicalProcess>::Event>>>>,
    /// Local events scheduled during a round at or beyond the round
    /// horizon: bulk-inserted (sorted) between rounds, which turns
    /// random-access FEL maintenance into a batched, ascending pass.
    staging: Vec<Entry<Routed<<L as LogicalProcess>::Event>>>,
    /// Cross-shard arrivals of the last round, merged by
    /// [`absorb_staged`](Shard::absorb_staged).
    inbox_hold: Vec<Entry<Routed<<L as LogicalProcess>::Event>>>,
    /// Events the current handler scheduled, classified after it
    /// returns (below-horizon → FEL now, otherwise → staging).
    local_out: Vec<Entry<Routed<<L as LogicalProcess>::Event>>>,
    scratch: Vec<Entry<Routed<<L as LogicalProcess>::Event>>>,
    now: f64,
    dispatched: u64,
    trace: Option<TraceBuf>,
    log: Vec<EventRecord>,
}

impl<L: LogicalProcess, F: FutureEventList<Routed<L::Event>>> Shard<L, F> {
    fn new(nshards: usize) -> Self {
        Shard {
            fel: F::with_capacity(0),
            cells: Vec::new(),
            entities: Vec::new(),
            rngs: Vec::new(),
            spare_rng: None,
            outbox: (0..nshards).map(|_| Vec::new()).collect(),
            staging: Vec::new(),
            inbox_hold: Vec::new(),
            local_out: Vec::new(),
            scratch: Vec::new(),
            now: 0.0,
            dispatched: 0,
            trace: None,
            log: Vec::new(),
        }
    }

    /// Merges everything that arrived or was staged since the last
    /// round into the FEL, in ascending `(time, seq)` order — the
    /// batched maintenance pass that makes per-shard queues cheap.
    fn absorb_staged(&mut self) {
        if self.inbox_hold.is_empty() && self.staging.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.scratch);
        batch.append(&mut self.inbox_hold);
        batch.append(&mut self.staging);
        batch.sort_unstable();
        for entry in batch.drain(..) {
            self.fel.insert(entry);
        }
        self.scratch = batch;
    }

    fn lower_bound(&self) -> f64 {
        self.fel.peek_min_time().unwrap_or(f64::INFINITY)
    }
}

/// The execution context handed to [`LogicalProcess::handle`]: clock,
/// scheduler, per-entity RNG, and causal identity of the current event.
pub struct ShardCtx<'a, E> {
    now: f64,
    entity: u32,
    slot: usize,
    cur_id: u64,
    cur_parent: Option<u64>,
    shard: usize,
    nshards: usize,
    seed: u64,
    local_out: &'a mut Vec<Entry<Routed<E>>>,
    outbox: &'a mut [Vec<Entry<Routed<E>>>],
    /// The current entity's lane counter (all events a handler
    /// schedules carry the handling entity's lane).
    lane: &'a mut u64,
    rngs: &'a mut [Option<StdRng>],
    spare_rng: &'a mut Option<StdRng>,
    index: &'a [EntitySlot],
    la_row: &'a [f64],
    trace: Option<&'a mut TraceBuf>,
    labeler: fn(&E) -> &'static str,
}

impl<E> ShardCtx<'_, E> {
    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The entity this handler runs as.
    pub fn entity(&self) -> u32 {
        self.entity
    }

    /// Id of the event being handled.
    pub fn event_id(&self) -> u64 {
        self.cur_id
    }

    /// Id of the event whose handler scheduled the current one.
    pub fn parent(&self) -> Option<u64> {
        self.cur_parent
    }

    /// The shard this entity lives on (informational — model behavior
    /// must never depend on it).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total shard count of the partition.
    pub fn shards(&self) -> usize {
        self.nshards
    }

    fn next_seq(&mut self) -> u64 {
        let lane = u64::from(self.entity) + 1;
        // Hard assert even in release: a wrapped counter would bleed
        // into the lane bits and silently break the (time, seq)
        // uniqueness the determinism contract rests on.
        assert!(
            *self.lane < 1 << LANE_SHIFT,
            "entity {} exhausted its event-id lane (2^32 scheduled events)",
            self.entity
        );
        let seq = (lane << LANE_SHIFT) | *self.lane;
        *self.lane += 1;
        seq
    }

    fn push(
        &mut self,
        target: u32,
        target_shard: usize,
        target_slot: u32,
        time: f64,
        event: E,
    ) -> u64 {
        let seq = self.next_seq();
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.op(TraceOp::Schedule {
                fire_at: time,
                label: (self.labeler)(&event),
                id: seq,
                parent: Some(self.cur_id),
            });
        }
        let entry = Entry {
            time,
            seq,
            parent: Some(self.cur_id),
            event: Routed {
                entity: target,
                slot: target_slot,
                event,
            },
        };
        if target_shard == self.shard {
            self.local_out.push(entry);
        } else if let Some(bucket) = self.outbox.get_mut(target_shard) {
            bucket.push(entry);
        } else {
            debug_assert!(false, "outbox missing for shard {target_shard}");
        }
        seq
    }

    /// Schedules an event for this entity `delay` from now. Returns the
    /// new event's id.
    pub fn schedule_in(&mut self, delay: f64, event: E) -> u64 {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules an event for this entity at absolute `time`.
    pub fn schedule_at(&mut self, time: f64, event: E) -> u64 {
        assert!(
            time.is_finite() && time >= self.now,
            "event time must be finite and not in the past"
        );
        self.push(self.entity, self.shard, self.slot as u32, time, event)
    }

    /// Sends an event to `target` firing `delay` from now. Cross-shard
    /// sends must respect the partition's declared lookahead.
    pub fn send_in(&mut self, delay: f64, target: u32, event: E) -> u64 {
        self.send_at(self.now + delay, target, event)
    }

    /// Sends an event to `target` at absolute `time`. For a target on
    /// another shard, `time` must be at least `now + lookahead(edge)` —
    /// the contract the conservative horizons are derived from.
    pub fn send_at(&mut self, time: f64, target: u32, event: E) -> u64 {
        assert!(
            time.is_finite() && time >= self.now,
            "event time must be finite and not in the past"
        );
        let Some(&EntitySlot { shard, slot }) = self.index.get(target as usize) else {
            debug_assert!(false, "send to unknown entity {target}");
            return 0;
        };
        let target_shard = shard as usize;
        if target_shard != self.shard {
            let la = self
                .la_row
                .get(target_shard)
                .copied()
                .unwrap_or(f64::INFINITY);
            assert!(
                la.is_finite(),
                "no lookahead edge declared from shard {} to shard {target_shard}",
                self.shard
            );
            assert!(
                time >= self.now + la,
                "cross-shard send at t={time} violates lookahead {la} from shard {} to {} \
                 (now={})",
                self.shard,
                target_shard,
                self.now
            );
        }
        self.push(target, target_shard, slot, time, event)
    }

    /// This entity's deterministic RNG stream, seeded from
    /// `(root seed, entity)` — identical under every partition.
    pub fn rng(&mut self) -> &mut StdRng {
        let entity = self.entity;
        let seed = self.seed;
        let holder = match self.rngs.get_mut(self.slot) {
            Some(h) => h,
            None => {
                debug_assert!(false, "rng slot missing for slot {}", self.slot);
                &mut *self.spare_rng
            }
        };
        holder.get_or_insert_with(|| StdRng::seed_from_u64(entity_stream_seed(seed, entity)))
    }

    /// Opens a tracer span (buffered; replayed in global order).
    pub fn span_enter(&mut self, name: &str) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.op(TraceOp::SpanEnter { name: name.into() });
        }
    }

    /// Closes a tracer span.
    pub fn span_exit(&mut self, name: &str) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.op(TraceOp::SpanExit { name: name.into() });
        }
    }
}

/// A sharded, parallel-in-time generalization of
/// [`Simulation`](crate::sim::Simulation).
///
/// Construction partitions the entities; [`run_until`] advances every
/// shard in conservative windows. `F` is the sealed FEL backend of
/// *each shard* (default: the calendar queue), so the same equivalence
/// suite that seals the single-queue path seals this one.
///
/// [`run_until`]: ShardedSimulation::run_until
pub struct ShardedSimulation<P, L, F = CalendarQueue<Routed<<L as LogicalProcess>::Event>>>
where
    L: LogicalProcess,
{
    partition: P,
    shards: Vec<Shard<L, F>>,
    index: Vec<EntitySlot>,
    lookahead: Vec<f64>,
    nshards: usize,
    seed: u64,
    threads: usize,
    root_seq: u64,
    now: f64,
    processed: u64,
    rounds: u64,
    tracer: Option<Box<dyn Tracer>>,
    labeler: fn(&L::Event) -> &'static str,
    trace_pending: u64,
    log_events: bool,
    event_log: Vec<EventRecord>,
}

impl<P, L, F> ShardedSimulation<P, L, F>
where
    P: Partition,
    L: LogicalProcess,
    F: FutureEventList<Routed<L::Event>>,
{
    /// Validates `partition` and distributes `lps` (entity `e` is
    /// `lps[e]`) onto shards. Rejects non-positive / NaN lookaheads and
    /// out-of-range shard assignments up front.
    pub fn new(partition: P, lps: Vec<L>, seed: u64) -> Result<Self, PartitionError> {
        let nshards = partition.shards();
        if nshards == 0 {
            return Err(PartitionError::NoShards);
        }
        if lps.len() > MAX_ENTITIES {
            return Err(PartitionError::TooManyEntities {
                entities: lps.len(),
            });
        }
        let mut lookahead = Vec::with_capacity(nshards * nshards);
        for from in 0..nshards {
            for to in 0..nshards {
                if from == to {
                    lookahead.push(f64::INFINITY);
                    continue;
                }
                let la = partition.lookahead(from, to);
                if la.is_nan() || la <= 0.0 {
                    return Err(PartitionError::BadLookahead {
                        from,
                        to,
                        value: la,
                    });
                }
                lookahead.push(la);
            }
        }
        let mut shards: Vec<Shard<L, F>> = (0..nshards).map(|_| Shard::new(nshards)).collect();
        let mut index = Vec::with_capacity(lps.len());
        for (e, lp) in lps.into_iter().enumerate() {
            let entity = e as u32;
            let s = partition.shard_of(entity);
            let Some(shard) = shards.get_mut(s) else {
                return Err(PartitionError::ShardOutOfRange { entity, shard: s });
            };
            index.push(EntitySlot {
                shard: s as u32,
                slot: shard.cells.len() as u32,
            });
            shard.entities.push(entity);
            shard.cells.push(EntityCell { lane: 0, lp });
            shard.rngs.push(None);
        }
        Ok(ShardedSimulation {
            partition,
            shards,
            index,
            lookahead,
            nshards,
            seed,
            threads: default_threads(),
            root_seq: 0,
            now: 0.0,
            processed: 0,
            rounds: 0,
            tracer: None,
            labeler: unlabeled::<L::Event>,
            trace_pending: 0,
            log_events: false,
            event_log: Vec::new(),
        })
    }

    /// Attaches a tracer (with [`EventLabel`] labels). Disabled tracers
    /// are dropped so the hot path stays branch-light. Attach before
    /// scheduling roots so the replayed pending counts are faithful.
    pub fn with_tracer<T: Tracer + 'static>(mut self, tracer: T) -> Self
    where
        L::Event: EventLabel,
    {
        if tracer.is_enabled() {
            self.labeler = <L::Event as EventLabel>::label;
            self.tracer = Some(Box::new(tracer));
        }
        self
    }

    /// Attaches a tracer without requiring [`EventLabel`]; every event
    /// is labeled `"event"`.
    pub fn with_unlabeled_tracer<T: Tracer + 'static>(mut self, tracer: T) -> Self {
        if tracer.is_enabled() {
            self.labeler = unlabeled::<L::Event>;
            self.tracer = Some(Box::new(tracer));
        }
        self
    }

    /// Records every dispatch into an in-memory log retrievable with
    /// [`take_event_log`](ShardedSimulation::take_event_log) — the
    /// equivalence suites compare these across shard counts.
    pub fn with_event_log(mut self) -> Self {
        self.log_events = true;
        self
    }

    /// Caps the worker thread count (default: `ATLARGE_DES_THREADS` or
    /// the machine's available parallelism). Results are identical at
    /// every thread count; this only tunes wall-clock behavior.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Pre-reserves room for about `events` pending events across all
    /// shards.
    pub fn with_pending_capacity(mut self, events: usize) -> Self {
        let per = events / self.nshards.max(1);
        for shard in &mut self.shards {
            shard.fel.reserve(per);
        }
        self
    }

    /// Schedules a root event (no parent) for `entity` at absolute
    /// `time`. Roots occupy lane 0, so pre-run roots order before any
    /// handler-scheduled event at the same timestamp. Returns the id.
    pub fn schedule(&mut self, time: f64, entity: u32, event: L::Event) -> u64 {
        assert!(
            time.is_finite() && time >= self.now,
            "event time must be finite and not in the past"
        );
        let Some(&EntitySlot { shard, slot }) = self.index.get(entity as usize) else {
            debug_assert!(false, "schedule for unknown entity {entity}");
            return 0;
        };
        assert!(
            self.root_seq < 1 << LANE_SHIFT,
            "root event-id lane exhausted (2^32 pre-run roots)"
        );
        let seq = self.root_seq;
        self.root_seq += 1;
        if let Some(tracer) = &self.tracer {
            tracer.on_schedule(self.now, time, (self.labeler)(&event), seq, None);
            self.trace_pending += 1;
        }
        if let Some(shard) = self.shards.get_mut(shard as usize) {
            shard.fel.insert(Entry {
                time,
                seq,
                parent: None,
                event: Routed {
                    entity,
                    slot,
                    event,
                },
            });
        }
        seq
    }

    /// Current simulated time (advances to the horizon of a bounded run
    /// when events remain beyond it, mirroring `Simulation::run_until`).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total events dispatched across all runs.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Total synchronization rounds across all runs: windows every
    /// shard advanced through together. Equal on one thread and on
    /// many; one per run on a single shard, whose horizon is infinite.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.fel.len()).sum()
    }

    /// Shard count of the partition.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// The partition this simulation was built with.
    pub fn partition(&self) -> &P {
        &self.partition
    }

    /// Borrows entity `e`'s logical process.
    pub fn lp(&self, entity: u32) -> Option<&L> {
        let &EntitySlot { shard, slot } = self.index.get(entity as usize)?;
        self.shards
            .get(shard as usize)?
            .cells
            .get(slot as usize)
            .map(|cell| &cell.lp)
    }

    /// Consumes the simulation, returning the logical processes in
    /// entity order.
    pub fn into_lps(mut self) -> Vec<L> {
        let mut out: Vec<Option<L>> = (0..self.index.len()).map(|_| None).collect();
        for shard in &mut self.shards {
            for (entity, cell) in shard.entities.iter().zip(shard.cells.drain(..)) {
                if let Some(slot) = out.get_mut(*entity as usize) {
                    *slot = Some(cell.lp);
                }
            }
        }
        debug_assert!(out.iter().all(Option::is_some));
        out.into_iter().flatten().collect()
    }

    /// Drains the merged event log (requires
    /// [`with_event_log`](ShardedSimulation::with_event_log)).
    pub fn take_event_log(&mut self) -> Vec<EventRecord> {
        std::mem::take(&mut self.event_log)
    }

    /// Runs until the FELs drain. Returns events processed this call.
    pub fn run(&mut self) -> u64
    where
        L: Send,
        L::Event: Send,
        F: Send,
    {
        self.run_until(f64::INFINITY)
    }

    /// Runs until `horizon` (events at exactly `horizon` still
    /// execute) or queue exhaustion. Returns the number of events
    /// processed in this call. Deterministic for any shard count,
    /// thread count, and FEL backend.
    pub fn run_until(&mut self, horizon: f64) -> u64
    where
        L: Send,
        L::Event: Send,
        F: Send,
    {
        assert!(!horizon.is_nan(), "run horizon must not be NaN");
        let start = self.processed;
        if self.tracer.is_some() {
            for shard in &mut self.shards {
                if shard.trace.is_none() {
                    shard.trace = Some(TraceBuf::default());
                }
            }
        }
        let mut lbs: Vec<f64> = self.shards.iter().map(Shard::lower_bound).collect();
        let workers = self.threads.min(self.nshards).max(1);
        if workers == 1 {
            self.run_inline(horizon, &mut lbs);
        } else {
            self.run_threaded(horizon, workers, &lbs);
        }
        self.processed = self.shards.iter().map(|s| s.dispatched).sum();
        let max_now = self.shards.iter().map(|s| s.now).fold(self.now, f64::max);
        self.now = if self.pending() > 0 && horizon.is_finite() {
            horizon
        } else {
            max_now
        };
        if self.log_events {
            let mut merged: Vec<EventRecord> = Vec::new();
            for shard in &mut self.shards {
                merged.append(&mut shard.log);
            }
            merged.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.id.cmp(&b.id)));
            self.event_log.extend(merged);
        }
        if let Some(tracer) = &self.tracer {
            let mut groups: Vec<trace::TraceGroup> = Vec::new();
            for shard in &mut self.shards {
                if let Some(tb) = shard.trace.as_mut() {
                    groups.append(&mut tb.take());
                }
            }
            groups.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)));
            trace::replay(tracer.as_ref(), &groups, &mut self.trace_pending);
            tracer.on_run_end(self.now, self.processed);
        }
        self.processed - start
    }

    /// Single-threaded driver: same windowed rounds, no mailboxes or
    /// barriers — outboxes are handed to their target shards directly.
    /// This is also the 1-shard path, where the horizon is infinite and
    /// execution degenerates to exactly the sealed single-queue loop.
    fn run_inline(&mut self, run_horizon: f64, lbs: &mut Vec<f64>) {
        let mut horizons = Vec::new();
        loop {
            match sync::next_step(lbs, &self.lookahead, run_horizon, &mut horizons) {
                Step::Round => {}
                Step::Quiescent => break,
                Step::Stalled(t) => assert_not_stalled(Some(t)),
            }
            self.rounds += 1;
            let env = RoundEnv {
                index: &self.index,
                lookahead: &self.lookahead,
                nshards: self.nshards,
                seed: self.seed,
                labeler: self.labeler,
                log_events: self.log_events,
            };
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let h = horizons.get(s).copied().unwrap_or(f64::INFINITY);
                run_round(shard, s, h, run_horizon, env);
            }
            self.deliver_inline();
            lbs.clear();
            for shard in &mut self.shards {
                shard.absorb_staged();
                lbs.push(shard.lower_bound());
            }
        }
    }

    /// Moves every shard's outbox contents into the target shards'
    /// inbox holds, keeping the buffer allocations alive.
    fn deliver_inline(&mut self) {
        for s in 0..self.nshards {
            let Some(shard) = self.shards.get_mut(s) else {
                continue;
            };
            let mut outbox = std::mem::take(&mut shard.outbox);
            for (bucket, dst) in outbox.iter_mut().zip(self.shards.iter_mut()) {
                dst.inbox_hold.append(bucket);
            }
            if let Some(shard) = self.shards.get_mut(s) {
                shard.outbox = outbox;
            }
        }
    }

    /// Threaded driver: workers own disjoint shard chunks and advance
    /// in coordinator-free, two-barrier rounds; the calling thread works
    /// the first chunk. See [`sync`] for the protocol and its safety
    /// argument.
    fn run_threaded(&mut self, run_horizon: f64, workers: usize, lbs: &[f64])
    where
        L: Send,
        L::Event: Send,
        F: Send,
    {
        let per = self.nshards.div_ceil(workers);
        let plane = SyncPlane::new(lbs, self.nshards.div_ceil(per));
        let env = RoundEnv {
            index: &self.index,
            lookahead: &self.lookahead,
            nshards: self.nshards,
            seed: self.seed,
            labeler: self.labeler,
            log_events: self.log_events,
        };
        let shards = &mut self.shards;
        let exits: Vec<(WorkerExit, u64)> = std::thread::scope(|scope| {
            let plane = &plane;
            let mut chunks = shards.chunks_mut(per).enumerate();
            let own = chunks.next();
            let handles: Vec<_> = chunks
                .map(|(c, chunk)| {
                    scope.spawn(move || worker_loop(chunk, c * per, plane, env, run_horizon))
                })
                .collect();
            let own = own.map(|(_, chunk)| worker_loop(chunk, 0, plane, env, run_horizon));
            let joined = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| (Err(Some(p)), 0)));
            own.into_iter().chain(joined).collect()
        });
        // Every worker ran the same rounds and reached the same verdict.
        self.rounds += exits.first().map_or(0, |&(_, rounds)| rounds);
        let mut frozen_at = None;
        for (exit, _) in exits {
            match exit {
                Err(Some(p)) => std::panic::resume_unwind(p),
                Ok(Step::Stalled(t)) => frozen_at = Some(t),
                Ok(_) | Err(None) => {}
            }
        }
        assert_not_stalled(frozen_at);
    }
}

/// API-boundary contract shared by both drivers: a numerically frozen
/// round ([`Step::Stalled`]) must abort loudly, because retrying it
/// would livelock.
fn assert_not_stalled(frozen_at: Option<f64>) {
    assert!(
        frozen_at.is_none(),
        "sharded run cannot advance past t={}: a declared lookahead is below \
         the clock's floating-point resolution at this time scale (lb + lookahead \
         rounds back to lb); rescale time units or enlarge the partition's lookaheads",
        frozen_at.unwrap_or(f64::NAN)
    );
}

/// Picks the default worker-thread cap: `ATLARGE_DES_THREADS` when set,
/// otherwise the machine's available parallelism. Thread count never
/// affects results.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ATLARGE_DES_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Dispatches every event of `shard` strictly below horizon `h` (and at
/// most `run_horizon`) in `(time, seq)` order.
fn run_round<L, F>(
    shard: &mut Shard<L, F>,
    s: usize,
    h: f64,
    run_horizon: f64,
    env: RoundEnv<'_, L::Event>,
) where
    L: LogicalProcess,
    F: FutureEventList<Routed<L::Event>>,
{
    let row_start = s * env.nshards;
    let la_row = env
        .lookahead
        .get(row_start..row_start + env.nshards)
        .unwrap_or(&[]);
    loop {
        let Some(entry) = shard.fel.pop_min_until(run_horizon) else {
            break;
        };
        if entry.time >= h {
            // Beyond this round's conservative window: put it back and
            // wait for the horizon to advance.
            shard.fel.insert(entry);
            break;
        }
        let Entry {
            time,
            seq,
            parent,
            event:
                Routed {
                    entity,
                    slot,
                    event,
                },
        } = entry;
        debug_assert!(
            time >= shard.now,
            "time went backwards on shard {s}: popped t={time} seq={seq} after now={}",
            shard.now
        );
        shard.now = time;
        shard.dispatched += 1;
        let slot = slot as usize;
        if let Some(tb) = shard.trace.as_mut() {
            tb.begin(time, seq, parent, (env.labeler)(&event));
        }
        if env.log_events {
            shard.log.push(EventRecord {
                time,
                id: seq,
                parent,
                entity,
            });
        }
        let Some(cell) = shard.cells.get_mut(slot) else {
            debug_assert!(false, "missing entity cell {slot}");
            continue;
        };
        // Split borrow: the handler gets the process, the context gets
        // the lane counter — disjoint fields of the same cell, so the
        // dispatch path moves nothing in or out.
        let EntityCell { lane, lp } = cell;
        let mut ctx = ShardCtx {
            now: time,
            entity,
            slot,
            cur_id: seq,
            cur_parent: parent,
            shard: s,
            nshards: env.nshards,
            seed: env.seed,
            local_out: &mut shard.local_out,
            outbox: &mut shard.outbox,
            lane,
            rngs: &mut shard.rngs,
            spare_rng: &mut shard.spare_rng,
            index: env.index,
            la_row,
            trace: shard.trace.as_mut(),
            labeler: env.labeler,
        };
        lp.handle(event, &mut ctx);
        for e in shard.local_out.drain(..) {
            if e.time < h {
                // Still inside this round's window: must interleave
                // with the events being popped right now.
                shard.fel.insert(e);
            } else {
                shard.staging.push(e);
            }
        }
    }
}

type Payload = Box<dyn Any + Send>;

/// How a worker's round loop ended: the shared verdict, or a handler
/// panic, whose payload only the workers that caught it carry.
type WorkerExit = Result<Step, Option<Payload>>;

/// One worker thread: runs its chunk of shards through the two-barrier
/// round protocol (see [`sync`]) until the shared decision says stop,
/// and returns how the loop ended with the number of rounds it ran.
/// Handler panics are caught so both barriers stay populated; the
/// panic flag is raised in the sync phase, where every worker reads it
/// at the next decision.
fn worker_loop<L, F>(
    chunk: &mut [Shard<L, F>],
    base: usize,
    plane: &SyncPlane<Entry<Routed<L::Event>>>,
    env: RoundEnv<'_, L::Event>,
    run_horizon: f64,
) -> (WorkerExit, u64)
where
    L: LogicalProcess,
    F: FutureEventList<Routed<L::Event>>,
{
    let mut rounds = 0;
    let mut lbs = Vec::new();
    let mut horizons = Vec::new();
    loop {
        plane.snapshot_lbs(&mut lbs);
        if plane.has_panicked() {
            return (Err(None), rounds);
        }
        match sync::next_step(&lbs, env.lookahead, run_horizon, &mut horizons) {
            Step::Round => {}
            verdict => return (Ok(verdict), rounds),
        }
        rounds += 1;
        let mut payload = catch_unwind(AssertUnwindSafe(|| {
            for (i, shard) in chunk.iter_mut().enumerate() {
                let s = base + i;
                let h = horizons.get(s).copied().unwrap_or(f64::INFINITY);
                run_round(shard, s, h, run_horizon, env);
                plane.post(s, &mut shard.outbox);
            }
        }))
        .err();
        plane.barrier.wait(); // every mailbox posted
        if payload.is_none() {
            payload = catch_unwind(AssertUnwindSafe(|| {
                for (i, shard) in chunk.iter_mut().enumerate() {
                    let s = base + i;
                    plane.collect(s, &mut shard.inbox_hold);
                    shard.absorb_staged();
                    plane.set_lb(s, shard.lower_bound());
                }
            }))
            .err();
        }
        if payload.is_some() {
            plane.mark_panicked();
        }
        plane.barrier.wait(); // every LB announced
        if let Some(p) = payload {
            return (Err(Some(p)), rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_stats::rng::Rng;

    /// A ring of entities: each handles Tick by forwarding a Tick to the
    /// next entity after a delay >= the partition lookahead, mixing its
    /// RNG stream into a running checksum.
    struct RingNode {
        next: u32,
        hops_left: u32,
        sum: u64,
    }

    #[derive(Debug, Clone)]
    struct Tick;

    impl LogicalProcess for RingNode {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, ctx: &mut ShardCtx<'_, Tick>) {
            self.sum = self
                .sum
                .wrapping_mul(31)
                .wrapping_add(ctx.rng().gen::<u64>());
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send_in(1.0, self.next, Tick);
            }
        }
    }

    fn ring(n: u32, hops: u32) -> Vec<RingNode> {
        (0..n)
            .map(|e| RingNode {
                next: (e + 1) % n,
                hops_left: hops,
                sum: 0,
            })
            .collect()
    }

    type Sim<L> = ShardedSimulation<StaticPartition, L>;

    /// Builds a simulation on `threads` threads over a partition the
    /// test knows is valid.
    fn build<L: LogicalProcess>(
        part: StaticPartition,
        lps: Vec<L>,
        seed: u64,
        threads: usize,
    ) -> Sim<L> {
        match ShardedSimulation::new(part, lps, seed) {
            Ok(sim) => sim.with_threads(threads),
            Err(e) => unreachable!("valid partition rejected: {e}"),
        }
    }

    /// A ring of `n` entities, `hops` forwards each, every entity
    /// ticked at t = 0.5, run to exhaustion.
    fn ring_sim(n: u32, hops: u32, shards: usize, threads: usize) -> Sim<RingNode> {
        let part = StaticPartition::round_robin(n as usize, shards, 1.0);
        let mut sim = build(part, ring(n, hops), 7, threads).with_event_log();
        for e in 0..n {
            sim.schedule(0.5, e, Tick);
        }
        sim.run();
        sim
    }

    /// The event log, checksums, end time and event count of a ring run.
    type RingRun = (Vec<EventRecord>, Vec<u64>, f64, u64);

    fn run_ring(n: u32, hops: u32, shards: usize, threads: usize) -> RingRun {
        let mut sim = ring_sim(n, hops, shards, threads);
        let log = sim.take_event_log();
        let now = sim.now();
        let processed = sim.processed();
        let sums = sim.into_lps().into_iter().map(|n| n.sum).collect();
        (log, sums, now, processed)
    }

    #[test]
    fn shard_and_thread_counts_do_not_change_results() {
        let base = run_ring(8, 5, 1, 1);
        assert_eq!(base.3, 8 * 6);
        for (shards, threads) in [(2, 1), (2, 2), (8, 1), (8, 4), (3, 2)] {
            let got = run_ring(8, 5, shards, threads);
            assert_eq!(
                got, base,
                "divergence at {shards} shards / {threads} threads"
            );
        }
    }

    #[test]
    fn oversubscribed_threads_match_the_one_shard_log() {
        // 8 workers on however few cores the host has: the barrier must
        // neither livelock nor let a round start early.
        let got = run_ring(64, 200, 8, 8);
        assert_eq!(got.3, 64 * 201);
        assert_eq!(got, run_ring(64, 200, 1, 1));
    }

    #[test]
    fn inline_and_threaded_drivers_run_the_same_rounds() {
        for (shards, threads) in [(2, 2), (3, 2), (8, 4), (8, 8)] {
            let inline = ring_sim(8, 5, shards, 1).rounds();
            assert!(inline > 1, "a multi-shard ring takes several rounds");
            assert_eq!(
                ring_sim(8, 5, shards, threads).rounds(),
                inline,
                "ring at {shards} shards / {threads} threads"
            );
        }
        assert_eq!(ring_sim(8, 5, 1, 1).rounds(), 1);
        assert_eq!(flood_sim(2, 2).rounds(), flood_sim(2, 1).rounds());
    }

    #[test]
    fn zero_lookahead_edges_are_rejected_up_front() {
        let part = StaticPartition::round_robin(4, 2, 0.0);
        let res: Result<ShardedSimulation<_, RingNode>, _> =
            ShardedSimulation::new(part, ring(4, 1), 1);
        assert!(matches!(
            res,
            Err(PartitionError::BadLookahead { value, .. }) if value == 0.0
        ));
    }

    #[test]
    fn run_until_bounds_time_like_the_sealed_engine() {
        let part = StaticPartition::block(4, 2, 1.0);
        let mut sim = build(part, ring(4, 10), 3, 1);
        sim.schedule(0.0, 0, Tick);
        sim.run_until(3.0);
        assert_eq!(sim.now(), 3.0);
        assert_eq!(sim.processed(), 4); // t = 0, 1, 2, 3
        sim.run_until(f64::INFINITY);
        // Each of the 4 nodes forwards 10 times; node 0 handles once
        // more with hops exhausted: 41 events, last at t = 40.
        assert_eq!(sim.processed(), 41);
        assert_eq!(sim.now(), 40.0);
    }

    /// One-directional flooder: entity 0 bursts 64 cross-shard events
    /// per dispatch at a sink entity and re-arms itself a fixed number
    /// of times; the sink only counts.
    struct Pump {
        target: u32,
        bursts_left: u32,
        received: u64,
    }

    impl LogicalProcess for Pump {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, ctx: &mut ShardCtx<'_, Tick>) {
            self.received += 1;
            if self.bursts_left > 0 {
                self.bursts_left -= 1;
                for _ in 0..64 {
                    ctx.send_in(1.0, self.target, Tick);
                }
                if self.bursts_left > 0 {
                    ctx.schedule_in(1.0, Tick);
                }
            }
        }
    }

    fn flood_sim(shards: usize, threads: usize) -> Sim<Pump> {
        let part = StaticPartition::round_robin(2, shards, 1.0);
        let lps = vec![
            Pump {
                target: 1,
                bursts_left: 3,
                received: 0,
            },
            Pump {
                target: 0,
                bursts_left: 0,
                received: 0,
            },
        ];
        let mut sim = build(part, lps, 11, threads).with_event_log();
        sim.schedule(0.0, 0, Tick);
        sim.run();
        sim
    }

    fn run_flood(shards: usize, threads: usize) -> (Vec<EventRecord>, Vec<u64>) {
        let mut sim = flood_sim(shards, threads);
        let log = sim.take_event_log();
        let received = sim.into_lps().into_iter().map(|p| p.received).collect();
        (log, received)
    }

    #[test]
    fn one_directional_floods_arrive_whole() {
        // 192 events cross one edge while the receiving worker has
        // nothing to send back: every one must arrive, in the 1-shard
        // order, although the receiver posts nothing of its own.
        let base = run_flood(1, 1);
        assert_eq!(base.1, vec![3, 192]);
        for (shards, threads) in [(2, 2), (2, 1)] {
            let got = run_flood(shards, threads);
            assert_eq!(
                got, base,
                "divergence at {shards} shards / {threads} threads"
            );
        }
    }

    #[test]
    fn handler_panics_surface_without_deadlocking_workers() {
        struct Bomb;
        #[derive(Debug)]
        struct Go;
        impl LogicalProcess for Bomb {
            type Event = Go;
            fn handle(&mut self, _ev: Go, _ctx: &mut ShardCtx<'_, Go>) {
                panic!("boom");
            }
        }
        let part = StaticPartition::round_robin(4, 4, 1.0);
        let mut sim = build(part, vec![Bomb, Bomb, Bomb, Bomb], 1, 4);
        sim.schedule(0.0, 2, Go);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run();
        }));
        assert!(caught.is_err());
    }

    /// Entity 0 floods shard 1 in the same round that shard 1's only
    /// entity panics: the flooder's worker must still get past both
    /// barriers and leave at the shared decision, or `run()` hangs
    /// instead of re-panicking.
    #[test]
    fn panics_mid_flood_do_not_deadlock() {
        struct FloodOrBomb {
            flood_to: Option<u32>,
        }
        #[derive(Debug)]
        struct Poke;
        impl LogicalProcess for FloodOrBomb {
            type Event = Poke;
            fn handle(&mut self, _ev: Poke, ctx: &mut ShardCtx<'_, Poke>) {
                match self.flood_to {
                    Some(target) => {
                        for _ in 0..64 {
                            ctx.send_in(1.0, target, Poke);
                        }
                    }
                    None => panic!("boom"),
                }
            }
        }
        let part = StaticPartition::round_robin(2, 2, 1.0);
        let lps = vec![
            FloodOrBomb { flood_to: Some(1) },
            FloodOrBomb { flood_to: None },
        ];
        let mut sim = build(part, lps, 1, 2);
        sim.schedule(0.0, 0, Poke);
        sim.schedule(0.0, 1, Poke);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run();
        }));
        assert!(caught.is_err());
    }

    /// At t = 1e16 the clock's ulp is 2.0, so `lb + 1.0` rounds back to
    /// `lb` and the conservative horizons freeze. The kernel must fail
    /// with a diagnostic instead of spinning in zero-progress rounds.
    #[test]
    fn sub_ulp_lookaheads_panic_instead_of_livelocking() {
        for threads in [1, 2] {
            let part = StaticPartition::round_robin(2, 2, 1.0);
            let mut sim = build(part, ring(2, 1), 1, threads);
            sim.schedule(1e16, 0, Tick);
            sim.schedule(1e16, 1, Tick);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                sim.run();
            }));
            let payload = match caught {
                Err(p) => p,
                Ok(()) => unreachable!("frozen run returned at {threads} threads"),
            };
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("cannot advance"),
                "unexpected panic message: {msg}"
            );
        }
    }
}
