//! The discrete-event execution engine: cores, threads, scheduler.
//!
//! # Model
//!
//! A simulation hosts *cores* and *threads*. A thread has a FIFO queue of
//! messages, an affinity set of cores it may run on, and a [`Priority`].
//! Delivering a message to a thread makes it runnable; a free core in its
//! affinity set picks it up and runs one *work item*: the [`Handler`] for the
//! message executes logically instantaneously, declaring how much CPU it
//! consumed via [`Ctx::spend`] and emitting *effects* (messages to other
//! threads, device I/O). The core is then busy for the declared CPU time and
//! the effects materialize when the item completes (run-to-completion
//! approximation; items are microsecond-scale so non-preemption is accurate).
//!
//! When a core picks up a work item from a different thread than the one it
//! last ran, a configurable *context-switch cost* is charged — this is the
//! mechanism behind the paper's thread-pool vs run-to-completion comparisons
//! (§III-B "Inefficient Threading Architecture").
//!
//! Cores select among runnable threads by priority tier, round-robin within a
//! tier. Pinning a thread to a dedicated core (and giving no other thread
//! affinity to that core) reproduces the paper's *priority threads*;
//! a shared pool of cores with many `Normal` threads reproduces its
//! *non-priority threads*; `Low` models background maintenance (compaction)
//! threads that only soak up otherwise-idle cores.
//!
//! # Space-parallel execution (domains)
//!
//! The entity space can be partitioned into *domains* with
//! [`Simulation::set_domains`]: each domain owns a disjoint set of threads,
//! cores and devices, and runs its own event queue, clock, RNG stream and
//! metrics. Execution proceeds in *rounds* under a conservative LBTS-window
//! protocol: with `gmin` the globally earliest pending event and `L` the
//! configured [lookahead](Simulation::set_lookahead) (the minimum latency of
//! any cross-domain message), every domain may safely execute all events in
//! `[gmin, gmin + L)` without hearing from its peers, because any event a
//! peer could still send it lands at `gmin + L` or later. Cross-domain sends
//! are buffered in per-destination outboxes during a round, stamped with the
//! sender's `(time, domain, seq)` key, and merged between rounds; since the
//! event queue orders strictly by the `(time, key)` *value*, merge timing and
//! worker interleaving cannot affect pop order.
//!
//! Rounds are independent of how domains are mapped onto worker threads
//! ([`Simulation::set_workers`]), which is what makes results byte-identical
//! for every worker count: the round sequence, each domain's event order, its
//! RNG stream (split per-domain from the root seed) and its metrics depend
//! only on the topology, never on the parallelism. Workers therefore claim
//! domains afresh every round, stealing from each other, and `workers == 1`
//! runs the same loop on the calling thread; a single-domain simulation
//! degenerates to exactly the original single-threaded loop.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::device::{Device, IoRequest};
use crate::metrics::{Metrics, StageTag};
use crate::rng::SimRng;
use crate::sched::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Index of a simulated thread.
pub type ThreadId = usize;
/// Index of a simulated core.
pub type CoreId = usize;
/// Index of a simulated device.
pub type DeviceId = usize;

/// Scheduling priority of a thread. Lower tiers run first on a contended core.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Priority {
    /// Latency-critical (the paper's priority threads).
    High,
    /// Regular work (PG threads, non-priority threads).
    Normal,
    /// Background maintenance (compaction/sync threads).
    Low,
}

/// Static configuration of a simulated thread.
#[derive(Debug, Clone)]
pub struct ThreadCfg {
    /// Human-readable name, used in panics and reports.
    pub name: String,
    /// Cores the thread may run on. Must be non-empty.
    pub affinity: Vec<CoreId>,
    /// Scheduling priority.
    pub priority: Priority,
}

impl ThreadCfg {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, affinity: Vec<CoreId>, priority: Priority) -> Self {
        ThreadCfg {
            name: name.into(),
            affinity,
            priority,
        }
    }
}

/// Logic driven by the simulation: one callback per delivered message.
///
/// Implemented by the "world" struct owning all protocol state; also
/// implemented for plain closures, which is convenient in tests.
pub trait Handler<M> {
    /// Handles `msg` delivered to `thread`. CPU consumption and outputs are
    /// declared through `ctx`.
    fn handle(&mut self, thread: ThreadId, msg: M, ctx: &mut Ctx<'_, M>);
}

impl<M, F: FnMut(ThreadId, M, &mut Ctx<'_, M>)> Handler<M> for F {
    fn handle(&mut self, thread: ThreadId, msg: M, ctx: &mut Ctx<'_, M>) {
        self(thread, msg, ctx)
    }
}

enum Effect<M> {
    Send {
        to: ThreadId,
        msg: M,
        delay: SimDuration,
    },
    Io {
        dev: DeviceId,
        req: IoRequest,
        notify: ThreadId,
        msg: M,
    },
    DeviceMultiplier {
        dev: DeviceId,
        multiplier: f64,
    },
}

/// Execution context handed to [`Handler::handle`] for one work item.
pub struct Ctx<'a, M> {
    now: SimTime,
    queued: SimDuration,
    spent: SimDuration,
    charges: Vec<(StageTag, SimDuration)>,
    effects: Vec<Effect<M>>,
    rng: &'a mut SimRng,
    stop: bool,
}

impl<'a, M> Ctx<'a, M> {
    /// The simulated instant at which this work item was dispatched.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// How long the message sat in its thread's queue before this item was
    /// dispatched (core contention + thread backlog). Purely observational —
    /// reading it never perturbs scheduling.
    pub fn queued_for(&self) -> SimDuration {
        self.queued
    }

    /// Charges `d` of CPU time to this item, attributed to `tag`.
    pub fn spend(&mut self, tag: StageTag, d: SimDuration) {
        self.spent += d;
        self.charges.push((tag, d));
    }

    /// CPU time charged so far in this item.
    pub fn spent_so_far(&self) -> SimDuration {
        self.spent
    }

    /// Sends `msg` to `to`, arriving when this item completes.
    ///
    /// Zero-delay sends must stay inside the sending entity's domain; a
    /// cross-domain send must carry at least the configured lookahead of
    /// delay (network latency guarantees that on every replication /
    /// heartbeat / monitor hop).
    pub fn send(&mut self, to: ThreadId, msg: M) {
        self.send_after(to, msg, SimDuration::ZERO);
    }

    /// Sends `msg` to `to`, arriving `delay` after this item completes
    /// (network latency, timers).
    pub fn send_after(&mut self, to: ThreadId, msg: M, delay: SimDuration) {
        self.effects.push(Effect::Send { to, msg, delay });
    }

    /// Submits `req` to device `dev` when this item completes; `msg` is
    /// delivered to `notify` at I/O completion. The device and the notified
    /// thread must belong to the submitting thread's domain.
    pub fn submit_io(&mut self, dev: DeviceId, req: IoRequest, notify: ThreadId, msg: M) {
        self.effects.push(Effect::Io {
            dev,
            req,
            notify,
            msg,
        });
    }

    /// Retunes device `dev`'s service-time multiplier when this item
    /// completes (fault injection: gray failures slow a device without
    /// killing it; `1.0` restores healthy timing).
    ///
    /// Handlers cannot touch [`Device`](crate::Device) state directly —
    /// devices are owned by the simulation — so the change is applied as an
    /// effect at item end, like sends and I/O submissions.
    pub fn set_device_service_multiplier(&mut self, dev: DeviceId, multiplier: f64) {
        self.effects
            .push(Effect::DeviceMultiplier { dev, multiplier });
    }

    /// Requests the simulation to halt after this item.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    /// Deterministic randomness (the executing domain's stream).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

struct ThreadState<M> {
    /// Global id: what the handler and every other domain call it.
    id: ThreadId,
    name: String,
    priority: Priority,
    /// Local indexes of the cores the thread may run on.
    affinity: Vec<usize>,
    /// Pending messages, each stamped with its enqueue time so queue-wait
    /// can be attributed exactly (the stamp is never read by the scheduler).
    queue: VecDeque<(SimTime, M)>,
    running: bool,
}

struct CoreState {
    /// Global id, under which metrics report the core.
    id: CoreId,
    /// Local indexes of the threads it runs now and ran last.
    running: Option<usize>,
    last: Option<usize>,
    /// Local indexes of the threads whose affinity includes this core,
    /// sorted by (priority, index).
    candidates: Vec<usize>,
    rr_cursor: usize,
}

/// Where one global thread, core or device id lives: its owning domain and
/// its index in that domain's own storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    domain: u32,
    local: u32,
}

/// The global-id → [`Slot`] tables [`Simulation`] keeps, one per entity
/// kind, and lends to every round. A domain appends what it owns in the
/// order it is added, so local indexes ascend with global ids.
#[derive(Default)]
struct Registry {
    threads: Vec<Slot>,
    cores: Vec<Slot>,
    devices: Vec<Slot>,
}

impl Registry {
    /// Files the next global id in `slots` as `domain`'s entity `local`;
    /// returns that global id.
    fn file(slots: &mut Vec<Slot>, domain: usize, local: usize) -> usize {
        let slot = Slot {
            domain: domain as u32,
            local: u32::try_from(local).expect("fewer than 2^32 entities per domain"),
        };
        slots.push(slot);
        slots.len() - 1
    }
}

/// An event of one domain; `thread` and `core` are local indexes.
enum EventKind<M> {
    Deliver { thread: usize, msg: M },
    CoreFree { core: usize },
}

/// Number of low bits of an event key reserved for the per-domain sequence
/// counter; the domain id occupies the bits above. Keys stay totally ordered
/// and bit-stable for any merge timing because comparison is by value.
const KEY_SEQ_BITS: u32 = 48;

/// Splits a per-domain RNG seed from the root seed. Domain 0 keeps the root
/// seed verbatim so a single-domain simulation is bit-identical to the
/// pre-sharding engine; higher domains get splitmix64-scrambled streams.
fn domain_seed(root: u64, domain: u32) -> u64 {
    if domain == 0 {
        return root;
    }
    let mut z = root.wrapping_add((domain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cross-domain event, stamped `(time, sender's key, thread, msg)`; the
/// thread is the receiving domain's local index.
type Foreign<M> = (SimTime, u64, usize, M);

/// One shard of the entity space: its own clock, event queue, RNG stream,
/// metrics and the entities it owns.
///
/// A domain stores only its own threads, cores and devices, densely, by
/// local index; [`Registry`] maps a global id to its domain and local index.
/// Events and candidate lists hold local indexes, so the dispatch path never
/// translates; a global id arriving from a handler (an I/O's device or
/// notified thread) is translated once and fails loudly if foreign.
struct DomainCore<M> {
    id: u32,
    now: SimTime,
    seq: u64,
    events: EventQueue<EventKind<M>>,
    threads: Vec<ThreadState<M>>,
    cores: Vec<CoreState>,
    devices: Vec<Device>,
    /// Busy time by local thread and core index.
    metrics: Metrics,
    rng: SimRng,
    ctx_switch_cost: SimDuration,
    stopped: bool,
    /// Scratch buffers lent to each work item's [`Ctx`] and reclaimed when
    /// the item completes, so the hot dispatch path allocates nothing.
    scratch_charges: Vec<(StageTag, SimDuration)>,
    scratch_effects: Vec<Effect<M>>,
    /// Cross-domain events produced during the current round, one buffer per
    /// destination domain.
    outbox: Vec<Vec<Foreign<M>>>,
}

impl<M> DomainCore<M> {
    fn new(
        id: u32,
        root_seed: u64,
        queue_hint: usize,
        ctx_switch_cost: SimDuration,
        n_domains: usize,
    ) -> Self {
        DomainCore {
            id,
            now: SimTime::ZERO,
            seq: 0,
            events: EventQueue::new(queue_hint),
            threads: Vec::new(),
            cores: Vec::new(),
            devices: Vec::new(),
            metrics: Metrics::new(0, 0),
            rng: SimRng::seed(domain_seed(root_seed, id)),
            ctx_switch_cost,
            stopped: false,
            scratch_charges: Vec::with_capacity(16),
            scratch_effects: Vec::with_capacity(16),
            outbox: (0..n_domains).map(|_| Vec::new()).collect(),
        }
    }

    /// The next event key: `(domain << 48) | seq`. For domain 0 this equals
    /// the raw sequence number, so single-domain runs reproduce the
    /// pre-sharding event order bit-for-bit.
    fn next_key(&mut self) -> u64 {
        let key = ((self.id as u64) << KEY_SEQ_BITS) | self.seq;
        debug_assert!(self.seq < 1 << KEY_SEQ_BITS, "domain seq overflow");
        self.seq += 1;
        key
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let key = self.next_key();
        self.events.push(time, key, kind);
    }

    /// Accepts an event merged from another domain, keeping the sender's
    /// key so the total order is independent of merge timing.
    fn deliver_foreign(&mut self, time: SimTime, key: u64, thread: usize, msg: M) {
        debug_assert!(
            time > self.now,
            "cross-domain event not beyond the local clock — lookahead violated"
        );
        self.events
            .push(time, key, EventKind::Deliver { thread, msg });
    }

    /// The time of the earliest pending event (`u64::MAX`: none).
    fn peek_nanos(&self) -> u64 {
        self.events.peek_time().map_or(u64::MAX, |t| t.nanos())
    }

    /// The local index of global id `id`, which must be one of this
    /// domain's `what`s.
    fn own(&self, slots: &[Slot], id: usize, what: &str) -> usize {
        match slots.get(id) {
            Some(s) if s.domain == self.id => s.local as usize,
            _ => panic!("{what} {id} is not owned by this domain"),
        }
    }

    /// Adds the core with global id `id`; returns its local index.
    fn add_core(&mut self, id: CoreId) -> usize {
        self.cores.push(CoreState {
            id,
            running: None,
            last: None,
            candidates: Vec::new(),
            rr_cursor: 0,
        });
        self.metrics.grow(self.threads.len(), self.cores.len());
        self.cores.len() - 1
    }

    /// Adds the thread with global id `id`, whose affinity `cfg` gives in
    /// local core indexes; returns its local index.
    fn add_thread(&mut self, id: ThreadId, cfg: ThreadCfg) -> usize {
        let local = self.threads.len();
        self.threads.push(ThreadState {
            id,
            name: cfg.name,
            priority: cfg.priority,
            affinity: cfg.affinity,
            queue: VecDeque::new(),
            running: false,
        });
        self.metrics.grow(self.threads.len(), self.cores.len());
        // Keep candidate lists sorted by (priority, index) so tier scans are
        // cheap. Only the new thread's affinity cores gain a member.
        let threads = &self.threads;
        let key = |t: usize| (threads[t].priority, t);
        let new = key(local);
        for &c in &threads[local].affinity {
            let candidates = &mut self.cores[c].candidates;
            let at = candidates.partition_point(|&t| key(t) <= new);
            candidates.insert(at, local);
        }
        local
    }

    /// Executes every pending event up to the round's horizon. Cross-domain
    /// sends land in [`DomainCore::outbox`]; everything else is identical to
    /// the original single-threaded loop.
    fn run_round<H: Handler<M>>(&mut self, handler: &mut H, round: Round<'_>) {
        while !self.stopped {
            match self.events.peek_time() {
                Some(t) if t <= round.horizon => {}
                _ => break,
            }
            let (time, _key, kind) = self.events.pop().expect("peeked event exists");
            debug_assert!(time >= self.now, "event time regressed");
            self.now = time;
            match kind {
                EventKind::Deliver { thread, msg } => self.on_deliver(handler, thread, msg, round),
                EventKind::CoreFree { core } => self.on_core_free(handler, core, round),
            }
        }
    }

    fn on_deliver<H: Handler<M>>(
        &mut self,
        handler: &mut H,
        thread: usize,
        msg: M,
        round: Round<'_>,
    ) {
        let now = self.now;
        let th = &mut self.threads[thread];
        th.queue.push_back((now, msg));
        if th.running {
            return;
        }
        // Invariant: a runnable thread is only left waiting when all its
        // affinity cores are busy, so taking the first idle core is fair.
        if let Some(core) = self.idle_core(thread) {
            self.run_item(handler, core, thread, round);
        }
    }

    /// The first idle core in `thread`'s affinity set.
    fn idle_core(&self, thread: usize) -> Option<usize> {
        let mut affinity = self.threads[thread].affinity.iter().copied();
        affinity.find(|&c| self.cores[c].running.is_none())
    }

    fn on_core_free<H: Handler<M>>(&mut self, handler: &mut H, core: usize, round: Round<'_>) {
        let state = &mut self.cores[core];
        let finished = state.running.take().expect("CoreFree for an idle core");
        state.last = Some(finished);
        self.threads[finished].running = false;
        if let Some(next) = self.pick_for_core(core) {
            self.run_item(handler, core, next, round);
        }
        // The finished thread may still have queued work and another idle
        // core elsewhere in its affinity set.
        let fin = &self.threads[finished];
        if !fin.running && !fin.queue.is_empty() {
            if let Some(c) = self.idle_core(finished) {
                self.run_item(handler, c, finished, round);
            }
        }
    }

    /// Picks the next thread to run on `core`: highest-priority tier with a
    /// runnable member, round-robin within the tier.
    ///
    /// Two passes over the (priority-sorted) candidate list instead of
    /// collecting the runnable tier into a Vec: this runs once per work item,
    /// so keeping it allocation-free matters for wall-clock throughput.
    fn pick_for_core(&mut self, core: usize) -> Option<usize> {
        let state = &self.cores[core];
        let mut tier: Option<Priority> = None;
        let mut count = 0usize;
        for &t in &state.candidates {
            let th = &self.threads[t];
            if th.running || th.queue.is_empty() {
                continue;
            }
            match tier {
                None => {
                    tier = Some(th.priority);
                    count = 1;
                }
                Some(p) if th.priority == p => count += 1,
                // Candidates are sorted by priority, so a worse tier means
                // we have seen the whole best tier already.
                Some(_) => break,
            }
        }
        let tier = tier?;
        let idx = state.rr_cursor % count;
        let mut seen = 0usize;
        let mut pick = None;
        for &t in &state.candidates {
            let th = &self.threads[t];
            if th.running || th.queue.is_empty() {
                continue;
            }
            if th.priority != tier {
                break;
            }
            if seen == idx {
                pick = Some(t);
                break;
            }
            seen += 1;
        }
        let state = &mut self.cores[core];
        state.rr_cursor = state.rr_cursor.wrapping_add(1);
        pick
    }

    fn run_item<H: Handler<M>>(
        &mut self,
        handler: &mut H,
        core: usize,
        thread: usize,
        round: Round<'_>,
    ) {
        debug_assert!(self.cores[core].running.is_none());
        debug_assert!(!self.threads[thread].running);
        let th = &mut self.threads[thread];
        let (enqueued_at, msg) = th
            .queue
            .pop_front()
            .expect("run_item on thread with empty queue");
        let global = th.id;

        let switching = self.cores[core].last != Some(thread);
        let cs = if switching {
            self.ctx_switch_cost
        } else {
            SimDuration::ZERO
        };

        let mut ctx = Ctx {
            now: self.now,
            queued: self.now.saturating_since(enqueued_at),
            spent: SimDuration::ZERO,
            charges: std::mem::take(&mut self.scratch_charges),
            effects: std::mem::take(&mut self.scratch_effects),
            rng: &mut self.rng,
            stop: false,
        };
        handler.handle(global, msg, &mut ctx);
        let Ctx {
            spent,
            mut charges,
            mut effects,
            stop,
            ..
        } = ctx;

        let total = cs + spent;
        let end = self.now + total;

        if switching && !cs.is_zero() {
            self.metrics.context_switches += 1;
            self.metrics.context_switch_ns += cs.as_nanos();
        }
        self.metrics.charge_core(core, total);
        self.metrics.charge_thread(thread, total);
        for (tag, d) in charges.drain(..) {
            self.metrics.charge_tag(tag, d);
        }
        self.scratch_charges = charges;
        self.metrics.items_run += 1;

        self.cores[core].running = Some(thread);
        self.threads[thread].running = true;
        if stop {
            self.stopped = true;
        }

        let registry = round.registry;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg, delay } => {
                    let dst = registry.threads[to];
                    let thread = dst.local as usize;
                    if dst.domain == self.id {
                        self.push_event(end + delay, EventKind::Deliver { thread, msg });
                    } else {
                        debug_assert!(
                            delay >= round.lookahead,
                            "cross-domain send with delay {delay} below lookahead {}",
                            round.lookahead
                        );
                        let key = self.next_key();
                        self.outbox[dst.domain as usize].push((end + delay, key, thread, msg));
                    }
                }
                Effect::Io {
                    dev,
                    req,
                    notify,
                    msg,
                } => {
                    // Both must belong to the submitting domain.
                    let dev = self.own(&registry.devices, dev, "device");
                    let thread = self.own(&registry.threads, notify, "thread");
                    let done = self.devices[dev].submit(end, req);
                    self.push_event(done, EventKind::Deliver { thread, msg });
                }
                Effect::DeviceMultiplier { dev, multiplier } => {
                    let dev = self.own(&registry.devices, dev, "device");
                    self.devices[dev].set_service_multiplier(multiplier);
                }
            }
        }
        self.scratch_effects = effects;
        self.push_event(end, EventKind::CoreFree { core });
    }
}

/// Where one worker thread of the parallel executor spent its wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerRoundStats {
    /// Executing the domains it claimed and publishing their outboxes.
    pub execute_ns: u64,
    /// Waiting at the barrier that ends the execute phase.
    pub execute_wait_ns: u64,
    /// Draining the mailboxes of the domains it claimed, republishing minima.
    pub merge_ns: u64,
    /// Waiting at the barrier that ends the merge phase.
    pub merge_wait_ns: u64,
    /// Domains it executed, one claim per domain per round.
    pub claims: u64,
    /// Of those claims, the ones taken from another worker's list.
    pub steals: u64,
}

/// The parallel executor's account of its own wall clock, summed over every
/// [`Simulation::run_until_parts`] call that ran on more than one worker.
/// Host time only: it never feeds back into the simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Synchronization rounds executed.
    pub rounds: u64,
    /// One entry per worker thread (empty after one-worker runs only).
    pub workers: Vec<WorkerRoundStats>,
    /// Per domain id, host nanoseconds spent executing and publishing, by
    /// whichever worker claimed it (empty after one-worker runs only).
    pub domain_execute_ns: Vec<u64>,
}

/// What a domain's execution needs from its round: the inclusive horizon,
/// where every global id lives, and the lookahead every cross-domain send
/// carries.
#[derive(Clone, Copy)]
struct Round<'a> {
    horizon: SimTime,
    registry: &'a Registry,
    lookahead: SimDuration,
}

/// The round loop every worker runs (DESIGN.md §15): execute the domains it
/// claims, barrier, drain the mailboxes of those it claims next, barrier.
/// Shared words are written in one phase and read after the barrier that
/// ends it: Release stores pair with Acquire loads; one swap decides a claim.
struct RoundLoop<'a, M, P> {
    /// Per domain: the domain, the handler part that executes it and the
    /// host time its executions took (more than one worker only).
    slots: Vec<Mutex<(&'a mut DomainCore<M>, P, u64)>>,
    workers: usize,
    /// Per domain, the ticket of the last phase that claimed it: round `r`
    /// claims with `2r` and `2r + 1`.
    claims: Vec<AtomicU64>,
    /// Per domain, its [`DomainCore::peek_nanos`].
    mins: Vec<AtomicU64>,
    /// `(src, dst)` mailboxes, row-major by source, flagged when published;
    /// a drained one keeps its buffer for the producer's next swap.
    mailbox: Vec<(AtomicBool, Mutex<Vec<Foreign<M>>>)>,
    /// Per domain, whether any mailbox addressed to it was published to.
    mail: Vec<AtomicBool>,
    /// Read by the snapshot, so written only between a round's two barriers.
    stop: AtomicBool,
    /// A handler stopped its domain or panicked; `stop` after the barrier.
    stop_requested: AtomicBool,
    /// The first handler panic; once set, no worker touches simulation state.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    barrier: Barrier,
    registry: &'a Registry,
    lookahead: SimDuration,
    deadline_n: u64,
}

/// Inclusive round horizon for a global minimum `gmin`: everything in
/// `[gmin, gmin + lookahead)` is safe because the earliest cross-domain
/// message generated this round arrives at `>= gmin + lookahead`.
fn horizon_nanos(gmin: u64, deadline_n: u64, lookahead: SimDuration, domains: usize) -> u64 {
    if domains == 1 {
        // No cross-domain events exist: one round runs to the deadline.
        return deadline_n;
    }
    let la = lookahead.as_nanos().max(1);
    deadline_n.min(gmin.saturating_add(la).saturating_sub(1))
}

const UNPOISONED: &str = "only a handler panic poisons a lock, and then nobody takes it";

impl<M, P> RoundLoop<'_, M, P> {
    /// Runs worker `me` to the stop snapshot, `run` executing one domain's
    /// round; adds where its wall clock went to `spent` (if not alone).
    fn work<R>(&self, me: usize, spent: &mut WorkerRoundStats, mut run: R)
    where
        R: FnMut(&mut DomainCore<M>, &mut P, Round<'_>),
    {
        let (lone, mut lap) = (self.workers == 1, Instant::now());
        // Nanoseconds since the previous call.
        let mut split = || {
            let now = if lone { lap } else { Instant::now() };
            (now - std::mem::replace(&mut lap, now)).as_nanos() as u64
        };
        // A lone worker locks every domain once; others lock what they claim.
        let lock = |d: usize| self.slots[d].lock().expect(UNPOISONED);
        let mut held: Vec<_> = (0..self.slots.len()).filter(|_| lone).map(lock).collect();
        for round_no in 1.. {
            // Post-barrier snapshot: identical on every worker.
            let gmin = self.mins.iter().map(|m| m.load(Acquire)).min();
            let gmin = gmin.expect("at least one domain");
            if self.stop.load(Acquire) || gmin == u64::MAX || gmin > self.deadline_n {
                return;
            }
            let h = horizon_nanos(gmin, self.deadline_n, self.lookahead, self.slots.len());
            let round = Round {
                horizon: SimTime::from_nanos(h),
                registry: self.registry,
                lookahead: self.lookahead,
            };
            self.guarded(|| {
                for slot in held.iter_mut() {
                    let (dom, part, _) = &mut **slot;
                    run(dom, part, round);
                    self.publish(dom);
                }
                for (d, stolen) in self.claimed(me, 2 * round_no) {
                    let mut slot = lock(d);
                    let (dom, part, ns) = &mut *slot;
                    spent.claims += 1;
                    spent.steals += u64::from(stolen);
                    let start = Instant::now();
                    run(dom, part, round);
                    self.publish(dom);
                    *ns += start.elapsed().as_nanos() as u64;
                }
            });
            spent.execute_ns += split();
            if !lone {
                self.barrier.wait();
            }
            spent.execute_wait_ns += split();
            if self.stop_requested.load(Acquire) {
                // What stopped while executing reaches the snapshot only now.
                self.stop.store(true, Release);
            }
            self.guarded(|| {
                held.iter_mut().for_each(|slot| self.merge(slot.0));
                for (d, _) in self.claimed(me, 2 * round_no + 1) {
                    self.merge(lock(d).0);
                }
            });
            spent.merge_ns += split();
            if !lone {
                self.barrier.wait();
            }
            spent.merge_wait_ns += split();
        }
    }

    /// Runs one phase of this worker's share unless a handler has panicked;
    /// a panic is kept for the caller to re-raise and stops the loop.
    fn guarded(&self, phase: impl FnOnce()) {
        // A panic requests a stop first, so the lock is taken only then.
        if self.stop_requested.load(Acquire) && self.panic.lock().expect(UNPOISONED).is_some() {
            return;
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(phase)) {
            self.panic.lock().expect(UNPOISONED).get_or_insert(p);
            self.stop_requested.store(true, Release);
        }
    }

    /// The domains worker `me` claims under `ticket` as the iterator
    /// advances, with whether each was stolen; none for a lone worker.
    fn claimed(&self, me: usize, ticket: u64) -> impl Iterator<Item = (usize, bool)> + '_ {
        let workers = self.workers;
        let domains = if workers > 1 { self.slots.len() } else { 0 };
        let list = move |w: usize| (w..domains).step_by(workers);
        let own = list(me).map(|d| (d, false));
        let others =
            (1..workers).flat_map(move |k| list((me + k) % workers).rev().map(|d| (d, true)));
        let claims = &self.claims;
        own.chain(others).filter(move |&(d, _)| {
            let claim = &claims[d];
            claim.load(Acquire) < ticket && claim.swap(ticket, AcqRel) < ticket
        })
    }

    /// Moves `dom`'s non-empty outboxes into its mailboxes; stops the loop
    /// if a handler stopped `dom`.
    fn publish(&self, dom: &mut DomainCore<M>) {
        if dom.stopped {
            self.stop_requested.store(true, Release);
        }
        let row = dom.id as usize * self.slots.len();
        let outboxes = dom.outbox.iter_mut().zip(&self.mailbox[row..]);
        for ((outbox, (dirty, mailbox)), mail) in outboxes.zip(&self.mail) {
            if !outbox.is_empty() {
                std::mem::swap(&mut *mailbox.lock().expect(UNPOISONED), outbox);
                dirty.store(true, Release);
                mail.store(true, Release);
            }
        }
    }

    /// Drains every mailbox addressed to `dom` in ascending source order and
    /// republishes its earliest pending event.
    fn merge(&self, dom: &mut DomainCore<M>) {
        let (domains, dst) = (self.slots.len(), dom.id as usize);
        if self.mail[dst].load(Acquire) {
            self.mail[dst].store(false, Release);
            for (dirty, mailbox) in self.mailbox[dst..].iter().step_by(domains) {
                if dirty.load(Acquire) {
                    dirty.store(false, Release);
                    for (t, key, th, msg) in mailbox.lock().expect(UNPOISONED).drain(..) {
                        dom.deliver_foreign(t, key, th, msg);
                    }
                }
            }
        }
        self.mins[dst].store(dom.peek_nanos(), Release);
    }
}

/// A deterministic discrete-event simulation of cores, threads and devices.
///
/// ```
/// use rablock_sim::{Simulation, ThreadCfg, Priority, SimDuration, SimTime};
///
/// let mut sim: Simulation<u32> = Simulation::new(1);
/// let core = sim.add_core();
/// let t = sim.add_thread(ThreadCfg::new("worker", vec![core], Priority::Normal));
/// sim.schedule(SimTime::ZERO, t, 5);
/// let mut seen = Vec::new();
/// sim.run_until(
///     &mut |_thread: usize, msg: u32, ctx: &mut rablock_sim::Ctx<'_, u32>| {
///         ctx.spend("work", SimDuration::micros(10));
///         seen.push(msg);
///     },
///     SimTime::from_nanos(1_000_000),
/// );
/// assert_eq!(seen, vec![5]);
/// ```
pub struct Simulation<M> {
    domains: Vec<DomainCore<M>>,
    /// Owning domain and local index of every global id.
    registry: Registry,
    now: SimTime,
    stopped: bool,
    seed: u64,
    queue_hint: usize,
    ctx_switch_cost: SimDuration,
    lookahead: SimDuration,
    workers: usize,
    round_stats: RoundStats,
}

impl<M> Simulation<M> {
    /// Creates an empty single-domain simulation seeded with `seed`.
    ///
    /// The default context-switch cost is 1.2 µs — the commonly measured
    /// direct + indirect (cache pollution) cost on the paper's class of Xeon
    /// servers; override with [`Simulation::set_context_switch_cost`].
    pub fn new(seed: u64) -> Self {
        Self::with_queue_hint(seed, 4096)
    }

    /// Creates an empty simulation with an explicit event-queue sizing hint.
    ///
    /// `queue_hint` is the expected steady-state event population (e.g.
    /// connections × replicas × pipeline depth); it sizes the timing wheel
    /// up front so paper-scale scenarios don't regrow the queue mid-run.
    /// It affects performance only, never results.
    pub fn with_queue_hint(seed: u64, queue_hint: usize) -> Self {
        let ctx_switch_cost = SimDuration::nanos(1_200);
        Simulation {
            domains: vec![DomainCore::new(0, seed, queue_hint, ctx_switch_cost, 1)],
            registry: Registry::default(),
            now: SimTime::ZERO,
            stopped: false,
            seed,
            queue_hint,
            ctx_switch_cost,
            lookahead: SimDuration::ZERO,
            workers: 1,
            round_stats: RoundStats::default(),
        }
    }

    /// Repartitions the (still empty) simulation into `n` domains, each
    /// domain's event queue sized for an even share of the queue hint.
    ///
    /// Must be called before any entity is added: the partition is part of
    /// the topology, so results depend on `n` (domain RNG streams, event
    /// keys) but never on [`Simulation::set_workers`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if entities were already added.
    pub fn set_domains(&mut self, n: usize) {
        assert!(n >= 1, "at least one domain required");
        self.set_domains_sized(&vec![self.queue_hint.div_ceil(n); n]);
    }

    /// Like [`Simulation::set_domains`], with one domain per entry of
    /// `hints`, each event queue sized for its own share of the population:
    /// the events its entities keep pending (a clients' domain holds every
    /// client's, a storage domain its node's share). Hints affect
    /// performance only, never results.
    ///
    /// # Panics
    ///
    /// Panics if `hints` is empty or if entities were already added.
    pub fn set_domains_sized(&mut self, hints: &[usize]) {
        let n = hints.len();
        assert!(n >= 1, "at least one domain required");
        let Registry {
            threads,
            cores,
            devices,
        } = &self.registry;
        assert!(
            threads.is_empty() && cores.is_empty() && devices.is_empty(),
            "set_domains must run before any entity is added"
        );
        self.domains = (hints.iter().enumerate())
            .map(|(d, &hint)| DomainCore::new(d as u32, self.seed, hint, self.ctx_switch_cost, n))
            .collect();
    }

    /// Number of domains the entity space is partitioned into.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Sets the conservative lookahead: the minimum delay every cross-domain
    /// `send_after` is guaranteed to carry (in practice, the minimum
    /// cross-domain link latency). Rounds execute the window
    /// `[gmin, gmin + lookahead)`; larger lookahead means fewer
    /// synchronization rounds. Values below 1 ns are treated as 1 ns.
    pub fn set_lookahead(&mut self, lookahead: SimDuration) {
        self.lookahead = lookahead;
    }

    /// Sets how many OS worker threads [`Simulation::run_until_parts`] may
    /// use (clamped to the domain count; default 1 = the calling thread).
    /// Results are byte-identical for every value by construction.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Rounds, per-worker and per-domain wall clock of the runs on more than
    /// one worker so far (all zeros if there were none).
    pub fn round_stats(&self) -> &RoundStats {
        &self.round_stats
    }

    /// Sum over domains of the largest pending-event population reached so
    /// far (sizing signal for [`Simulation::with_queue_hint`]).
    pub fn queue_high_water(&self) -> u64 {
        self.domains
            .iter()
            .map(|d| d.events.high_water() as u64)
            .sum()
    }

    /// Overrides the cost charged when a core switches between threads.
    pub fn set_context_switch_cost(&mut self, d: SimDuration) {
        self.ctx_switch_cost = d;
        for dom in &mut self.domains {
            dom.ctx_switch_cost = d;
        }
    }

    /// Adds one core to domain 0; returns its id.
    pub fn add_core(&mut self) -> CoreId {
        self.add_core_in(0)
    }

    /// Adds one core to `domain`; returns its global id.
    pub fn add_core_in(&mut self, domain: usize) -> CoreId {
        let id = self.registry.cores.len();
        let local = self.domains[domain].add_core(id);
        Registry::file(&mut self.registry.cores, domain, local)
    }

    /// Adds `n` cores to domain 0; returns their contiguous id range.
    pub fn add_cores(&mut self, n: usize) -> std::ops::Range<CoreId> {
        self.add_cores_in(0, n)
    }

    /// Adds `n` cores to `domain`; returns their contiguous global id range.
    pub fn add_cores_in(&mut self, domain: usize, n: usize) -> std::ops::Range<CoreId> {
        let start = self.registry.cores.len();
        for _ in 0..n {
            self.add_core_in(domain);
        }
        start..self.registry.cores.len()
    }

    /// Adds a thread to domain 0; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the affinity set is empty or references unknown cores.
    pub fn add_thread(&mut self, cfg: ThreadCfg) -> ThreadId {
        self.add_thread_in(0, cfg)
    }

    /// Adds a thread to `domain`; returns its global id.
    ///
    /// # Panics
    ///
    /// Panics if the affinity set is empty, references unknown cores, or
    /// references cores outside `domain` (threads may only run on their own
    /// domain's cores — that is what makes domains independently executable).
    pub fn add_thread_in(&mut self, domain: usize, cfg: ThreadCfg) -> ThreadId {
        assert!(
            !cfg.affinity.is_empty(),
            "thread {:?} has empty affinity",
            cfg.name
        );
        let mut cfg = cfg;
        for c in &mut cfg.affinity {
            let Some(slot) = self.registry.cores.get(*c) else {
                panic!("thread {:?} affinity references unknown core {c}", cfg.name)
            };
            assert!(
                slot.domain as usize == domain,
                "thread {:?} affinity core {c} belongs to domain {}, not {domain}",
                cfg.name,
                slot.domain
            );
            *c = slot.local as usize;
        }
        let id = self.registry.threads.len();
        let local = self.domains[domain].add_thread(id, cfg);
        Registry::file(&mut self.registry.threads, domain, local)
    }

    /// Adds a device to domain 0; returns its id.
    pub fn add_device(&mut self, device: Device) -> DeviceId {
        self.add_device_in(0, device)
    }

    /// Adds a device to `domain`; returns its global id.
    pub fn add_device_in(&mut self, domain: usize, device: Device) -> DeviceId {
        let devices = &mut self.domains[domain].devices;
        devices.push(device);
        Registry::file(&mut self.registry.devices, domain, devices.len() - 1)
    }

    /// Immutable access to a device (stats, profile).
    pub fn device(&self, id: DeviceId) -> &Device {
        let Slot { domain, local } = self.registry.devices[id];
        &self.domains[domain as usize].devices[local as usize]
    }

    /// Mutable access to a device (reset stats after warm-up).
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        let Slot { domain, local } = self.registry.devices[id];
        &mut self.domains[domain as usize].devices[local as usize]
    }

    /// Number of devices added so far.
    pub fn device_count(&self) -> usize {
        self.registry.devices.len()
    }

    /// The current simulated instant (the maximum over domain clocks; equal
    /// to the last `run_until` deadline unless a handler stopped the run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics, merged over domains in domain-id order and
    /// indexed by global thread and core id.
    ///
    /// Each domain counts busy time by its own local indexes; the merge
    /// scatters them to their global ids (disjoint across domains) and sums
    /// everything else, so it is identical for any worker count. Bind the
    /// result once per report; the merge is O(entity count), not free.
    pub fn metrics(&self) -> Metrics {
        let mut merged = Metrics::new(self.registry.threads.len(), self.registry.cores.len());
        let start = self.domains.iter().map(|d| d.metrics.window_start()).min();
        merged.reset_window(start.expect("at least one domain"));
        for dom in &self.domains {
            let threads = dom.threads.iter().map(|t| t.id);
            let cores = dom.cores.iter().map(|c| c.id);
            merged.merge(&dom.metrics, threads, cores);
        }
        merged
    }

    /// Discards accumulated metrics in every domain and restarts the
    /// measurement window at `now` (call after warm-up).
    pub fn reset_metrics_window(&mut self, now: SimTime) {
        for dom in &mut self.domains {
            dom.metrics.reset_window(now);
        }
    }

    /// Name of a thread (for reports).
    pub fn thread_name(&self, t: ThreadId) -> &str {
        &self.thread(t).name
    }

    /// Number of messages currently waiting in `t`'s queue (telemetry probe;
    /// does not count the item being executed).
    pub fn thread_queue_len(&self, t: ThreadId) -> usize {
        self.thread(t).queue.len()
    }

    fn thread(&self, t: ThreadId) -> &ThreadState<M> {
        let Slot { domain, local } = self.registry.threads[t];
        &self.domains[domain as usize].threads[local as usize]
    }

    /// Injects a message for delivery at absolute time `at`.
    ///
    /// Stamped with the *target* domain's key sequence, which is
    /// deterministic because setup runs before (or between) `run_*` calls,
    /// never concurrently with them.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule(&mut self, at: SimTime, thread: ThreadId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        let Slot { domain, local } = self.registry.threads[thread];
        let thread = local as usize;
        self.domains[domain as usize].push_event(at, EventKind::Deliver { thread, msg });
    }

    /// Runs until `deadline` (inclusive) or until a handler calls
    /// [`Ctx::stop`] or the event queue drains. The clock is advanced to
    /// `deadline` if the queue drained early, so measurement windows stay
    /// well-defined. Returns the instant the run stopped at.
    ///
    /// One handler serves every domain, so the round loop runs with one
    /// worker on the calling thread (no `Send` bound) — for a single-domain
    /// simulation, exactly the original engine loop.
    pub fn run_until<H: Handler<M>>(&mut self, handler: &mut H, deadline: SimTime) -> SimTime {
        self.run_shared(handler, Some(deadline))
    }

    /// Runs until the event queue is empty or a handler stops the run.
    /// The clock stops at the last processed event.
    pub fn run_to_completion<H: Handler<M>>(&mut self, handler: &mut H) -> SimTime {
        self.run_shared(handler, None)
    }

    /// True if a handler called [`Ctx::stop`].
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Like [`Simulation::run_until`], but with one handler *part* per
    /// domain so domains can execute on separate worker threads
    /// ([`Simulation::set_workers`]). `parts[d]` handles exactly the events
    /// of domain `d`; results are byte-identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `parts.len() != domain_count()`, and re-raises the first
    /// panic of any handler part.
    pub fn run_until_parts<P>(&mut self, parts: &mut [P], deadline: SimTime) -> SimTime
    where
        P: Handler<M> + Send,
        M: Send,
    {
        assert_eq!(
            parts.len(),
            self.domains.len(),
            "one handler part per domain"
        );
        let workers = self.workers.min(self.domains.len()).max(1);
        self.round_loop(Some(deadline), workers, parts.iter_mut(), |lp, spent| {
            let run = |dom: &mut DomainCore<M>, part: &mut &mut P, round: Round<'_>| {
                dom.run_round(&mut **part, round)
            };
            if workers == 1 {
                return lp.work(0, &mut WorkerRoundStats::default(), run);
            }
            // The calling thread built the entities; handler allocations in its
            // malloc arena would raise peak RSS (~60 MiB at 256 OSDs).
            std::thread::scope(|s| {
                for (w, spent) in spent.iter_mut().enumerate().take(workers) {
                    s.spawn(move || lp.work(w, spent, run));
                }
            });
        })
    }

    /// The one-worker round loop with a single handler for every domain.
    fn run_shared<H: Handler<M>>(&mut self, handler: &mut H, deadline: Option<SimTime>) -> SimTime {
        self.round_loop(deadline, 1, std::iter::repeat(()), |lp, _| {
            let mut spent = WorkerRoundStats::default();
            lp.work(0, &mut spent, |dom, _, round| dom.run_round(handler, round))
        })
    }

    /// Lets `drive` run the [`RoundLoop`] of every domain and its part, then
    /// re-raises a handler panic and returns the clock: the latest domain
    /// clock, or the deadline unless a handler stopped the run.
    fn round_loop<P>(
        &mut self,
        deadline: Option<SimTime>,
        workers: usize,
        parts: impl IntoIterator<Item = P>,
        drive: impl FnOnce(&RoundLoop<'_, M, P>, &mut [WorkerRoundStats]),
    ) -> SimTime {
        let n = self.domains.len();
        let lp = RoundLoop {
            mins: self.domains.iter().map(|d| d.peek_nanos().into()).collect(),
            stop: AtomicBool::new(self.domains.iter().any(|d| d.stopped)),
            slots: (self.domains.iter_mut().zip(parts))
                .map(|(dom, part)| Mutex::new((dom, part, 0)))
                .collect(),
            workers,
            claims: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mailbox: (0..n * n).map(|_| Default::default()).collect(),
            mail: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stop_requested: AtomicBool::new(false),
            panic: Mutex::new(None),
            barrier: Barrier::new(workers),
            registry: &self.registry,
            lookahead: self.lookahead,
            deadline_n: deadline.map_or(u64::MAX, SimTime::nanos),
        };
        let stats = &mut self.round_stats;
        if workers > stats.workers.len().max(1) {
            stats.workers.resize(workers, WorkerRoundStats::default());
        }
        drive(&lp, &mut stats.workers);
        if let Some(p) = lp.panic.into_inner().expect(UNPOISONED) {
            resume_unwind(p);
        }
        if workers > 1 {
            // Every round claims domain 0 with two tickets.
            stats.rounds += lp.claims[0].load(Acquire) / 2;
            stats.domain_execute_ns.resize(n, 0);
            for (total, slot) in stats.domain_execute_ns.iter_mut().zip(lp.slots) {
                *total += slot.into_inner().expect(UNPOISONED).2;
            }
        }
        self.stopped = self.domains.iter().any(|d| d.stopped);
        let reached = self.domains.iter().map(|d| d.now);
        let reached = reached.chain(deadline.filter(|_| !self.stopped));
        self.now = reached.fold(self.now, SimTime::max);
        self.now
    }
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("domains", &self.domains.len())
            .field("threads", &self.registry.threads.len())
            .field("cores", &self.registry.cores.len())
            .field("devices", &self.registry.devices.len())
            .field(
                "pending_events",
                &self.domains.iter().map(|d| d.events.len()).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceProfile, SsdState};
    use proptest::prelude::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;
    use std::time::Duration;

    impl<M> Simulation<M> {
        /// The sequential reference the round loop is tested against:
        /// compute the LBTS window, let every domain run it in id order,
        /// merge outboxes in ascending source-domain order, repeat.
        fn seq_rounds<P: Handler<M>>(&mut self, parts: &mut [P], deadline: SimTime) -> SimTime {
            let d_count = self.domains.len();
            let deadline_n = deadline.nanos();
            loop {
                if self.domains.iter().any(|d| d.stopped) {
                    break;
                }
                let gmin = self.domains.iter().map(|d| d.peek_nanos()).min();
                let gmin = gmin.expect("at least one domain");
                if gmin == u64::MAX || gmin > deadline_n {
                    break;
                }
                let h = horizon_nanos(gmin, deadline_n, self.lookahead, d_count);
                let round = Round {
                    horizon: SimTime::from_nanos(h),
                    registry: &self.registry,
                    lookahead: self.lookahead,
                };
                for (dom, part) in self.domains.iter_mut().zip(parts.iter_mut()) {
                    dom.run_round(part, round);
                }
                for src in 0..d_count {
                    for dst in 0..d_count {
                        let mut buf = std::mem::take(&mut self.domains[src].outbox[dst]);
                        for (t, key, th, msg) in buf.drain(..) {
                            self.domains[dst].deliver_foreign(t, key, th, msg);
                        }
                        self.domains[src].outbox[dst] = buf;
                    }
                }
            }
            self.stopped = self.domains.iter().any(|d| d.stopped);
            for d in &self.domains {
                self.now = self.now.max(d.now);
            }
            if !self.stopped {
                self.now = self.now.max(deadline);
            }
            self.now
        }
    }

    fn one_core_one_thread() -> (Simulation<u32>, ThreadId) {
        let mut sim: Simulation<u32> = Simulation::new(42);
        let c = sim.add_core();
        let t = sim.add_thread(ThreadCfg::new("t0", vec![c], Priority::Normal));
        (sim, t)
    }

    #[test]
    fn messages_process_in_fifo_order() {
        let (mut sim, t) = one_core_one_thread();
        for i in 0..5 {
            sim.schedule(SimTime::ZERO, t, i);
        }
        let mut seen = Vec::new();
        sim.run_to_completion(&mut |_t: usize, m: u32, ctx: &mut Ctx<'_, u32>| {
            ctx.spend("w", SimDuration::micros(1));
            seen.push(m);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cpu_time_serializes_on_one_core() {
        let (mut sim, t) = one_core_one_thread();
        for i in 0..3 {
            sim.schedule(SimTime::ZERO, t, i);
        }
        let end = sim.run_to_completion(&mut |_t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
            ctx.spend("w", SimDuration::micros(10));
        });
        // First item pays one context switch (core cold), rest are same-thread.
        assert_eq!(
            end,
            SimTime::ZERO + SimDuration::micros(30) + SimDuration::nanos(1_200)
        );
        assert_eq!(sim.metrics().context_switches, 1);
    }

    #[test]
    fn context_switches_charged_between_threads() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        let c = sim.add_core();
        let a = sim.add_thread(ThreadCfg::new("a", vec![c], Priority::Normal));
        let b = sim.add_thread(ThreadCfg::new("b", vec![c], Priority::Normal));
        // Offered interleaved, but the scheduler batches per thread: the
        // core drains a's queue before switching to b (fewer switches is the
        // whole point of thread batching).
        sim.schedule(SimTime::ZERO, a, 0);
        sim.schedule(SimTime::from_nanos(1), b, 1);
        sim.schedule(SimTime::from_nanos(2), a, 2);
        sim.schedule(SimTime::from_nanos(3), b, 3);
        let mut order = Vec::new();
        sim.run_to_completion(&mut |_t: usize, m: u32, ctx: &mut Ctx<'_, u32>| {
            ctx.spend("w", SimDuration::micros(5));
            order.push(m);
        });
        assert_eq!(order, vec![0, 2, 1, 3]);
        // Cold start on a, then one switch a->b.
        assert_eq!(sim.metrics().context_switches, 2);
    }

    #[test]
    fn high_priority_thread_preferred_on_contended_core() {
        let mut sim: Simulation<&'static str> = Simulation::new(1);
        let c = sim.add_core();
        let lo = sim.add_thread(ThreadCfg::new("lo", vec![c], Priority::Low));
        let hi = sim.add_thread(ThreadCfg::new("hi", vec![c], Priority::High));
        let busy = sim.add_thread(ThreadCfg::new("busy", vec![c], Priority::Normal));
        // Occupy the core first, then make both waiters runnable while busy runs.
        sim.schedule(SimTime::ZERO, busy, "busy");
        sim.schedule(SimTime::from_nanos(10), lo, "lo");
        sim.schedule(SimTime::from_nanos(20), hi, "hi");
        let mut order = Vec::new();
        sim.run_to_completion(
            &mut |_t: usize, m: &'static str, ctx: &mut Ctx<'_, &'static str>| {
                ctx.spend("w", SimDuration::micros(100));
                order.push(m);
            },
        );
        assert_eq!(order, vec!["busy", "hi", "lo"]);
    }

    #[test]
    fn work_spreads_across_pool_cores() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        let cores = sim.add_cores(4);
        let affinity: Vec<_> = cores.clone().collect();
        let mut threads = Vec::new();
        for i in 0..4 {
            threads.push(sim.add_thread(ThreadCfg::new(
                format!("w{i}"),
                affinity.clone(),
                Priority::Normal,
            )));
        }
        for (i, &t) in threads.iter().enumerate() {
            sim.schedule(SimTime::ZERO, t, i as u32);
        }
        let end = sim.run_to_completion(&mut |_t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
            ctx.spend("w", SimDuration::micros(50));
        });
        // All four items run in parallel: wall time ~ one item, not four.
        assert!(end < SimTime::ZERO + SimDuration::micros(60), "end={end}");
    }

    #[test]
    fn device_io_completion_delivers_message() {
        let mut sim: Simulation<&'static str> = Simulation::new(1);
        let c = sim.add_core();
        let t = sim.add_thread(ThreadCfg::new("t", vec![c], Priority::Normal));
        let dev = sim.add_device(Device::new(
            "ssd",
            DeviceProfile::nvme_pm1725a(SsdState::Steady),
        ));
        sim.schedule(SimTime::ZERO, t, "submit");
        let mut completed_at = SimTime::ZERO;
        sim.run_to_completion(
            &mut |_t: usize, m: &'static str, ctx: &mut Ctx<'_, &'static str>| match m {
                "submit" => {
                    ctx.spend("OS", SimDuration::micros(2));
                    ctx.submit_io(dev, IoRequest::write(4096), 0, "done");
                }
                "done" => completed_at = ctx.now(),
                _ => unreachable!(),
            },
        );
        assert!(
            completed_at > SimTime::ZERO + SimDuration::micros(40),
            "at {completed_at}"
        );
        assert_eq!(sim.device(dev).stats().writes, 1);
    }

    #[test]
    fn runs_are_deterministic() {
        fn run() -> (SimTime, u64) {
            let mut sim: Simulation<u32> = Simulation::new(7);
            let cores = sim.add_cores(2);
            let aff: Vec<_> = cores.collect();
            let t0 = sim.add_thread(ThreadCfg::new("a", aff.clone(), Priority::Normal));
            let t1 = sim.add_thread(ThreadCfg::new("b", aff, Priority::Normal));
            for i in 0..100 {
                sim.schedule(
                    SimTime::from_nanos(i * 10),
                    if i % 2 == 0 { t0 } else { t1 },
                    i as u32,
                );
            }
            let end = sim.run_to_completion(&mut |_t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
                let jitter = ctx.rng().below(500);
                ctx.spend("w", SimDuration::nanos(1_000 + jitter));
            });
            (end, sim.metrics().items_run)
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn stop_halts_the_run() {
        let (mut sim, t) = one_core_one_thread();
        for i in 0..10 {
            sim.schedule(SimTime::ZERO, t, i);
        }
        let mut n = 0;
        sim.run_to_completion(&mut |_t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
            n += 1;
            if n == 3 {
                ctx.stop();
            }
        });
        assert_eq!(n, 3);
        assert!(sim.is_stopped());
    }

    #[test]
    fn deadline_pauses_and_resumes() {
        let (mut sim, t) = one_core_one_thread();
        for i in 0..4 {
            sim.schedule(SimTime::from_nanos(i * 1_000_000), t, i as u32);
        }
        let seen = std::cell::Cell::new(0u32);
        let mut handler = |_t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
            ctx.spend("w", SimDuration::micros(1));
            seen.set(seen.get() + 1);
        };
        sim.run_until(&mut handler, SimTime::from_nanos(1_500_000));
        assert_eq!(seen.get(), 2);
        sim.run_to_completion(&mut handler);
        assert_eq!(seen.get(), 4);
    }

    #[test]
    #[should_panic(expected = "empty affinity")]
    fn empty_affinity_rejected() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        sim.add_thread(ThreadCfg::new("bad", vec![], Priority::Normal));
    }

    // ----- space-parallel (domain) tests -----

    const LOOKAHEAD: SimDuration = SimDuration::micros(20);

    /// Per-domain handler used by the sharding tests: bounces messages
    /// between the two domains with `LOOKAHEAD` delay, does local chatter
    /// with RNG jitter, and logs every delivery it sees.
    struct PingPong {
        peer: ThreadId,
        local: ThreadId,
        log: Vec<(u64, ThreadId, u32)>,
    }

    impl Handler<u32> for PingPong {
        fn handle(&mut self, thread: ThreadId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push((ctx.now().nanos(), thread, msg));
            let jitter = ctx.rng().below(700);
            ctx.spend("w", SimDuration::nanos(300 + jitter));
            if msg > 0 {
                if msg.is_multiple_of(3) {
                    // Local zero-delay hop before bouncing onward.
                    ctx.send(self.local, msg - 1);
                } else {
                    ctx.send_after(self.peer, msg - 1, LOOKAHEAD);
                }
            }
        }
    }

    /// Two domains, one core + two threads each; returns the sim and the
    /// per-domain handler parts.
    fn two_domain_setup(workers: usize) -> (Simulation<u32>, Vec<PingPong>) {
        let mut sim: Simulation<u32> = Simulation::new(99);
        sim.set_domains(2);
        sim.set_lookahead(LOOKAHEAD);
        sim.set_workers(workers);
        let c0 = sim.add_core_in(0);
        let c1 = sim.add_core_in(1);
        let a0 = sim.add_thread_in(0, ThreadCfg::new("a0", vec![c0], Priority::Normal));
        let a1 = sim.add_thread_in(0, ThreadCfg::new("a1", vec![c0], Priority::Normal));
        let b0 = sim.add_thread_in(1, ThreadCfg::new("b0", vec![c1], Priority::Normal));
        let b1 = sim.add_thread_in(1, ThreadCfg::new("b1", vec![c1], Priority::Normal));
        // Seed traffic in both domains at staggered times.
        for i in 0..8u64 {
            sim.schedule(SimTime::from_nanos(i * 5_000), a0, 30 + i as u32);
            sim.schedule(SimTime::from_nanos(i * 7_000 + 1), b1, 29 + i as u32);
        }
        let parts = vec![
            PingPong {
                peer: b0,
                local: a1,
                log: Vec::new(),
            },
            PingPong {
                peer: a1,
                local: b0,
                log: Vec::new(),
            },
        ];
        (sim, parts)
    }

    #[test]
    fn cross_domain_send_pays_lookahead() {
        let (mut sim, mut parts) = two_domain_setup(1);
        let deadline = SimTime::from_nanos(50_000_000);
        let end = sim.run_until_parts(&mut parts, deadline);
        assert_eq!(end, deadline);
        // Both domains saw traffic, including bounced cross-domain messages.
        assert!(parts[0].log.len() > 20, "{}", parts[0].log.len());
        assert!(parts[1].log.len() > 20, "{}", parts[1].log.len());
        let items: u64 = sim.metrics().items_run;
        assert_eq!(items as usize, parts[0].log.len() + parts[1].log.len());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let (mut sim, mut parts) = two_domain_setup(workers);
            let end = sim.run_until_parts(&mut parts, SimTime::from_nanos(50_000_000));
            let m = sim.metrics();
            (
                end,
                parts[0].log.clone(),
                parts[1].log.clone(),
                m.items_run,
                m.context_switches,
                sim.queue_high_water(),
            )
        };
        let seq = run(1);
        let par = run(2);
        assert_eq!(seq, par);
        let par4 = run(4); // clamps to 2 workers, must still match
        assert_eq!(seq, par4);
        // Nine domains leave uneven lists at 2 and 8 workers, where stealing
        // happens; 3 workers divide them evenly.
        let busy = Busy::cfg(9, LOOKAHEAD);
        let one = busy.run(1);
        for workers in [2, 3, 8] {
            assert_eq!(one, busy.run(workers), "{workers} workers");
        }
    }

    #[test]
    fn round_stats_account_for_parallel_runs_only() {
        let (mut sim, mut parts) = two_domain_setup(1);
        sim.run_until_parts(&mut parts, SimTime::from_nanos(50_000_000));
        assert_eq!(*sim.round_stats(), RoundStats::default());

        let (mut sim, mut parts) = two_domain_setup(2);
        sim.run_until_parts(&mut parts, SimTime::from_nanos(200_000));
        let first = sim.round_stats().clone();
        assert!(first.rounds > 0);
        assert_eq!(first.workers.len(), 2);
        sim.run_until_parts(&mut parts, SimTime::from_nanos(50_000_000));
        let both = sim.round_stats();
        assert!(both.rounds > first.rounds, "a second run adds its rounds");
        for (now, then) in both.workers.iter().zip(&first.workers) {
            assert!(now.execute_ns > then.execute_ns);
            assert!(now.merge_ns > then.merge_ns);
        }
        assert_eq!(both.domain_execute_ns.len(), 2);
    }

    #[test]
    fn tiny_lookahead_still_converges_and_matches() {
        // 1 ns lookahead forces a synchronization round per distinct
        // timestamp — the worst case for the LBTS window protocol.
        let run = |workers: usize| {
            let (mut sim, mut parts) = two_domain_setup(workers);
            sim.set_lookahead(SimDuration::nanos(1));
            let end = sim.run_until_parts(&mut parts, SimTime::from_nanos(5_000_000));
            (end, parts[0].log.clone(), parts[1].log.clone())
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn single_domain_parts_match_legacy_run_until() {
        // run_until_parts on a 1-domain sim must behave exactly like the
        // legacy loop (same events, same metrics).
        let legacy = {
            let (mut sim, t) = one_core_one_thread();
            for i in 0..6 {
                sim.schedule(SimTime::from_nanos(i * 1_000), t, i as u32);
            }
            let mut seen: Vec<u32> = Vec::new();
            sim.run_until(
                &mut |_t: usize, m: u32, ctx: &mut Ctx<'_, u32>| {
                    ctx.spend("w", SimDuration::micros(2));
                    seen.push(m);
                },
                SimTime::from_nanos(10_000_000),
            );
            (seen, sim.metrics().items_run, sim.queue_high_water())
        };
        let parts_run = {
            let (mut sim, t) = one_core_one_thread();
            for i in 0..6 {
                sim.schedule(SimTime::from_nanos(i * 1_000), t, i as u32);
            }
            struct Collect(Vec<u32>);
            impl Handler<u32> for Collect {
                fn handle(&mut self, _t: ThreadId, m: u32, ctx: &mut Ctx<'_, u32>) {
                    ctx.spend("w", SimDuration::micros(2));
                    self.0.push(m);
                }
            }
            let mut parts = vec![Collect(Vec::new())];
            sim.run_until_parts(&mut parts, SimTime::from_nanos(10_000_000));
            let seen = std::mem::take(&mut parts[0].0);
            (seen, sim.metrics().items_run, sim.queue_high_water())
        };
        assert_eq!(legacy, parts_run);
    }

    #[test]
    fn domain_rng_streams_differ_but_domain0_keeps_root_seed() {
        assert_eq!(domain_seed(1234, 0), 1234);
        assert_ne!(domain_seed(1234, 1), domain_seed(1234, 2));
        assert_ne!(domain_seed(1234, 1), 1234);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below lookahead")]
    fn cross_domain_send_below_lookahead_is_rejected() {
        let (mut sim, mut parts) = two_domain_setup(1);
        // Overriding the handler wiring: send with zero delay across
        // domains by abusing a raw closure part is awkward, so instead
        // raise the configured lookahead above what PingPong pays.
        sim.set_lookahead(SimDuration::micros(200));
        sim.run_until_parts(&mut parts, SimTime::from_nanos(50_000_000));
    }

    #[test]
    #[should_panic(expected = "not owned by this domain")]
    fn cross_domain_direct_access_fails_loudly() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        sim.set_domains(2);
        let c1 = sim.add_core_in(1);
        let t1 = sim.add_thread_in(1, ThreadCfg::new("b", vec![c1], Priority::Normal));
        // Thread t1 lives in domain 1; domain 0 translating its global id
        // (an I/O completion notifying it) must refuse. Simulate directly:
        let _ = sim.domains[0].own(&sim.registry.threads, t1, "thread");
    }

    /// Threads, cores and devices added interleaved across four domains.
    fn interleaved(domains: usize) -> Simulation<u32> {
        let mut sim: Simulation<u32> = Simulation::with_queue_hint(1, 1 << 14);
        sim.set_domains(domains);
        for round in 0..3 {
            for d in 0..domains {
                let c = sim.add_core_in(d);
                for t in 0..=d {
                    let cfg =
                        ThreadCfg::new(format!("d{d}.r{round}.t{t}"), vec![c], Priority::Normal);
                    sim.add_thread_in(d, cfg);
                }
                let profile = DeviceProfile::nvme_pm1725a(SsdState::Steady);
                sim.add_device_in(d, Device::new(format!("dev{d}.{round}"), profile));
            }
        }
        sim
    }

    #[test]
    fn a_domain_stores_only_what_it_owns() {
        let sim = interleaved(4);
        for (d, dom) in sim.domains.iter().enumerate() {
            // Domain d added 3 cores, 3 devices and 3 × (d + 1) threads.
            assert_eq!(dom.cores.len(), 3);
            assert_eq!(dom.devices.len(), 3);
            assert_eq!(dom.threads.len(), 3 * (d + 1));
            assert_eq!(dom.metrics.sizes(), (3 * (d + 1), 3));
            // Local order follows global order, and the registry agrees.
            let ids: Vec<usize> = dom.threads.iter().map(|t| t.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            for (local, &id) in ids.iter().enumerate() {
                let want = Slot {
                    domain: d as u32,
                    local: local as u32,
                };
                assert_eq!(sim.registry.threads[id], want);
                assert!(sim.thread_name(id).starts_with(&format!("d{d}.")));
            }
            for (local, core) in dom.cores.iter().enumerate() {
                let want = Slot {
                    domain: d as u32,
                    local: local as u32,
                };
                assert_eq!(sim.registry.cores[core.id], want);
            }
        }
        assert_eq!(sim.device(6).name(), "dev2.1");
        // The merged report is still indexed by global id.
        let m = sim.metrics();
        assert_eq!(m.sizes(), (sim.registry.threads.len(), 12));
    }

    #[test]
    #[should_panic(expected = "device 1 is not owned by this domain")]
    fn io_on_a_foreign_device_fails_loudly() {
        let mut sim = interleaved(2);
        // Device 1 lives in domain 1; thread 0 runs in domain 0.
        sim.schedule(SimTime::ZERO, 0, 0);
        sim.run_to_completion(&mut |t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
            ctx.submit_io(1, IoRequest::write(4096), t, 1);
        });
    }

    #[test]
    fn busy_time_is_reported_by_global_id() {
        let mut sim = interleaved(3);
        let threads = sim.registry.threads.len();
        for t in 0..threads {
            sim.schedule(SimTime::ZERO, t, t as u32);
        }
        let mut parts: Vec<_> = (0..3)
            .map(|_| {
                |t: usize, _m: u32, ctx: &mut Ctx<'_, u32>| {
                    ctx.spend("w", SimDuration::nanos(1_000 * (t as u64 + 1)));
                }
            })
            .collect();
        sim.set_context_switch_cost(SimDuration::ZERO);
        sim.run_until_parts(&mut parts, SimTime::from_nanos(1_000_000));
        let m = sim.metrics();
        for t in 0..threads {
            assert_eq!(m.thread_busy(t), 1_000 * (t as u64 + 1), "thread {t}");
        }
        let busy: u64 = (0..sim.registry.cores.len()).map(|c| m.core_busy(c)).sum();
        assert_eq!(busy, (1..=threads as u64).map(|t| 1_000 * t).sum::<u64>());
    }

    #[test]
    fn a_domain_queue_is_sized_by_its_share() {
        // With no shares given, each domain gets an even split of the hint.
        let whole = EventQueue::<()>::new(1 << 14).slot_count();
        let even = EventQueue::<()>::new((1 << 14) / 4).slot_count();
        let sim = interleaved(4);
        for dom in &sim.domains {
            assert_eq!(dom.events.slot_count(), even);
            assert!(dom.events.slot_count() < whole);
        }
        // A clients' domain sized by its own share keeps the others small.
        let mut sim: Simulation<u32> = Simulation::with_queue_hint(1, 1 << 14);
        sim.set_domains_sized(&[1 << 14, 1000, 1000]);
        assert_eq!(sim.domains[0].events.slot_count(), whole);
        let small = EventQueue::<()>::new(1000).slot_count();
        for dom in &sim.domains[1..] {
            assert_eq!(dom.events.slot_count(), small);
            assert!(small < even);
        }
    }

    #[test]
    #[should_panic(expected = "before any entity is added")]
    fn set_domains_after_entities_rejected() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        sim.add_core();
        sim.set_domains(2);
    }

    #[test]
    #[should_panic(expected = "belongs to domain")]
    fn thread_affinity_cannot_cross_domains() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        sim.set_domains(2);
        let c0 = sim.add_core_in(0);
        sim.add_thread_in(1, ThreadCfg::new("x", vec![c0], Priority::Normal));
    }

    /// Domain `domain`'s part of the [`Busy`] workload: every delivery is
    /// logged, draws RNG jitter, burns `weight` units of host time and hops
    /// on to its twin thread or to a thread of another domain.
    struct BusyPart {
        domain: usize,
        domains: usize,
        lookahead: SimDuration,
        weight: u64,
        /// The item at which this part stops the run.
        stop_at: Option<usize>,
        log: Vec<(u64, ThreadId, u32)>,
    }

    impl Handler<u32> for BusyPart {
        fn handle(&mut self, thread: ThreadId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push((ctx.now().nanos(), thread, msg));
            let jitter = ctx.rng().below(700);
            ctx.spend("w", SimDuration::nanos(300 + jitter));
            let mut x = 0u64;
            for i in 0..self.weight {
                x = std::hint::black_box(x ^ i);
            }
            if self.stop_at == Some(self.log.len()) {
                ctx.stop();
            }
            if msg == 0 {
                return;
            }
            if msg.is_multiple_of(3) {
                // Threads 2d and 2d + 1 are domain d's.
                ctx.send(thread ^ 1, msg - 1);
            } else {
                let hop = 1 + msg as usize % (self.domains - 1);
                let to = 2 * ((self.domain + hop) % self.domains) + (msg as usize & 1);
                let delay = self.lookahead + SimDuration::nanos(ctx.rng().below(3_000));
                ctx.send_after(to, msg - 1, delay);
            }
        }
    }

    /// Every domain's log, the merged metrics, the queue high water, the
    /// clock and the stop flag: what a run must reproduce exactly, whatever
    /// worker executed which domain.
    type Outcome = (Vec<Vec<(u64, ThreadId, u32)>>, Metrics, u64, SimTime, bool);

    /// A workload whose domains take skewed host time, so that claims and
    /// steals really interleave: `domains` domains of one core and two
    /// threads, three message chains seeded in each.
    struct Busy {
        domains: usize,
        lookahead: SimDuration,
        /// Host-time units each domain burns per item.
        weights: Vec<u64>,
        /// `(domain, item)`: that domain's part stops the run at that item.
        stop: Option<(usize, usize)>,
        deadline: SimTime,
    }

    impl Busy {
        fn cfg(domains: usize, lookahead: SimDuration) -> Self {
            Busy {
                domains,
                lookahead,
                weights: (0..domains).map(|d| (d as u64 % 3) * 200).collect(),
                stop: None,
                deadline: SimTime::from_nanos(3_000_000),
            }
        }

        fn build(&self, workers: usize) -> (Simulation<u32>, Vec<BusyPart>) {
            let mut sim: Simulation<u32> = Simulation::new(77);
            sim.set_domains(self.domains);
            sim.set_lookahead(self.lookahead);
            sim.set_workers(workers);
            for d in 0..self.domains {
                let c = sim.add_core_in(d);
                for name in ["a", "b"] {
                    sim.add_thread_in(d, ThreadCfg::new(name, vec![c], Priority::Normal));
                }
                for i in 0..3 {
                    let at = SimTime::from_nanos(i * 4_000 + d as u64 * 100);
                    sim.schedule(at, 2 * d + (i as usize & 1), 10 + i as u32);
                }
            }
            let parts = (0..self.domains)
                .map(|domain| BusyPart {
                    domain,
                    domains: self.domains,
                    lookahead: self.lookahead,
                    weight: self.weights[domain],
                    stop_at: self
                        .stop
                        .and_then(|(d, item)| (d == domain).then_some(item)),
                    log: Vec::new(),
                })
                .collect();
            (sim, parts)
        }

        /// Runs to the deadline in two slices, the way `ClusterSim::run`
        /// samples telemetry, through `run`.
        fn outcome<R>(&self, workers: usize, mut run: R) -> Outcome
        where
            R: FnMut(&mut Simulation<u32>, &mut [BusyPart], SimTime),
        {
            let (mut sim, mut parts) = self.build(workers);
            run(
                &mut sim,
                &mut parts,
                SimTime::from_nanos(self.deadline.nanos() / 2),
            );
            run(&mut sim, &mut parts, self.deadline);
            let logs = parts.into_iter().map(|p| p.log).collect();
            let high_water = sim.queue_high_water();
            (logs, sim.metrics(), high_water, sim.now(), sim.is_stopped())
        }

        fn run(&self, workers: usize) -> Outcome {
            self.outcome(workers, |sim, parts, t| {
                sim.run_until_parts(parts, t);
            })
        }

        fn reference(&self) -> Outcome {
            self.outcome(1, |sim, parts, t| {
                sim.seq_rounds(parts, t);
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The round loop reproduces the sequential reference for any
        /// domain count, worker count, window and stop request, while a
        /// skewed host-time load makes workers claim and steal in a
        /// different order every round.
        #[test]
        fn round_loop_matches_the_sequential_reference(
            domains in 2usize..41,
            workers in 1usize..9,
            lookahead_ns in 1u64..20_001,
            heavy in 0usize..40,
            skew in 0u32..15,
            stop in 0usize..80,
            deadline_us in 20u64..800,
        ) {
            let mut busy = Busy::cfg(domains, SimDuration::nanos(lookahead_ns));
            busy.weights[heavy % domains] = 1 << skew;
            busy.stop = (stop < domains).then_some((stop, 1 + stop % 7));
            busy.deadline = SimTime::from_nanos(deadline_us * 1_000);
            prop_assert_eq!(busy.run(workers), busy.reference());
        }

        /// Inserting a new thread into its affinity cores' candidate lists
        /// leaves every list exactly what a full re-sort would give.
        #[test]
        fn candidate_lists_equal_a_full_resort(
            steps in proptest::collection::vec((0u8..3, 0usize..3, any::<u64>()), 1..60),
        ) {
            let mut sim: Simulation<u32> = Simulation::new(1);
            sim.set_domains(3);
            let mut cores: Vec<Vec<CoreId>> = vec![Vec::new(); 3];
            for (kind, d, bits) in steps {
                if kind == 0 || cores[d].is_empty() {
                    cores[d].push(sim.add_core_in(d));
                    continue;
                }
                // One to three of the domain's cores, repeats allowed.
                let own = &cores[d];
                let affinity = (0..1 + bits % 3)
                    .map(|i| own[(bits >> (8 * i + 2)) as usize % own.len()])
                    .collect();
                let priority = [Priority::High, Priority::Normal, Priority::Low];
                let priority = priority[(bits >> 40) as usize % 3];
                sim.add_thread_in(d, ThreadCfg::new("t", affinity, priority));
            }
            for dom in &sim.domains {
                for (c, core) in dom.cores.iter().enumerate() {
                    let mut want: Vec<usize> = (dom.threads.iter().enumerate())
                        .flat_map(|(t, th)| th.affinity.iter().filter(|&&a| a == c).map(move |_| t))
                        .collect();
                    want.sort_by_key(|&t| (dom.threads[t].priority, t));
                    prop_assert_eq!(&core.candidates, &want);
                }
            }
        }
    }

    /// Three domains on two workers: worker 0's list is `[0, 2]`, worker
    /// 1's is `[1]`. Domain 0's first item holds its worker until domain 2
    /// has run, so domain 2 runs on the other worker, stolen from the back
    /// of worker 0's list (had worker 1 reached domain 0 first, it would
    /// have taken domain 2 before it).
    struct Steal {
        domain: usize,
        domain2_ran: Arc<AtomicBool>,
        panics: bool,
    }

    impl Handler<u32> for Steal {
        fn handle(&mut self, thread: ThreadId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.spend("w", SimDuration::micros(1));
            if self.domain == 2 {
                self.domain2_ran.store(true, SeqCst);
                assert!(!self.panics, "stolen domain panicked");
            }
            if self.domain == 0 && msg == 0 {
                let since = Instant::now();
                while !self.domain2_ran.load(SeqCst) {
                    assert!(
                        since.elapsed() < Duration::from_secs(60),
                        "domain 2 never ran"
                    );
                    std::thread::yield_now();
                }
            }
            if msg < 30 {
                // Thread d is domain d's.
                ctx.send_after((thread + 1) % 3, msg + 1, LOOKAHEAD);
            }
        }
    }

    fn steal_setup(panics: bool) -> (Simulation<u32>, Vec<Steal>) {
        let mut sim: Simulation<u32> = Simulation::new(5);
        sim.set_domains(3);
        sim.set_lookahead(LOOKAHEAD);
        sim.set_workers(2);
        for d in 0..3 {
            let c = sim.add_core_in(d);
            sim.add_thread_in(d, ThreadCfg::new("t", vec![c], Priority::Normal));
        }
        sim.schedule(SimTime::ZERO, 0, 0);
        sim.schedule(SimTime::ZERO, 2, 0);
        let domain2_ran = Arc::new(AtomicBool::new(false));
        let parts = (0..3)
            .map(|domain| Steal {
                domain,
                domain2_ran: Arc::clone(&domain2_ran),
                panics,
            })
            .collect();
        (sim, parts)
    }

    #[test]
    #[should_panic(expected = "stolen domain panicked")]
    fn a_panic_in_a_stolen_domain_is_reraised() {
        let (mut sim, mut parts) = steal_setup(true);
        sim.run_until_parts(&mut parts, SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn round_stats_count_claims_steals_and_domain_time() {
        let (mut sim, mut parts) = steal_setup(false);
        sim.run_until_parts(&mut parts, SimTime::from_nanos(5_000_000));
        let stats = sim.round_stats();
        let total = |f: fn(&WorkerRoundStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
        assert_eq!(
            total(|w| w.claims),
            3 * stats.rounds,
            "one claim a domain a round"
        );
        assert!(total(|w| w.steals) > 0, "domain 2 was stolen");
        let domains: u64 = stats.domain_execute_ns.iter().sum();
        assert!(domains <= total(|w| w.execute_ns), "{stats:?}");
        assert!(
            stats.domain_execute_ns.iter().all(|&ns| ns > 0),
            "{stats:?}"
        );
    }
}
