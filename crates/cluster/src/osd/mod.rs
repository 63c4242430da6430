//! The OSD daemon as a sans-io state machine.
//!
//! All protocol logic — primary-backup replication, the decoupled NVM
//! operation-log path, flushes, reads with strong consistency, peer log
//! recovery — lives here, independent of any execution substrate. Inputs
//! ([`OsdInput`]) are delivered by a driver (the deterministic simulation in
//! [`crate::sim_driver`] or the real-thread runtime in
//! [`crate::live_driver`]); outputs ([`OsdEffect`]) tell the driver what to
//! send, reply, persist, or schedule. The state machine never blocks and
//! never looks at a clock.
//!
//! The [`PipelineMode`] selects which of the paper's systems this OSD is:
//! stock Ceph (`Original`), the roofline variants (`RtcV1..V3`), the
//! ablations (`Cos`, `Ptc`), the full proposed system (`Dop`), or the
//! no-storage-processing upper bound (`Ideal`).
//!
//! One protocol per file, each an `impl Osd` block over the state value it
//! owns: `pipeline` (the top half: client writes and reads, the dedup
//! windows), `flush` (the bottom half: store tokens, flush windows,
//! deferred store work, maintenance), `replication` (`Repop` … `RepNack`),
//! `peering` (pg_log, `PgQuery`/`PgInfo`, map changes, the joiner's pull),
//! `recovery` (`PushObject`/`PushAck` and the background budget), `scrub`,
//! and `faults` (rot injection, crash-restart). This file holds what they
//! share: the configuration, the input/effect vocabulary, the `Osd` value
//! with its durable fields, dispatch, and the effect helpers.

mod backend;
mod digest;
mod faults;
mod flush;
mod peering;
mod pipeline;
mod recovery;
mod replication;
mod scrub;

use rablock_cos::{CosObjectStore, CosOptions};
use rablock_lsm::{LsmObjectStore, LsmOptions};
use rablock_oplog::GroupLog;
use rablock_storage::{
    FxHashMap, GroupId, MemDisk, NvmRegion, ObjectId, Op, Payload, Segments, TraceIo, Transaction,
};

use crate::msg::{ClientId, ClientReply, ClientReq, OpId, PeerMsg};
use crate::placement::{ActingSet, OsdId, OsdMap};

pub use backend::Backend;
pub use digest::{digest_bytes, digest_segments};
pub use flush::StoreTokenOp;
pub use peering::PgState;

use flush::{BottomHalf, DeferredRead, StoreCtx};
use peering::Peering;
use pipeline::TopHalf;
use recovery::BackgroundBudget;
use scrub::Scrub;

/// Completed-write ids remembered per client, and applied replication seqs
/// remembered per group, for duplicate suppression: a retried write whose
/// original already completed re-acks without re-applying (exactly-once
/// under client retries and primary retransmits).
const DEDUP_WINDOW: usize = 128;

/// Entries retained per group in the versioned write log (pg_log) used by
/// peering. A peer whose history fell off this bounded tail is healed by
/// full-object backfill instead of log replay.
const PG_LOG_LIMIT: usize = 512;

/// Which of the paper's systems an OSD runs as.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum PipelineMode {
    /// Stock Ceph: thread-pool messenger + PG threads, BlueStore-like LSM
    /// backend.
    Original,
    /// Run-to-completion roofline variant: full path (MP+RP+TP+OS+MT) on
    /// one thread per connection.
    RtcV1,
    /// RTC without object store (MP+RP+TP): store returns instantly.
    RtcV2,
    /// RTC without transaction or store (MP+RP only).
    RtcV3,
    /// Ablation: stock threading, CPU-efficient object store backend.
    Cos,
    /// Ablation: COS + prioritized thread control (no NVM decoupling:
    /// replication still waits for the backend store).
    Ptc,
    /// The full proposed system: decoupled operation processing + PTC + COS.
    Dop,
    /// Upper bound: proposed threading with zero storage processing.
    Ideal,
}

impl PipelineMode {
    /// True for modes using the NVM operation log (top/bottom-half split).
    pub fn decoupled(self) -> bool {
        matches!(self, PipelineMode::Dop)
    }

    /// True for modes with priority/non-priority thread control.
    pub fn prioritized(self) -> bool {
        matches!(
            self,
            PipelineMode::Ptc | PipelineMode::Dop | PipelineMode::Ideal
        )
    }

    /// True for the roofline run-to-completion variants.
    pub fn run_to_completion(self) -> bool {
        matches!(
            self,
            PipelineMode::RtcV1 | PipelineMode::RtcV2 | PipelineMode::RtcV3
        )
    }

    /// True when transaction processing is skipped entirely (MP+RP only).
    pub fn null_transaction(self) -> bool {
        matches!(self, PipelineMode::RtcV3 | PipelineMode::Ideal)
    }

    /// True when the backend store is a no-op (but TP still runs).
    pub fn null_store(self) -> bool {
        matches!(self, PipelineMode::RtcV2)
    }

    /// True for modes backed by the LSM (BlueStore-like) store.
    pub fn lsm_backend(self) -> bool {
        matches!(self, PipelineMode::Original | PipelineMode::RtcV1)
    }

    /// True for modes backed by the CPU-efficient object store.
    pub fn cos_backend(self) -> bool {
        matches!(
            self,
            PipelineMode::Cos | PipelineMode::Ptc | PipelineMode::Dop
        )
    }
}

/// Static configuration of one OSD.
#[derive(Debug, Clone)]
pub struct OsdConfig {
    /// Pipeline variant.
    pub mode: PipelineMode,
    /// Backend device capacity in bytes.
    pub device_bytes: u64,
    /// NVM capacity for operation logs.
    pub nvm_bytes: u64,
    /// NVM ring bytes per logical group.
    pub ring_bytes: u64,
    /// Flush threshold (paper default 16 entries per group).
    pub flush_threshold: usize,
    /// LSM backend options (LSM modes).
    pub lsm: LsmOptions,
    /// COS backend options (COS modes).
    pub cos: CosOptions,
    /// Backfill throttle: recovery pushes allowed in flight (sent, unacked)
    /// per tick window. Deferred pushes stay in the missing set and are
    /// retried next tick, so rebalancing degrades gracefully instead of
    /// starving client I/O.
    pub max_backfill_inflight: usize,
    /// Backfill throttle: object bytes a primary may push per tick window
    /// (the bytes/sec budget, denominated in ticks). A full budget always
    /// admits at least one push so oversized objects cannot wedge recovery.
    pub backfill_bytes_per_tick: u64,
}

impl Default for OsdConfig {
    fn default() -> Self {
        OsdConfig {
            mode: PipelineMode::Dop,
            device_bytes: 96 << 20,
            nvm_bytes: 16 << 20,
            ring_bytes: 256 << 10,
            flush_threshold: 16,
            lsm: LsmOptions::default(),
            // Clusters checksum their data blocks: a read of rotted bytes
            // must fail retryably instead of serving garbage. (The WAF
            // benchmarks construct CosOptions directly and keep them off.)
            cos: CosOptions {
                checksums: true,
                ..CosOptions::default()
            },
            max_backfill_inflight: 16,
            backfill_bytes_per_tick: 4 << 20,
        }
    }
}

/// Events delivered to the OSD by its driver.
#[derive(Debug)]
pub enum OsdInput {
    /// A client request arrived.
    Client {
        /// The connection it came from.
        from: ClientId,
        /// The request.
        req: ClientReq,
    },
    /// A peer OSD message arrived.
    Peer {
        /// Sending OSD.
        from: OsdId,
        /// The message.
        msg: PeerMsg,
    },
    /// All device I/Os of a prior [`OsdEffect::StoreIo`] completed.
    StoreDurable {
        /// Token from the effect.
        token: u64,
    },
    /// A non-priority thread picked up a flush request for a group.
    FlushGroup {
        /// The group to flush.
        group: GroupId,
    },
    /// A non-priority thread picked up a store-read request.
    ReadFromStore {
        /// Token registered when the read was deferred.
        token: u64,
    },
    /// A non-priority thread picked up a deferred store submit (PTC mode:
    /// storage processing runs on non-priority threads).
    SubmitDeferred {
        /// Token registered when the submit was deferred.
        token: u64,
    },
    /// The maintenance thread ticked.
    MaintStep,
    /// The scrub scheduler picked this OSD (as primary) to scrub a group:
    /// collect per-replica object maps, compare, and repair inconsistent
    /// copies through the recovery push machinery.
    ScrubStart {
        /// The group to scrub.
        group: GroupId,
        /// Deep scrub: read and checksum-verify every byte instead of
        /// comparing metadata digests.
        deep: bool,
    },
    /// The heartbeat timer fired: emit a liveness beacon to the monitor.
    HeartbeatTick,
    /// A new cluster map arrived.
    MapUpdate(OsdMap),
}

/// Instructions the OSD hands back to its driver.
#[derive(Debug)]
pub enum OsdEffect {
    /// Send a message to a peer OSD.
    SendPeer {
        /// Destination.
        to: OsdId,
        /// The message.
        msg: PeerMsg,
    },
    /// Reply to a client.
    Reply {
        /// Destination connection.
        to: ClientId,
        /// The reply.
        msg: ClientReply,
    },
    /// Replay these device I/Os; if `wait`, deliver
    /// [`OsdInput::StoreDurable`] with `token` when they all complete.
    StoreIo {
        /// Completion token.
        token: u64,
        /// The device I/Os the store performed.
        trace: Vec<TraceIo>,
        /// Whether completion must be reported.
        wait: bool,
    },
    /// Bytes appended to the NVM operation log (for cost accounting).
    NvmWritten {
        /// Record bytes.
        bytes: u64,
    },
    /// Wake a non-priority thread to flush `group`.
    WakeFlush {
        /// The group over its threshold.
        group: GroupId,
    },
    /// Wake a non-priority thread to serve a deferred store read.
    WakeRead {
        /// Token to hand back via [`OsdInput::ReadFromStore`].
        token: u64,
    },
    /// Wake a non-priority thread to run a deferred store submit.
    WakeSubmit {
        /// Token to hand back via [`OsdInput::SubmitDeferred`].
        token: u64,
    },
    /// Wake the maintenance thread.
    WakeMaintenance,
    /// Send a heartbeat to the monitor (driver routes it and stamps the
    /// time; the state machine never looks at a clock).
    Heartbeat,
    /// One maintenance step moved this many bytes (for MT cost accounting).
    Maintained {
        /// Bytes read + written by the step.
        bytes: u64,
        /// More maintenance is pending.
        more: bool,
    },
}

/// One OSD daemon (sans-io core).
///
/// What survives a crash sits directly in the struct: the backend, the NVM
/// region and its logs, the extent map, `seq`, the counters. What dies with
/// the process is gathered per protocol into the values
/// [`Osd::restart_after_crash`] replaces wholesale.
pub struct Osd {
    /// This OSD's identity.
    pub id: OsdId,
    cfg: OsdConfig,
    backend: Backend,
    nvm: NvmRegion,
    nvm_next: u64,
    logs: FxHashMap<GroupId, GroupLog>,
    map: OsdMap,
    seq: u64,
    next_token: u64,
    /// Largest byte extent ever written per object, per group. Lets a
    /// surviving member ship full object contents to a joiner (backfill) —
    /// the operation log alone only covers still-pending writes.
    group_extents: FxHashMap<GroupId, FxHashMap<ObjectId, u64>>,
    /// Client writes in flight and the dedup windows (`pipeline.rs`).
    top: TopHalf,
    /// Store tokens, flush windows and deferred store work (`flush.rs`).
    bottom: BottomHalf,
    /// pg_log, peering rounds and joins (`peering.rs`).
    peering: Peering,
    /// The throttle recovery pushes and deep scrubs share (`recovery.rs`).
    budget: BackgroundBudget,
    /// Scrub rounds, queued starts and self-heal fetches (`scrub.rs`).
    scrub: Scrub,
    /// The effects of the input being handled: the caller's buffer for the
    /// duration of [`Osd::handle_into`], empty in between.
    fx: Vec<OsdEffect>,
    /// Forced synchronous flushes because NVM filled up (paper §IV-A).
    pub nvm_full_stalls: u64,
    /// Recovery pushes sent (log-replay and backfill object transfers).
    pub recovery_pushes: u64,
    /// Object bytes shipped to peers undergoing full backfill.
    pub backfill_bytes: u64,
    /// Damaged/divergent replica copies found by scrub comparisons.
    pub scrub_errors_found: u64,
    /// Copies healed by scrub repair pushes and fetches.
    pub scrub_errors_repaired: u64,
    /// Object bytes read by deep scrubs on this OSD.
    pub scrub_bytes: u64,
    /// Scrub rounds finished (repairs, if any, all acked).
    pub scrubs_completed: u64,
    /// Client/store reads that tripped a block checksum (each also triggers
    /// a self-heal fetch).
    pub read_checksum_errors: u64,
}

impl Osd {
    /// Creates an OSD with a freshly formatted backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot be formatted with the given config —
    /// that is a configuration error worth failing loudly on.
    pub fn new(id: OsdId, cfg: OsdConfig, map: OsdMap) -> Self {
        let backend = if cfg.mode.lsm_backend() {
            Backend::Lsm(
                LsmObjectStore::open(MemDisk::new(cfg.device_bytes), cfg.lsm.clone())
                    .expect("LSM backend formats"),
            )
        } else if cfg.mode.cos_backend() {
            Backend::Cos(
                CosObjectStore::format(MemDisk::new(cfg.device_bytes), cfg.cos.clone())
                    .expect("COS backend formats"),
            )
        } else {
            Backend::Null
        };
        Osd {
            id,
            nvm: NvmRegion::new(cfg.nvm_bytes),
            nvm_next: 0,
            budget: BackgroundBudget::new(&cfg),
            cfg,
            backend,
            logs: FxHashMap::default(),
            map,
            seq: 0,
            next_token: 1,
            group_extents: FxHashMap::default(),
            top: TopHalf::default(),
            bottom: BottomHalf::default(),
            peering: Peering::default(),
            scrub: Scrub::default(),
            fx: Vec::new(),
            nvm_full_stalls: 0,
            recovery_pushes: 0,
            backfill_bytes: 0,
            scrub_errors_found: 0,
            scrub_errors_repaired: 0,
            scrub_bytes: 0,
            scrubs_completed: 0,
            read_checksum_errors: 0,
        }
    }

    /// The pipeline mode this OSD runs as.
    pub fn mode(&self) -> PipelineMode {
        self.cfg.mode
    }

    /// The backend store (statistics access).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Mutable backend access (reset stats after warm-up).
    pub fn backend_mut(&mut self) -> &mut Backend {
        &mut self.backend
    }

    /// NVM bytes written so far (operation-log accounting).
    pub fn nvm_bytes_written(&self) -> u64 {
        self.nvm.bytes_written()
    }

    /// Pending operation-log entries of one group (Fig. 12 diagnostics).
    pub fn log_pending(&self, group: GroupId) -> usize {
        self.logs.get(&group).map_or(0, GroupLog::pending)
    }

    /// Instantly provisions an object in the backend, bypassing the
    /// protocol (image-creation prefill before a measured run).
    pub fn bootstrap_object(&mut self, oid: ObjectId, size: u64) {
        self.seq += 1;
        let txn = Transaction::new(oid.group(), self.seq, vec![Op::Create { oid, size }]);
        self.note_txn(&txn);
        self.backend.submit(txn).expect("bootstrap create");
        let _ = self.backend.take_trace();
        while self.backend.needs_maintenance() {
            self.backend.maintenance();
            let _ = self.backend.take_trace();
        }
    }

    /// The current cluster map as this OSD knows it.
    pub fn map(&self) -> &OsdMap {
        &self.map
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn replicas_of(&self, group: GroupId) -> ActingSet {
        let mut set = self.map.acting_set(group);
        set.retain(|&o| o != self.id);
        set
    }

    fn log_for(&mut self, group: GroupId) -> &mut GroupLog {
        if !self.logs.contains_key(&group) {
            let base = self.nvm_next;
            assert!(
                base + self.cfg.ring_bytes <= self.nvm.capacity(),
                "{}: NVM exhausted allocating ring for {group}",
                self.id
            );
            self.nvm_next += self.cfg.ring_bytes;
            let log = GroupLog::format(
                &mut self.nvm,
                group,
                base,
                self.cfg.ring_bytes,
                self.cfg.flush_threshold,
            )
            .expect("ring formats in fresh NVM");
            self.logs.insert(group, log);
        }
        self.logs.get_mut(&group).expect("just inserted")
    }

    /// Records the byte extents a transaction touches, so this OSD can later
    /// backfill full object contents to a joining peer.
    fn note_txn(&mut self, txn: &Transaction) {
        let extents = self.group_extents.entry(txn.group).or_default();
        for op in txn.ops.iter() {
            let (oid, end) = match op {
                Op::Create { oid, size } => (*oid, *size),
                Op::Write { oid, offset, .. } | Op::WriteV { oid, offset, .. } => {
                    (*oid, offset + op.user_bytes())
                }
                _ => continue,
            };
            let e = extents.entry(oid).or_insert(0);
            *e = (*e).max(end);
        }
    }

    /// Digest of an object's first `len` bytes as stored in the backend
    /// (`None` if the backend cannot serve the range). Quiesce diagnostics.
    pub fn object_digest(&mut self, oid: ObjectId, len: u64) -> Option<u64> {
        self.read_synced(oid, len)
            .map(|data| digest_segments(&data))
    }

    /// The backend's *persistent* light-scrub digest of `oid`: its size
    /// plus an FNV over the per-block checksum vector, read from metadata
    /// without touching any data block. `None` when the backend does not
    /// persist checksums (LSM/null modes, checksums disabled) or does not
    /// hold the object. Sync the group log first
    /// ([`Osd::sync_backend_with_log`]) so unflushed writes are covered.
    pub fn object_csum_digest(&self, oid: ObjectId) -> Option<(u64, u64)> {
        self.backend.csum_digest(oid)
    }

    /// Raw backend bytes of an object's first `len` bytes (diagnostics).
    pub fn debug_read(&mut self, oid: ObjectId, len: u64) -> Option<Payload> {
        self.read_synced(oid, len).map(Segments::into_payload)
    }

    /// The object's first `len` bytes as the backend serves them once it is
    /// up to date with the group's pending log records (reads prefer the
    /// log, so the backend alone may be stale).
    fn read_synced(&mut self, oid: ObjectId, len: u64) -> Option<Segments> {
        self.sync_group_log(oid.group()).ok()?;
        let r = self.backend.read_segments(oid, 0, len);
        let _ = self.backend.take_trace();
        r.ok()
    }

    /// The byte extents this OSD tracks for one group, sorted by object.
    pub fn group_extent_map(&self, group: GroupId) -> Vec<(ObjectId, u64)> {
        let mut v: Vec<(ObjectId, u64)> = self
            .group_extents
            .get(&group)
            .map(|m| m.iter().map(|(o, l)| (*o, *l)).collect())
            .unwrap_or_default();
        v.sort_by_key(|(o, _)| o.raw());
        v
    }

    /// Recovery pushes deferred by the background throttle.
    pub fn backfill_queued(&self) -> u64 {
        self.budget.queued
    }

    /// Heartbeat windows in which the throttle deferred at least one push.
    pub fn backfill_throttled_windows(&self) -> u64 {
        self.budget.push_throttled_windows
    }

    /// Heartbeat windows in which the throttle deferred a deep-scrub start.
    pub fn scrub_throttled_windows(&self) -> u64 {
        self.budget.scan_throttled_windows
    }

    fn send(&mut self, to: OsdId, msg: PeerMsg) {
        self.fx.push(OsdEffect::SendPeer { to, msg });
    }

    fn reply(&mut self, to: ClientId, msg: ClientReply) {
        self.fx.push(OsdEffect::Reply { to, msg });
    }

    fn reply_done(&mut self, to: ClientId, op: OpId) {
        self.reply(to, ClientReply::Done { op });
    }

    fn rep_ack(&mut self, to: OsdId, group: GroupId, seq: u64) {
        let from = self.id;
        self.send(to, PeerMsg::RepAck { group, seq, from });
    }

    /// Registers `ctx` under a fresh token and hands `trace` to the driver;
    /// with `wait` the driver answers [`OsdInput::StoreDurable`].
    fn store_io_of(&mut self, trace: Vec<TraceIo>, ctx: StoreCtx, wait: bool) -> u64 {
        let token = self.token();
        self.bottom.pending_store.insert(token, ctx);
        self.fx.push(OsdEffect::StoreIo { token, trace, wait });
        token
    }

    /// [`Osd::store_io_of`] the device I/Os the backend performed since its
    /// trace was last taken.
    fn store_io(&mut self, ctx: StoreCtx, wait: bool) -> u64 {
        let trace = self.backend.take_trace();
        self.store_io_of(trace, ctx, wait)
    }

    /// Replays what the backend just did as background I/O nobody waits
    /// for; a backend that touched no device mints no token.
    fn background_io(&mut self) {
        let trace = self.backend.take_trace();
        if !trace.is_empty() {
            self.store_io_of(trace, StoreCtx::Background, false);
        }
    }

    /// Handles one input, returning the effects for the driver.
    pub fn handle(&mut self, input: OsdInput) -> Vec<OsdEffect> {
        let mut fx = Vec::new();
        self.handle_into(input, &mut fx);
        fx
    }

    /// [`Osd::handle`] into a caller-owned buffer, so drivers that process
    /// millions of inputs can reuse one allocation instead of paying a
    /// fresh `Vec` per event. Effects are appended; the caller clears.
    pub fn handle_into(&mut self, input: OsdInput, fx: &mut Vec<OsdEffect>) {
        match input {
            OsdInput::Client { from, req } => self.on_client(from, req),
            OsdInput::Peer { from, msg } => self.on_peer(from, msg),
            OsdInput::StoreDurable { token } => self.on_store_durable(token),
            OsdInput::FlushGroup { group } => self.on_flush_group(group),
            OsdInput::ReadFromStore { token } => self.on_read_from_store(token),
            OsdInput::SubmitDeferred { token } => self.on_submit_deferred(token),
            OsdInput::MaintStep => self.on_maint_step(),
            OsdInput::ScrubStart { group, deep } => self.on_scrub_start(group, deep),
            OsdInput::HeartbeatTick => self.on_heartbeat_tick(),
            OsdInput::MapUpdate(map) => self.on_map_update(map),
        }
        std::mem::swap(&mut self.fx, fx);
    }

    /// The liveness timer doubles as every protocol's retry timer.
    fn on_heartbeat_tick(&mut self) {
        self.fx.push(OsdEffect::Heartbeat);
        // New throttle window: account the one that just closed, replenish
        // the byte budget, and let unacked pushes retransmit (they re-enter
        // the window via retry_recovery).
        self.budget.new_window();
        // Piggy-back retries on the liveness timer: lost peering queries,
        // pulls and recovery pushes, a pull's reply the store refused, and
        // replication messages of writes stuck on laggard replicas.
        self.retry_recovery();
        self.retransmit_stale_inflight();
        // Scrub rides the same timer: queued starts, map requests, repairs
        // and self-heal fetches are re-driven into the replenished budget.
        self.retry_scrubs();
    }

    fn on_client(&mut self, from: ClientId, req: ClientReq) {
        let group = req.oid().group();
        match req {
            ClientReq::Write {
                op,
                oid,
                offset,
                data,
            } => self.on_client_mutation(from, op, group, Op::Write { oid, offset, data }),
            ClientReq::Create { op, oid, size } => {
                self.on_client_mutation(from, op, group, Op::Create { oid, size })
            }
            ClientReq::Read {
                op,
                oid,
                offset,
                len,
            } => {
                let client = from;
                let dr = DeferredRead {
                    client,
                    op,
                    oid,
                    offset,
                    len,
                };
                self.on_client_read(dr)
            }
        }
    }

    fn on_peer(&mut self, from: OsdId, msg: PeerMsg) {
        use PeerMsg::*;
        match msg {
            Repop { group, seq, txn } => self.on_repop(from, group, seq, txn),
            RepAck {
                seq, from: peer, ..
            } => self.on_rep_ack(seq, peer),
            RepNack {
                group,
                seq,
                from: peer,
                ..
            } => self.on_rep_nack(group, seq, peer),
            PullLog { group, from: peer } => self.on_pull_log(group, peer),
            PullReply {
                group,
                objects,
                records,
            } => self.on_pull_reply(group, objects, records),
            PgQuery {
                group,
                epoch,
                from: peer,
            } => self.on_pg_query(group, epoch, peer),
            PgInfo {
                group,
                epoch,
                from: peer,
                joining,
                entries,
            } => self.on_pg_info(group, epoch, peer, joining, entries),
            PushObject {
                group,
                epoch,
                entry,
                data,
                content_digest,
            } => self.on_push_object(from, group, epoch, *entry, data, content_digest),
            PushAck {
                group,
                epoch,
                oid,
                from: peer,
            } => self.on_push_ack(group, epoch, oid, peer),
            ScrubRequest {
                group,
                epoch,
                deep,
                from: peer,
            } => self.on_scrub_request(group, epoch, deep, peer),
            ScrubMap {
                group,
                epoch,
                from: peer,
                entries,
            } => self.on_scrub_map(group, epoch, peer, entries),
            ScrubFetch {
                group,
                epoch,
                oid,
                from: peer,
            } => self.on_scrub_fetch(group, epoch, oid, peer),
        }
    }
}

impl std::fmt::Debug for Osd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Osd")
            .field("id", &self.id)
            .field("mode", &self.cfg.mode)
            .field("inflight", &self.top.inflight.len())
            .field("groups", &self.logs.len())
            .finish()
    }
}

#[cfg(test)]
mod testkit;
#[cfg(test)]
mod tests;
