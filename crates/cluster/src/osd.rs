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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rablock_cos::{CosObjectStore, CosOptions};
use rablock_lsm::{LsmObjectStore, LsmOptions};
use rablock_oplog::{GroupLog, LogRecord, ReadPath};
use rablock_storage::{
    FxHashMap, GroupId, MemDisk, NvmRegion, ObjectId, ObjectStore, Op, Payload, Segments,
    StoreError, StoreStats, TraceIo, Transaction,
};

use crate::msg::{ClientId, ClientReply, ClientReq, OpId, PeerMsg, PgLogEntry, ScrubEntry};
use crate::placement::{ActingSet, OsdId, OsdMap};

/// splitmix64 step: the deterministic stream fault injection draws rot
/// targets from. Self-contained (no scheduler RNG) so the same seed rots
/// the same bits at every shard count.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pg-log key of a write, `pglog.{group}.{seq}`, built without the `fmt`
/// machinery: every write takes one on every replica. The bytes are what
/// `format!` gave, since the LSM backend writes the key to its WAL.
fn pglog_key(group: GroupId, seq: u64) -> Vec<u8> {
    fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[at..]);
    }
    let mut key = Vec::with_capacity(6 + 10 + 1 + 20);
    key.extend_from_slice(b"pglog.");
    push_decimal(&mut key, group.0 as u64);
    key.push(b'.');
    push_decimal(&mut key, seq);
    key
}

/// FNV-style digest over a byte slice: the checksum recovery pushes are
/// verified with and the unit replica contents are compared by.
///
/// Digests are only ever compared against digests computed by this same
/// function (never persisted, never in a report fingerprint), so the exact
/// constants are free to favor throughput: four independent FNV lanes over
/// 8-byte words break the multiply dependency chain that made the classic
/// byte-at-a-time loop the hottest function in write-path profiles (every
/// 4 KiB write is digested for its pg_log entry).
pub fn digest_bytes(data: &[u8]) -> u64 {
    let mut digest = Digest::new();
    digest.update(data);
    digest.finish()
}

/// [`digest_bytes`] of the concatenation of `data`'s views, computed
/// without concatenating them: the same value for any segmentation.
pub fn digest_segments(data: &Segments) -> u64 {
    let mut digest = Digest::new();
    for part in data.iter() {
        digest.update(part);
    }
    digest.finish()
}

/// The state of [`digest_bytes`] over a byte string fed in pieces: the four
/// lanes consume whole 32-byte blocks, so up to 31 bytes wait in `tail` for
/// the next piece (or for `finish`, which folds the lanes and the rest).
struct Digest {
    lanes: [u64; 4],
    tail: [u8; 32],
    tail_len: usize,
}

impl Digest {
    const P: u64 = 0x0000_0100_0000_01B3;

    #[inline]
    fn new() -> Digest {
        const SEED: u64 = 0xCBF2_9CE4_8422_2325;
        Digest {
            lanes: [
                SEED,
                SEED ^ 0x9E37_79B9_7F4A_7C15,
                SEED.rotate_left(13),
                SEED.rotate_left(31),
            ],
            tail: [0; 32],
            tail_len: 0,
        }
    }

    /// Folds whole 32-byte blocks into the lanes; returns what is left over.
    #[inline]
    fn blocks<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        // In locals, so the four multiply chains stay in registers.
        let mut lanes = self.lanes;
        let mut blocks = data.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                *lane = (*lane ^ w).wrapping_mul(Self::P);
            }
        }
        self.lanes = lanes;
        blocks.remainder()
    }

    #[inline]
    fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 32 {
                return;
            }
            let tail = self.tail;
            self.blocks(&tail);
        }
        let rest = self.blocks(data);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    #[inline]
    fn finish(self) -> u64 {
        let mut h = self.lanes[0];
        for &lane in &self.lanes[1..] {
            h = (h ^ lane).wrapping_mul(Self::P);
        }
        let mut words = self.tail[..self.tail_len].chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(Self::P);
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(Self::P);
        }
        h
    }
}

/// Digest of one log-worthy op (offset + payload for writes, size for
/// creates) so pg_log entries from different primaries never falsely match.
fn digest_op(op: &Op) -> Option<(ObjectId, u64)> {
    let (oid, offset, content) = match op {
        Op::Create { oid, size } => {
            return Some((*oid, digest_bytes(&size.to_le_bytes()) ^ 0x5EED))
        }
        Op::Write { oid, offset, data } => (oid, offset, digest_bytes(data)),
        Op::WriteV { oid, offset, data } => (oid, offset, digest_segments(data)),
        _ => return None,
    };
    let h = digest_bytes(&offset.to_le_bytes()) ^ content.rotate_left(17);
    Some((*oid, h))
}

/// The transaction a recovery push or a backfill applies: the object at its
/// pushed size with `data`, the views the sender's store read, as its whole
/// content. A zero-length object (created, never written) is the bare
/// create — stores refuse an empty write.
fn whole_object_txn(group: GroupId, seq: u64, oid: ObjectId, data: Segments) -> Transaction {
    let mut ops = vec![Op::Create {
        oid,
        size: data.len() as u64,
    }];
    if !data.is_empty() {
        ops.push(Op::WriteV {
            oid,
            offset: 0,
            data,
        });
    }
    Transaction::new(group, seq, ops)
}

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
    /// Completed-write ids remembered per client for duplicate suppression:
    /// a retried write whose original already completed re-acks without
    /// re-applying (exactly-once under client retries).
    pub dedup_window: usize,
    /// Entries retained per group in the versioned write log (pg_log) used
    /// by peering. A peer whose history fell off this bounded tail is healed
    /// by full-object backfill instead of log replay.
    pub pg_log_limit: usize,
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
    /// Simulated nanoseconds represented by one heartbeat tick; converts
    /// throttled tick windows into the `backfill_throttled_nanos` metric.
    pub backfill_tick_nanos: u64,
}

impl Default for OsdConfig {
    fn default() -> Self {
        OsdConfig {
            mode: PipelineMode::Dop,
            device_bytes: 96 << 20,
            nvm_bytes: 16 << 20,
            ring_bytes: 256 << 10,
            flush_threshold: 16,
            dedup_window: 128,
            pg_log_limit: 512,
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
            backfill_tick_nanos: 1_000_000,
        }
    }
}

/// The backend store behind one OSD.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// BlueStore-like LSM store.
    Lsm(LsmObjectStore<MemDisk>),
    /// CPU-efficient object store.
    Cos(CosObjectStore<MemDisk>),
    /// No-op store (roofline variants / Ideal).
    Null,
}

impl Backend {
    fn submit(&mut self, txn: Transaction) -> Result<(), StoreError> {
        match self {
            Backend::Lsm(s) => s.submit(txn),
            Backend::Cos(s) => s.submit(txn),
            Backend::Null => Ok(()),
        }
    }

    fn read(&mut self, oid: ObjectId, offset: u64, len: u64) -> Result<Payload, StoreError> {
        Ok(self.read_segments(oid, offset, len)?.into_payload())
    }

    /// The range as the views the store holds it in: what scrub, push and
    /// backfill digest and ship without assembling the object.
    fn read_segments(
        &mut self,
        oid: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<Segments, StoreError> {
        match self {
            Backend::Lsm(s) => s.read_segments(oid, offset, len),
            Backend::Cos(s) => s.read_segments(oid, offset, len),
            Backend::Null => Ok(Payload::from(vec![0; len as usize]).into()),
        }
    }

    fn take_trace(&mut self) -> Vec<TraceIo> {
        match self {
            Backend::Lsm(s) => s.take_trace(),
            Backend::Cos(s) => s.take_trace(),
            Backend::Null => Vec::new(),
        }
    }

    fn needs_maintenance(&self) -> bool {
        match self {
            Backend::Lsm(s) => s.needs_maintenance(),
            Backend::Cos(s) => s.needs_maintenance(),
            Backend::Null => false,
        }
    }

    fn maintenance(&mut self) -> rablock_storage::MaintenanceReport {
        match self {
            Backend::Lsm(s) => s.maintenance(),
            Backend::Cos(s) => s.maintenance(),
            Backend::Null => rablock_storage::MaintenanceReport::default(),
        }
    }

    /// Light-scrub digest from checksum metadata alone (COS with checksums
    /// on); `None` tells the scrubber to fall back to reading the bytes.
    fn csum_digest(&self, oid: ObjectId) -> Option<(u64, u64)> {
        match self {
            Backend::Cos(s) => s.csum_digest(oid),
            _ => None,
        }
    }

    /// Fault injection: flips one stored data bit of `oid`, bypassing
    /// checksum bookkeeping. `false` when the backend cannot rot (no real
    /// device, unmapped block, or the store does not expose injection).
    fn corrupt_data_bit(&mut self, oid: ObjectId, block: u64, byte: u64, bit: u8) -> bool {
        match self {
            Backend::Cos(s) => s.corrupt_data_bit(oid, block, byte, bit).unwrap_or(false),
            _ => false,
        }
    }

    /// Data blocks mapped for `oid` (rot targeting); 0 when unknown.
    fn mapped_blocks(&self, oid: ObjectId) -> u64 {
        match self {
            Backend::Cos(s) => s.mapped_blocks(oid),
            _ => 0,
        }
    }

    /// Store traffic statistics (WAF measurements).
    pub fn stats(&self) -> StoreStats {
        match self {
            Backend::Lsm(s) => s.stats(),
            Backend::Cos(s) => s.stats(),
            Backend::Null => StoreStats::default(),
        }
    }

    /// Resets store statistics.
    pub fn reset_stats(&mut self) {
        match self {
            Backend::Lsm(s) => s.reset_stats(),
            Backend::Cos(s) => s.reset_stats(),
            Backend::Null => {}
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

/// What a pending store token is serving, as seen by the tracing layer.
///
/// A read-only classification of the OSD's internal [`StoreCtx`]; the driver
/// uses it to map device completions back to the client op they serve.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StoreTokenOp {
    /// Local persist of an in-flight primary write.
    PrimaryWrite {
        /// Issuing client.
        client: ClientId,
        /// Client op id.
        op: OpId,
    },
    /// Replica-side persist that will ack `seq` back to `primary`.
    ReplicaPersist {
        /// The primary that sent the replication op.
        primary: OsdId,
        /// Replication sequence number.
        seq: u64,
    },
    /// A client read waiting for its device I/O.
    Read {
        /// Issuing client.
        client: ClientId,
        /// Client op id.
        op: OpId,
    },
    /// A batch flush (background from any single op's perspective).
    Flush,
    /// Background I/O nobody waits for.
    Background,
}

struct WriteOp {
    client: ClientId,
    op: OpId,
    group: GroupId,
    /// The replicated transaction, kept so the primary itself can retransmit
    /// to laggard replicas from the heartbeat timer (payloads are refcounted,
    /// so this clone shares the data bytes).
    txn: Transaction,
    waiting_acks: ActingSet,
    local_done: bool,
    /// Heartbeat ticks this op has been waiting on replica acks.
    ticks: u32,
}

enum StoreCtx {
    /// Local persist of a primary write.
    WriteLocal { seq: u64 },
    /// Replica persist; ack `seq` to `primary` when durable.
    ReplicaPersist {
        primary: OsdId,
        group: GroupId,
        seq: u64,
    },
    /// A read waiting for its device I/O.
    Read {
        client: ClientId,
        op: OpId,
        data: Payload,
    },
    /// A batch flush of `group`; when durable, drain the log records whose
    /// version is at most `through_version` (the newest record exported
    /// when the batch was submitted — a plain count would mis-drain records
    /// appended or drained by another path while the flush was in flight).
    Flush {
        group: GroupId,
        through_version: u64,
        keep: bool,
    },
    /// Background I/O nobody waits for.
    Background,
}

struct DeferredSubmit {
    txn: Transaction,
    ctx: StoreCtx,
}

struct DeferredRead {
    client: ClientId,
    op: OpId,
    oid: ObjectId,
    offset: u64,
    len: u64,
}

#[derive(Default)]
struct GroupRuntime {
    flushing: bool,
    /// Reads waiting for the in-flight flush to become durable.
    waiting_reads: Vec<DeferredRead>,
}

/// Externally visible state of one placement group at its primary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PgState {
    /// Fully replicated; no recovery in flight.
    Active,
    /// Serving I/O with fewer than `replication` members (above `min_size`).
    Degraded,
    /// The primary is collecting pg_log infos from the acting set.
    Peering,
    /// Log-replay recovery: pushing individually missing objects to peers
    /// whose logs overlap the primary's.
    Recovering,
    /// Full-object backfill: at least one peer fell off the log tail and is
    /// receiving every object of the group.
    Backfilling,
    /// A scrub found replicas that disagree (or failed their checksums);
    /// repair pushes/fetches are in flight. Clears back to Active once
    /// every damaged copy is healed.
    Inconsistent,
}

/// One scrub round at a group's primary: collect a [`ScrubEntry`] map from
/// every acting-set member (self included), compare, then repair.
struct ScrubRound {
    /// Map epoch the round runs at; stale replies are ignored and a map
    /// change aborts the round (peering supersedes it).
    epoch: u64,
    /// Deep (read everything) vs light (metadata digests only).
    deep: bool,
    /// Peers whose [`PeerMsg::ScrubMap`] has not arrived yet.
    awaiting: BTreeSet<OsdId>,
    /// Collected maps by member (the primary's own map included).
    maps: BTreeMap<OsdId, Vec<ScrubEntry>>,
    /// Maps compared, repairs cut; the round now only tracks repairs.
    compared: bool,
    /// Local damaged objects awaiting a [`PeerMsg::ScrubFetch`] heal.
    self_wait: BTreeMap<u64, ObjectId>,
    /// Objects to push to damaged/divergent peers (deferred while the
    /// object is still in `self_wait` — never push bytes we hold rotten).
    peer_repairs: BTreeMap<u64, (ObjectId, BTreeSet<OsdId>)>,
}

/// Per-group recovery bookkeeping at the primary, created on a map-epoch
/// change and dropped once every peer acked its last push.
struct PgRecovery {
    /// Map epoch this peering round belongs to; stale replies are ignored.
    epoch: u64,
    /// Peering, Recovering, or Backfilling.
    state: PgState,
    /// Peers whose [`PeerMsg::PgInfo`] has not arrived yet.
    awaiting_infos: BTreeSet<OsdId>,
    /// Collected peer logs (by peer), kept until the missing sets are cut.
    infos: BTreeMap<OsdId, Vec<PgLogEntry>>,
    /// Outstanding pushes per peer, keyed by raw object id for stable order.
    missing: BTreeMap<OsdId, BTreeMap<u64, ObjectId>>,
    /// Peers being healed by full backfill rather than log replay.
    backfill_peers: BTreeSet<OsdId>,
}

/// One OSD daemon (sans-io core).
pub struct Osd {
    /// This OSD's identity.
    pub id: OsdId,
    cfg: OsdConfig,
    backend: Backend,
    nvm: NvmRegion,
    nvm_next: u64,
    logs: FxHashMap<GroupId, GroupLog>,
    group_rt: FxHashMap<GroupId, GroupRuntime>,
    map: OsdMap,
    seq: u64,
    next_token: u64,
    inflight: FxHashMap<u64, WriteOp>,
    /// `(client, op) -> seq` for in-flight writes, so a client retry can be
    /// matched to its original operation instead of being applied again.
    inflight_ops: FxHashMap<(ClientId, OpId), u64>,
    /// Recently completed write ops per client (bounded by
    /// `cfg.dedup_window`): a retry of one of these re-acks immediately.
    completed: FxHashMap<ClientId, VecDeque<u64>>,
    /// Recently applied replication seqs per group (bounded by
    /// `cfg.dedup_window`): a duplicate `Repop`/`RepopNvm` re-acks without
    /// re-applying.
    replica_applied: FxHashMap<GroupId, VecDeque<u64>>,
    /// Largest byte extent ever written per object, per group. Lets a
    /// surviving member ship full object contents to a joiner (backfill) —
    /// the operation log alone only covers still-pending writes.
    group_extents: FxHashMap<GroupId, FxHashMap<ObjectId, u64>>,
    /// Groups whose pulled log records have not arrived yet.
    awaiting_log: BTreeSet<GroupId>,
    /// Groups whose backfill has not arrived yet: flushes and cold store
    /// reads are held back so a late backfill cannot clobber newer data.
    awaiting_backfill: BTreeSet<GroupId>,
    /// Chosen synchronization source per awaited group: a member of the
    /// *previous* acting set, i.e. an OSD that actually holds the data.
    /// After a weighted expansion an entire acting set can be fresh
    /// joiners, so pulling from the new set would "succeed" with nothing.
    pull_sources: BTreeMap<GroupId, OsdId>,
    pending_store: FxHashMap<u64, StoreCtx>,
    deferred_reads: FxHashMap<u64, DeferredRead>,
    deferred_submits: FxHashMap<u64, DeferredSubmit>,
    maint_scheduled: bool,
    /// Forced synchronous flushes because NVM filled up (paper §IV-A).
    pub nvm_full_stalls: u64,
    /// Bounded versioned write log per group (`(epoch, version, oid,
    /// digest)` per applied op): the peering currency. Volatile — rebuilt
    /// from the recovered NVM log on restart.
    pg_log: FxHashMap<GroupId, VecDeque<PgLogEntry>>,
    /// Active peering/recovery rounds for groups this OSD leads.
    recovery: BTreeMap<GroupId, PgRecovery>,
    /// Recovery pushes sent (log-replay and backfill object transfers).
    pub recovery_pushes: u64,
    /// Object bytes shipped to peers undergoing full backfill.
    pub backfill_bytes: u64,
    /// Recovery pushes deferred by the backfill throttle.
    pub backfill_queued: u64,
    /// Simulated time spent in tick windows where the throttle deferred at
    /// least one push (`backfill_tick_nanos` per such window).
    pub backfill_throttled_nanos: u64,
    /// Pushes sent and not yet acked in the current tick window, keyed by
    /// `(group, peer, raw oid)`.
    backfill_inflight: BTreeSet<(GroupId, OsdId, u64)>,
    /// Remaining push-byte budget in the current tick window.
    backfill_budget: u64,
    /// Whether the throttle deferred work since the last tick.
    backfill_deferred: bool,
    /// Active scrub rounds for groups this OSD leads.
    scrubs: BTreeMap<GroupId, ScrubRound>,
    /// Scrub starts deferred by the throttle or a recovery in flight,
    /// retried on the heartbeat; `true` = deep (deep wins over light).
    scrub_queue: BTreeMap<GroupId, bool>,
    /// Whether the throttle deferred a scrub since the last tick.
    scrub_deferred: bool,
    /// Outstanding self-heal fetches (`(group, raw oid)` → object + the
    /// peer currently asked), fed by scrub rounds and read-path checksum
    /// failures; retried with source rotation on the heartbeat.
    fetches: BTreeMap<(GroupId, u64), (ObjectId, OsdId)>,
    /// Damaged/divergent replica copies found by scrub comparisons.
    pub scrub_errors_found: u64,
    /// Copies healed by scrub repair pushes and fetches.
    pub scrub_errors_repaired: u64,
    /// Object bytes read by deep scrubs on this OSD.
    pub scrub_bytes: u64,
    /// Simulated time scrub starts spent deferred by the throttle.
    pub scrub_throttled_nanos: u64,
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
        let initial_backfill_budget = cfg.backfill_bytes_per_tick;
        Osd {
            id,
            nvm: NvmRegion::new(cfg.nvm_bytes),
            nvm_next: 0,
            cfg,
            backend,
            logs: FxHashMap::default(),
            group_rt: FxHashMap::default(),
            map,
            seq: 0,
            next_token: 1,
            inflight: FxHashMap::default(),
            inflight_ops: FxHashMap::default(),
            completed: FxHashMap::default(),
            replica_applied: FxHashMap::default(),
            group_extents: FxHashMap::default(),
            awaiting_log: BTreeSet::new(),
            awaiting_backfill: BTreeSet::new(),
            pull_sources: BTreeMap::new(),
            pending_store: FxHashMap::default(),
            deferred_reads: FxHashMap::default(),
            deferred_submits: FxHashMap::default(),
            maint_scheduled: false,
            nvm_full_stalls: 0,
            pg_log: FxHashMap::default(),
            recovery: BTreeMap::new(),
            recovery_pushes: 0,
            backfill_bytes: 0,
            backfill_queued: 0,
            backfill_throttled_nanos: 0,
            backfill_inflight: BTreeSet::new(),
            backfill_budget: initial_backfill_budget,
            backfill_deferred: false,
            scrubs: BTreeMap::new(),
            scrub_queue: BTreeMap::new(),
            scrub_deferred: false,
            fetches: BTreeMap::new(),
            scrub_errors_found: 0,
            scrub_errors_repaired: 0,
            scrub_bytes: 0,
            scrub_throttled_nanos: 0,
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

    /// Groups with pending log entries, sorted (timeout-flush sweeps).
    pub fn pending_groups(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self
            .logs
            .iter()
            .filter(|(g, l)| l.pending() > 0 && !self.group_rt.get(g).is_some_and(|r| r.flushing))
            .map(|(g, _)| *g)
            .collect();
        v.sort();
        v
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

    /// Builds the backend transaction for a client write, including the
    /// metadata records Ceph attaches to every request (`object_info_t`
    /// xattr, pg-log entry) — the "many key-value writes" of §V-B.
    fn build_write_txn(
        &mut self,
        group: GroupId,
        seq: u64,
        oid: ObjectId,
        offset: u64,
        data: Payload,
    ) -> Transaction {
        Transaction::new(
            group,
            seq,
            vec![
                Op::Write { oid, offset, data },
                Op::SetXattr {
                    oid,
                    key: "oi".into(),
                    value: vec![0xA5; 64],
                },
                Op::MetaPut {
                    key: pglog_key(group, seq),
                    value: vec![0x5A; 180],
                },
            ],
        )
    }

    fn already_completed(&self, client: ClientId, op: OpId) -> bool {
        self.completed
            .get(&client)
            .is_some_and(|w| w.contains(&op.0))
    }

    fn inflight_seq(&self, client: ClientId, op: OpId) -> Option<u64> {
        self.inflight_ops.get(&(client, op)).copied()
    }

    /// The client op behind an in-flight primary write `seq`, if any.
    /// Read-only probe for the tracing layer.
    pub fn inflight_client_op(&self, seq: u64) -> Option<(ClientId, OpId)> {
        self.inflight.get(&seq).map(|w| (w.client, w.op))
    }

    /// Classifies what a pending store-completion `token` is serving.
    /// Read-only probe for the tracing layer; never mutates OSD state.
    pub fn store_token_op(&self, token: u64) -> Option<StoreTokenOp> {
        let ctx = self.pending_store.get(&token)?;
        Some(match *ctx {
            StoreCtx::WriteLocal { seq } => match self.inflight_client_op(seq) {
                Some((client, op)) => StoreTokenOp::PrimaryWrite { client, op },
                None => StoreTokenOp::Background,
            },
            StoreCtx::ReplicaPersist { primary, seq, .. } => {
                StoreTokenOp::ReplicaPersist { primary, seq }
            }
            StoreCtx::Read { client, op, .. } => StoreTokenOp::Read { client, op },
            StoreCtx::Flush { .. } => StoreTokenOp::Flush,
            StoreCtx::Background => StoreTokenOp::Background,
        })
    }

    /// The client op behind a deferred store read `token`, if any.
    /// Read-only probe for the tracing layer.
    pub fn deferred_read_op(&self, token: u64) -> Option<(ClientId, OpId)> {
        self.deferred_reads.get(&token).map(|d| (d.client, d.op))
    }

    /// Classifies the op behind a deferred store submit `token`, if any.
    /// Read-only probe for the tracing layer.
    pub fn deferred_submit_op(&self, token: u64) -> Option<StoreTokenOp> {
        let d = self.deferred_submits.get(&token)?;
        Some(match d.ctx {
            StoreCtx::WriteLocal { seq } => match self.inflight_client_op(seq) {
                Some((client, op)) => StoreTokenOp::PrimaryWrite { client, op },
                None => StoreTokenOp::Background,
            },
            StoreCtx::ReplicaPersist { primary, seq, .. } => {
                StoreTokenOp::ReplicaPersist { primary, seq }
            }
            StoreCtx::Read { client, op, .. } => StoreTokenOp::Read { client, op },
            StoreCtx::Flush { .. } => StoreTokenOp::Flush,
            StoreCtx::Background => StoreTokenOp::Background,
        })
    }

    /// Re-sends the replication message for an in-flight write to every
    /// replica that has not acked yet. Nothing is re-applied locally; the
    /// client will be answered by the original operation when it completes.
    fn retransmit_pending(
        &mut self,
        seq: u64,
        group: GroupId,
        txn: Transaction,
        fx: &mut Vec<OsdEffect>,
    ) {
        let Some(w) = self.inflight.get(&seq) else {
            return;
        };
        let decoupled = self.cfg.mode.decoupled();
        for &r in &w.waiting_acks {
            let msg = if decoupled {
                PeerMsg::RepopNvm {
                    group,
                    seq,
                    txn: txn.clone(),
                }
            } else {
                PeerMsg::Repop {
                    group,
                    seq,
                    txn: txn.clone(),
                }
            };
            fx.push(OsdEffect::SendPeer { to: r, msg });
        }
    }

    fn replica_already_applied(&self, group: GroupId, seq: u64) -> bool {
        self.replica_applied
            .get(&group)
            .is_some_and(|w| w.contains(&seq))
    }

    /// Forgets a provisionally noted replication seq after a failed apply,
    /// so a primary retransmit is applied for real instead of re-acked.
    fn unnote_replica_applied(&mut self, group: GroupId, seq: u64) {
        if let Some(w) = self.replica_applied.get_mut(&group) {
            w.retain(|&s| s != seq);
        }
    }

    /// Drops the pg_log entries of a version whose apply failed: claiming
    /// history we do not hold would make peering skip a push we need.
    fn pg_log_unnote(&mut self, group: GroupId, version: u64) {
        if let Some(log) = self.pg_log.get_mut(&group) {
            log.retain(|e| e.version != version);
        }
    }

    fn note_replica_applied(&mut self, group: GroupId, seq: u64) {
        let win = self.replica_applied.entry(group).or_default();
        win.push_back(seq);
        while win.len() > self.cfg.dedup_window {
            win.pop_front();
        }
    }

    /// Records the byte extents a transaction touches, so this OSD can later
    /// backfill full object contents to a joining peer.
    fn note_txn(&mut self, txn: &Transaction) {
        let extents = self.group_extents.entry(txn.group).or_default();
        for op in &txn.ops {
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

    /// Appends one pg_log entry per log-worthy op of `txn` (version =
    /// primary-assigned replication seq), trimming to the configured bound.
    fn pg_log_note(&mut self, group: GroupId, version: u64, txn: &Transaction) {
        let epoch = self.map.epoch;
        let log = self.pg_log.entry(group).or_default();
        for op in &txn.ops {
            let Some((oid, digest)) = digest_op(op) else {
                continue;
            };
            log.push_back(PgLogEntry {
                epoch,
                version,
                oid,
                digest,
            });
            while log.len() > self.cfg.pg_log_limit {
                log.pop_front();
            }
        }
    }

    /// The newest `(epoch, version)` this OSD's pg_log holds for an object,
    /// or `(0, 0)` if the object never appears (fell off the tail or never
    /// written here). Recovery pushes are applied only when they beat this.
    fn pg_latest(&self, group: GroupId, oid: ObjectId) -> (u64, u64) {
        self.pg_log
            .get(&group)
            .map(|log| {
                log.iter()
                    .filter(|e| e.oid == oid)
                    .map(|e| (e.epoch, e.version))
                    .max()
                    .unwrap_or((0, 0))
            })
            .unwrap_or((0, 0))
    }

    /// The newest pg_log entry this OSD holds for an object, or an epoch-0 /
    /// version-0 sentinel when none survives (fell off the tail or never
    /// written here). The sentinel never beats a real entry, so receivers
    /// apply such contents only over objects with no history at all, and do
    /// not log them.
    fn newest_entry(&self, group: GroupId, oid: ObjectId) -> PgLogEntry {
        self.pg_log
            .get(&group)
            .and_then(|log| {
                log.iter()
                    .filter(|e| e.oid == oid)
                    .max_by_key(|e| (e.epoch, e.version))
                    .copied()
            })
            .unwrap_or(PgLogEntry {
                epoch: 0,
                version: 0,
                oid,
                digest: 0,
            })
    }

    /// The state of one group as seen by this OSD (meaningful at the
    /// group's primary): an active recovery round reports its phase,
    /// otherwise the acting-set size decides Active vs Degraded.
    pub fn pg_state(&self, group: GroupId) -> PgState {
        if let Some(rec) = self.recovery.get(&group) {
            return rec.state;
        }
        let scrub_repairing = self
            .scrubs
            .get(&group)
            .is_some_and(|r| r.compared && (!r.self_wait.is_empty() || !r.peer_repairs.is_empty()));
        if scrub_repairing || self.fetches.keys().any(|&(g, _)| g == group) {
            return PgState::Inconsistent;
        }
        if self.map.acting_set(group).len() < self.map.replication {
            PgState::Degraded
        } else {
            PgState::Active
        }
    }

    /// Objects this primary knows to be missing on some acting-set peer
    /// (outstanding recovery pushes). Zero once the cluster has healed.
    pub fn degraded_objects(&self) -> u64 {
        self.recovery
            .values()
            .map(|r| r.missing.values().map(|m| m.len() as u64).sum::<u64>())
            .sum()
    }

    /// Applies every pending log record to the backend without draining the
    /// log, so backend reads observe the newest bytes. Used before recovery
    /// pushes (the pushed content must be authoritative) and by post-quiesce
    /// replica-equality checks. Re-applying a record is idempotent — the log
    /// always holds the newest bytes for the ranges it covers.
    pub fn sync_backend_with_log(&mut self) {
        let mut groups: Vec<GroupId> = self.logs.keys().copied().collect();
        groups.sort();
        for group in groups {
            self.sync_group_log(group);
        }
    }

    /// Digest of an object's first `len` bytes as stored in the backend
    /// (`None` if the backend cannot serve the range). Quiesce diagnostics.
    pub fn object_digest(&mut self, oid: ObjectId, len: u64) -> Option<u64> {
        self.sync_group_log(oid.group());
        let r = self.backend.read_segments(oid, 0, len);
        let _ = self.backend.take_trace();
        r.ok().map(|data| digest_segments(&data))
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
        self.sync_group_log(oid.group());
        let r = self.backend.read(oid, 0, len);
        let _ = self.backend.take_trace();
        r.ok()
    }

    /// Re-applies the group's pending (NVM-durable, unflushed) log records
    /// to the backend so a direct backend read observes every acked write.
    /// The records stay pending — re-applying them again later is
    /// idempotent — so this never races the count-based flush completion.
    fn sync_group_log(&mut self, group: GroupId) {
        if self.logs.get(&group).is_some_and(|l| l.pending() > 0) {
            let records = self.logs[&group]
                .export_records(&mut self.nvm)
                .expect("log export for re-apply");
            for rec in records {
                self.backend.submit(rec.txn).expect("log re-apply for read");
            }
            let _ = self.backend.take_trace();
        }
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

    /// Reads the authoritative content of `oid` for a recovery push: the
    /// backend is first brought up to date with the group's pending log
    /// records (reads prefer the log, so the backend alone may be stale).
    fn authoritative_object(&mut self, group: GroupId, oid: ObjectId) -> Option<Segments> {
        let len = *self.group_extents.get(&group)?.get(&oid)?;
        self.sync_group_log(group);
        let r = self.backend.read_segments(oid, 0, len);
        let _ = self.backend.take_trace();
        r.ok()
    }

    /// Sends one recovery push for `oid` to `peer`: the full authoritative
    /// content plus the primary's newest log entry for the object, so the
    /// receiver can refuse stale pushes and verify the checksum.
    ///
    /// Pushes ride the backfill throttle: at most `max_backfill_inflight`
    /// unacked pushes and `backfill_bytes_per_tick` bytes per tick window.
    /// A throttled push is deferred — it stays in the round's missing set
    /// and the heartbeat-driven retry re-offers it next window.
    fn push_object_to(
        &mut self,
        group: GroupId,
        epoch: u64,
        peer: OsdId,
        oid: ObjectId,
        backfilling: bool,
        fx: &mut Vec<OsdEffect>,
    ) {
        let key = (group, peer, oid.raw());
        if self.backfill_inflight.contains(&key) {
            // Already pushed this window; wait for the ack or the next
            // retransmit window instead of duplicating the transfer.
            return;
        }
        if self.backfill_inflight.len() >= self.cfg.max_backfill_inflight {
            self.backfill_queued += 1;
            self.backfill_deferred = true;
            return;
        }
        let Some(data) = self.authoritative_object(group, oid) else {
            // Nothing readable to push (extent unknown): drop the claim so
            // recovery can finish instead of retrying forever.
            if let Some(rec) = self.recovery.get_mut(&group) {
                if let Some(m) = rec.missing.get_mut(&peer) {
                    m.remove(&oid.raw());
                }
            }
            return;
        };
        // A full budget always admits at least one push, so an object larger
        // than the per-tick budget cannot wedge recovery forever.
        if (data.len() as u64) > self.backfill_budget
            && self.backfill_budget < self.cfg.backfill_bytes_per_tick
        {
            self.backfill_queued += 1;
            self.backfill_deferred = true;
            return;
        }
        self.backfill_budget = self.backfill_budget.saturating_sub(data.len() as u64);
        self.backfill_inflight.insert(key);
        let entry = Box::new(self.newest_entry(group, oid));
        let content_digest = digest_segments(&data);
        self.recovery_pushes += 1;
        if backfilling {
            self.backfill_bytes += data.len() as u64;
        }
        fx.push(OsdEffect::SendPeer {
            to: peer,
            msg: PeerMsg::PushObject {
                group,
                epoch,
                entry,
                data,
                content_digest,
            },
        });
    }

    /// Enters Peering for every group this OSD now leads: drops rounds for
    /// groups it no longer leads and queries each acting-set peer for its
    /// pg_log. Solo groups (no peers up) have nobody to heal and skip it.
    fn start_peering(&mut self, fx: &mut Vec<OsdEffect>) {
        let epoch = self.map.epoch;
        let stale: Vec<GroupId> = self
            .recovery
            .keys()
            .copied()
            .filter(|&g| self.map.try_primary(g) != Some(self.id))
            .collect();
        for g in stale {
            self.recovery.remove(&g);
        }
        for g in 0..self.map.pg_count {
            let group = GroupId(g);
            let set = self.map.acting_set(group);
            if set.first() != Some(&self.id) || set.len() < 2 {
                continue;
            }
            let peers: BTreeSet<OsdId> = set.into_iter().filter(|&o| o != self.id).collect();
            for &peer in &peers {
                fx.push(OsdEffect::SendPeer {
                    to: peer,
                    msg: PeerMsg::PgQuery {
                        group,
                        epoch,
                        from: self.id,
                    },
                });
            }
            self.recovery.insert(
                group,
                PgRecovery {
                    epoch,
                    state: PgState::Peering,
                    awaiting_infos: peers,
                    infos: BTreeMap::new(),
                    missing: BTreeMap::new(),
                    backfill_peers: BTreeSet::new(),
                },
            );
        }
    }

    /// All peer infos arrived: diff each peer's log against ours, cut the
    /// per-peer missing sets, and start pushing. A peer whose log shares no
    /// history with ours (empty while we have entries) fell off the log tail
    /// and gets a full backfill of every object we track for the group.
    fn finish_peering(&mut self, group: GroupId, fx: &mut Vec<OsdEffect>) {
        let Some(epoch) = self.recovery.get(&group).map(|r| r.epoch) else {
            return;
        };
        let my_log: Vec<PgLogEntry> = self
            .pg_log
            .get(&group)
            .map(|l| l.iter().copied().collect())
            .unwrap_or_default();
        // Newest entry per object on our side.
        let mut latest: BTreeMap<u64, PgLogEntry> = BTreeMap::new();
        for e in &my_log {
            let slot = latest.entry(e.oid.raw()).or_insert(*e);
            if (e.epoch, e.version) > (slot.epoch, slot.version) {
                *slot = *e;
            }
        }
        let all_extents = self.group_extent_map(group);
        let Some(rec) = self.recovery.get_mut(&group) else {
            return;
        };
        let infos = std::mem::take(&mut rec.infos);
        let mut any_backfill = false;
        let mut any_missing = false;
        for (peer, entries) in infos {
            let peer_keys: BTreeSet<(u64, u64, u64)> =
                entries.iter().map(PgLogEntry::key).collect();
            let mut need: BTreeMap<u64, ObjectId> = BTreeMap::new();
            if entries.is_empty() && !my_log.is_empty() {
                // No shared history: backfill everything we track.
                for &(oid, _) in &all_extents {
                    need.insert(oid.raw(), oid);
                }
                rec.backfill_peers.insert(peer);
                any_backfill = true;
            } else {
                // Log replay: push the objects whose newest entry the peer
                // lacks. Entries the peer has that *we* lack (e.g. a write
                // we lost to a torn NVM tail while down) are deliberately
                // left alone: overwriting them could destroy an acked write
                // the peer is authoritative for — the joiner pull on our own
                // rejoin is what heals us from the peer, never the reverse.
                for e in latest.values() {
                    if !peer_keys.contains(&e.key()) {
                        need.insert(e.oid.raw(), e.oid);
                    }
                }
            }
            if !need.is_empty() {
                any_missing = true;
                rec.missing.insert(peer, need);
            }
        }
        if !any_missing {
            self.recovery.remove(&group);
            return;
        }
        rec.state = if any_backfill {
            PgState::Backfilling
        } else {
            PgState::Recovering
        };
        let work: Vec<(OsdId, Vec<ObjectId>, bool)> = self
            .recovery
            .get(&group)
            .map(|r| {
                r.missing
                    .iter()
                    .map(|(p, m)| {
                        (
                            *p,
                            m.values().copied().collect(),
                            r.backfill_peers.contains(p),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (peer, oids, backfilling) in work {
            for oid in oids {
                self.push_object_to(group, epoch, peer, oid, backfilling, fx);
            }
        }
    }

    /// Heartbeat-driven recovery retries: lost queries are re-asked and
    /// outstanding pushes re-sent, so a dropped message can never wedge a
    /// peering round.
    fn retry_recovery(&mut self, fx: &mut Vec<OsdEffect>) {
        let rounds: Vec<(GroupId, u64, PgState)> = self
            .recovery
            .iter()
            .map(|(g, r)| (*g, r.epoch, r.state))
            .collect();
        for (group, epoch, state) in rounds {
            if state == PgState::Peering {
                let waiting: Vec<OsdId> = self.recovery[&group]
                    .awaiting_infos
                    .iter()
                    .copied()
                    .collect();
                for peer in waiting {
                    fx.push(OsdEffect::SendPeer {
                        to: peer,
                        msg: PeerMsg::PgQuery {
                            group,
                            epoch,
                            from: self.id,
                        },
                    });
                }
            } else {
                let work: Vec<(OsdId, Vec<ObjectId>, bool)> = self.recovery[&group]
                    .missing
                    .iter()
                    .map(|(p, m)| {
                        (
                            *p,
                            m.values().copied().collect(),
                            self.recovery[&group].backfill_peers.contains(p),
                        )
                    })
                    .collect();
                for (peer, oids, backfilling) in work {
                    for oid in oids {
                        self.push_object_to(group, epoch, peer, oid, backfilling, fx);
                    }
                }
            }
        }
    }

    /// Heartbeat-driven replication retransmit: an in-flight write still
    /// waiting on replica acks after two ticks has very likely lost either
    /// the repop or the ack; re-send to the laggards. This is what guarantees
    /// replicas converge even when the *client* has given up on the op.
    fn retransmit_stale_inflight(&mut self, fx: &mut Vec<OsdEffect>) {
        let mut seqs: Vec<u64> = self.inflight.keys().copied().collect();
        seqs.sort_unstable();
        let mut stale: Vec<(u64, GroupId, Transaction)> = Vec::new();
        for seq in seqs {
            let w = self.inflight.get_mut(&seq).expect("listed");
            if w.waiting_acks.is_empty() {
                continue;
            }
            w.ticks += 1;
            if w.ticks >= 2 {
                w.ticks = 0;
                stale.push((seq, w.group, w.txn.clone()));
            }
        }
        for (seq, group, txn) in stale {
            self.retransmit_pending(seq, group, txn, fx);
        }
    }

    /// Re-sends `PullLog` for every group whose pulled records or backfill
    /// have not arrived (the originals may have been dropped or cut off by a
    /// partition). Driven by the heartbeat timer.
    fn retry_pulls(&mut self, fx: &mut Vec<OsdEffect>) {
        let mut groups: Vec<GroupId> = self.awaiting_log.iter().copied().collect();
        groups.extend(self.awaiting_backfill.iter().copied());
        groups.sort();
        groups.dedup();
        for group in groups {
            // Prefer the recorded data-holding source; fall back to a
            // current acting-set peer only if the source has since died.
            let peer = self
                .pull_sources
                .get(&group)
                .copied()
                .filter(|&o| self.map.osd(o).up)
                .or_else(|| {
                    self.map
                        .acting_set(group)
                        .into_iter()
                        .find(|&o| o != self.id)
                });
            if let Some(peer) = peer {
                self.pull_sources.insert(group, peer);
                fx.push(OsdEffect::SendPeer {
                    to: peer,
                    msg: PeerMsg::PullLog {
                        group,
                        from: self.id,
                    },
                });
            }
        }
    }

    /// Starts a scrub round for `group` (primary only). A round already
    /// running keeps running; starts blocked by an active recovery, an
    /// unfinished join, or the deep-read throttle are queued and retried on
    /// the heartbeat.
    fn on_scrub_start(&mut self, group: GroupId, deep: bool, fx: &mut Vec<OsdEffect>) {
        if self.cfg.mode.null_transaction() || self.cfg.mode.null_store() {
            return; // no data to scrub
        }
        if self.map.try_primary(group) != Some(self.id) {
            return;
        }
        if let Some(rec) = self.scrubs.get(&group) {
            if !rec.deep && deep {
                // Upgrade request while a light round runs: queue the deep
                // pass instead of losing it.
                self.scrub_queue.insert(group, true);
            }
            return;
        }
        if self.recovery.contains_key(&group)
            || self.awaiting_log.contains(&group)
            || self.awaiting_backfill.contains(&group)
        {
            // Recovery owns the group right now; scrub once it settles.
            let slot = self.scrub_queue.entry(group).or_insert(deep);
            *slot |= deep;
            return;
        }
        if deep {
            // Deep scrubs read every tracked byte; charge the shared
            // recovery byte budget so scrub and backfill together stay
            // under the same ceiling. A full budget always admits one
            // group, so oversized groups cannot starve forever.
            let total: u64 = self
                .group_extents
                .get(&group)
                .map(|m| m.values().sum())
                .unwrap_or(0);
            if total > self.backfill_budget
                && self.backfill_budget < self.cfg.backfill_bytes_per_tick
            {
                let slot = self.scrub_queue.entry(group).or_insert(deep);
                *slot |= deep;
                self.scrub_deferred = true;
                return;
            }
            self.backfill_budget = self.backfill_budget.saturating_sub(total);
        }
        let epoch = self.map.epoch;
        let peers: BTreeSet<OsdId> = self
            .map
            .acting_set(group)
            .into_iter()
            .filter(|&o| o != self.id)
            .collect();
        let local = self.scrub_local_map(group, deep, fx);
        let mut maps = BTreeMap::new();
        maps.insert(self.id, local);
        for &peer in &peers {
            fx.push(OsdEffect::SendPeer {
                to: peer,
                msg: PeerMsg::ScrubRequest {
                    group,
                    epoch,
                    deep,
                    from: self.id,
                },
            });
        }
        let done = peers.is_empty();
        self.scrubs.insert(
            group,
            ScrubRound {
                epoch,
                deep,
                awaiting: peers,
                maps,
                compared: false,
                self_wait: BTreeMap::new(),
                peer_repairs: BTreeMap::new(),
            },
        );
        if done {
            // Solo group: nothing to compare against; a deep pass still
            // surfaces local rot through the read-repair fetch path.
            self.finish_scrub(group, fx);
        }
    }

    /// Builds this OSD's scrub map of `group`: one [`ScrubEntry`] per
    /// tracked object. Light scrubs use checksum metadata where the backend
    /// has it (no data reads) and fall back to digesting the bytes; deep
    /// scrubs always read everything, so rotted blocks trip their checksum
    /// and mark the entry damaged.
    fn scrub_local_map(
        &mut self,
        group: GroupId,
        deep: bool,
        fx: &mut Vec<OsdEffect>,
    ) -> Vec<ScrubEntry> {
        self.sync_group_log(group);
        let extents = self.group_extent_map(group);
        let mut entries = Vec::with_capacity(extents.len());
        for (oid, len) in extents {
            if len == 0 {
                continue;
            }
            let (epoch, version) = self.pg_latest(group, oid);
            let entry = |size, digest, damaged| ScrubEntry {
                oid_raw: oid.raw(),
                size,
                digest,
                damaged,
                epoch,
                version,
            };
            let entry = if !deep {
                match self.backend.csum_digest(oid) {
                    Some((size, digest)) => entry(size, digest, false),
                    // No checksum metadata (LSM backend): light degrades to
                    // digesting the bytes, Err meaning the copy is gone.
                    None => match self.backend.read_segments(oid, 0, len) {
                        Ok(data) => entry(len, digest_segments(&data), false),
                        Err(_) => entry(len, 0, true),
                    },
                }
            } else {
                self.scrub_bytes += len;
                match self.backend.read_segments(oid, 0, len) {
                    Ok(data) => entry(len, digest_segments(&data), false),
                    Err(_) => entry(len, 0, true),
                }
            };
            entries.push(entry);
        }
        let trace = self.backend.take_trace();
        if !trace.is_empty() {
            let token = self.token();
            self.pending_store.insert(token, StoreCtx::Background);
            fx.push(OsdEffect::StoreIo {
                token,
                trace,
                wait: false,
            });
        }
        entries
    }

    /// All scrub maps arrived: vote an authoritative `(size, digest)` per
    /// object (majority of undamaged copies; ties go to the copy held by
    /// the smallest OSD id) and cut the repair sets. Copies that are
    /// damaged, missing, or divergent are errors; objects with no good copy
    /// anywhere are counted but unrepairable and dropped so the group can
    /// return to Active.
    fn finish_scrub(&mut self, group: GroupId, fx: &mut Vec<OsdEffect>) {
        let Some(rec) = self.scrubs.get_mut(&group) else {
            return;
        };
        let maps = std::mem::take(&mut rec.maps);
        rec.compared = true;
        // Union of objects over every member's map.
        let mut all: BTreeMap<u64, Vec<(OsdId, ScrubEntry)>> = BTreeMap::new();
        for (&member, entries) in &maps {
            for e in entries {
                all.entry(e.oid_raw).or_default().push((member, *e));
            }
        }
        let members: Vec<OsdId> = maps.keys().copied().collect();
        let mut self_wait: BTreeMap<u64, ObjectId> = BTreeMap::new();
        let mut peer_repairs: BTreeMap<u64, (ObjectId, BTreeSet<OsdId>)> = BTreeMap::new();
        let mut errors = 0u64;
        for (raw, copies) in &all {
            let oid = ObjectId::from_raw(*raw);
            // Maps are collected at different instants, so a client write
            // landing mid-round leaves the copies at different pg_log
            // versions with honestly different bytes. That is replication in
            // progress, not damage: skip the object and let the next round
            // see it at rest. Same-version divergence is the real thing.
            let mut stamps = copies
                .iter()
                .filter(|(_, e)| !e.damaged)
                .map(|(_, e)| (e.epoch, e.version));
            let first = stamps.next();
            if first.is_some() && !stamps.all(|s| Some(s) == first) {
                continue;
            }
            // Vote among undamaged copies.
            let mut votes: BTreeMap<(u64, u64), Vec<OsdId>> = BTreeMap::new();
            for (member, e) in copies {
                if !e.damaged {
                    votes.entry((e.size, e.digest)).or_default().push(*member);
                }
            }
            let authoritative = votes
                .iter()
                .max_by_key(|(_, holders)| {
                    (
                        holders.len(),
                        // Tie → prefer the digest the smallest id holds
                        // (Reverse of min id sorts it last = max).
                        std::cmp::Reverse(holders.iter().min().copied()),
                    )
                })
                .map(|(key, _)| *key);
            let Some(auth) = authoritative else {
                // Every copy is damaged: nothing to heal from. Count each
                // bad copy and move on — re-writes recompute checksums and
                // heal the object from above.
                errors += copies.len() as u64;
                continue;
            };
            for &member in &members {
                let good = copies
                    .iter()
                    .any(|(m, e)| *m == member && !e.damaged && (e.size, e.digest) == auth);
                if good {
                    continue;
                }
                errors += 1;
                if member == self.id {
                    self_wait.insert(*raw, oid);
                } else {
                    peer_repairs
                        .entry(*raw)
                        .or_insert_with(|| (oid, BTreeSet::new()))
                        .1
                        .insert(member);
                }
            }
        }
        self.scrub_errors_found += errors;
        let rec = self.scrubs.get_mut(&group).expect("round exists");
        rec.self_wait = self_wait;
        rec.peer_repairs = peer_repairs;
        self.drive_scrub_repairs(group, fx);
        self.scrub_maybe_done(group);
    }

    /// Issues the round's outstanding repairs: fetches for locally damaged
    /// objects, pushes (through the throttled recovery push machinery) for
    /// peers — but never of an object still awaiting its own heal, so
    /// rotten bytes are never propagated.
    fn drive_scrub_repairs(&mut self, group: GroupId, fx: &mut Vec<OsdEffect>) {
        let Some(rec) = self.scrubs.get(&group) else {
            return;
        };
        if !rec.compared {
            return;
        }
        let epoch = rec.epoch;
        let fetch: Vec<ObjectId> = rec.self_wait.values().copied().collect();
        let push: Vec<(ObjectId, Vec<OsdId>)> = rec
            .peer_repairs
            .iter()
            .filter(|(raw, _)| !rec.self_wait.contains_key(raw))
            .map(|(_, (oid, peers))| (*oid, peers.iter().copied().collect()))
            .collect();
        for oid in fetch {
            self.request_object_fetch(group, oid, fx);
        }
        for (oid, peers) in push {
            for peer in peers {
                self.push_object_to(group, epoch, peer, oid, false, fx);
            }
        }
    }

    /// Drops a finished scrub round (maps compared, no repairs left).
    fn scrub_maybe_done(&mut self, group: GroupId) {
        let done = self
            .scrubs
            .get(&group)
            .is_some_and(|r| r.compared && r.self_wait.is_empty() && r.peer_repairs.is_empty());
        if done {
            self.scrubs.remove(&group);
            self.scrubs_completed += 1;
        }
    }

    /// Asks an acting-set peer to push `oid` back to this OSD (self-heal of
    /// a copy that failed its checksum). Deduplicated per object; the
    /// heartbeat retries with source rotation, so one rotten or dead peer
    /// cannot wedge the heal.
    fn request_object_fetch(&mut self, group: GroupId, oid: ObjectId, fx: &mut Vec<OsdEffect>) {
        let key = (group, oid.raw());
        if self.fetches.contains_key(&key) {
            return;
        }
        let Some(src) = self
            .map
            .acting_set(group)
            .into_iter()
            .find(|&o| o != self.id)
        else {
            return; // nobody to heal from; a later map/scrub retries
        };
        self.fetches.insert(key, (oid, src));
        fx.push(OsdEffect::SendPeer {
            to: src,
            msg: PeerMsg::ScrubFetch {
                group,
                epoch: self.map.epoch,
                oid,
                from: self.id,
            },
        });
    }

    /// A pushed object applied cleanly over a copy this OSD was trying to
    /// heal: settle the fetch, credit the scrub round, and release any
    /// peer repairs that were waiting on our own copy becoming good.
    fn note_object_healed(&mut self, group: GroupId, oid: ObjectId, fx: &mut Vec<OsdEffect>) {
        self.fetches.remove(&(group, oid.raw()));
        let mut drive = false;
        if let Some(rec) = self.scrubs.get_mut(&group) {
            if rec.compared && rec.self_wait.remove(&oid.raw()).is_some() {
                self.scrub_errors_repaired += 1;
                drive = true;
            }
        }
        if drive {
            self.drive_scrub_repairs(group, fx);
            self.scrub_maybe_done(group);
        }
    }

    /// Heartbeat-driven scrub progress: queued starts re-attempted (budget
    /// has replenished), un-replied map requests re-sent, repair pushes
    /// re-offered into the new throttle window, and self-heal fetches
    /// retried against the next acting-set member.
    fn retry_scrubs(&mut self, fx: &mut Vec<OsdEffect>) {
        let queued: Vec<(GroupId, bool)> =
            std::mem::take(&mut self.scrub_queue).into_iter().collect();
        for (group, deep) in queued {
            self.on_scrub_start(group, deep, fx);
        }
        let groups: Vec<GroupId> = self.scrubs.keys().copied().collect();
        for group in groups {
            let rec = &self.scrubs[&group];
            if !rec.compared {
                let (epoch, deep) = (rec.epoch, rec.deep);
                let waiting: Vec<OsdId> = rec.awaiting.iter().copied().collect();
                for peer in waiting {
                    fx.push(OsdEffect::SendPeer {
                        to: peer,
                        msg: PeerMsg::ScrubRequest {
                            group,
                            epoch,
                            deep,
                            from: self.id,
                        },
                    });
                }
            } else {
                self.drive_scrub_repairs(group, fx);
            }
        }
        let keys: Vec<(GroupId, u64)> = self.fetches.keys().copied().collect();
        for key in keys {
            let (oid, cur) = self.fetches[&key];
            let group = key.0;
            let set: Vec<OsdId> = self
                .map
                .acting_set(group)
                .into_iter()
                .filter(|&o| o != self.id)
                .collect();
            if set.is_empty() {
                continue;
            }
            let next = match set.iter().position(|&o| o == cur) {
                Some(i) => set[(i + 1) % set.len()],
                None => set[0],
            };
            self.fetches.insert(key, (oid, next));
            fx.push(OsdEffect::SendPeer {
                to: next,
                msg: PeerMsg::ScrubFetch {
                    group,
                    epoch: self.map.epoch,
                    oid,
                    from: self.id,
                },
            });
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
            OsdInput::Client { from, req } => self.on_client(from, req, fx),
            OsdInput::Peer { from, msg } => self.on_peer(from, msg, fx),
            OsdInput::StoreDurable { token } => self.on_store_durable(token, fx),
            OsdInput::FlushGroup { group } => self.on_flush_group(group, fx),
            OsdInput::ReadFromStore { token } => self.on_read_from_store(token, fx),
            OsdInput::SubmitDeferred { token } => self.on_submit_deferred(token, fx),
            OsdInput::MaintStep => self.on_maint_step(fx),
            OsdInput::ScrubStart { group, deep } => self.on_scrub_start(group, deep, fx),
            OsdInput::HeartbeatTick => {
                fx.push(OsdEffect::Heartbeat);
                // New throttle window: account the one that just closed,
                // replenish the byte budget, and let unacked pushes
                // retransmit (they re-enter the window via retry_recovery).
                if self.backfill_deferred {
                    self.backfill_throttled_nanos += self.cfg.backfill_tick_nanos;
                    self.backfill_deferred = false;
                }
                self.backfill_budget = self.cfg.backfill_bytes_per_tick;
                self.backfill_inflight.clear();
                // Piggy-back peer-recovery retries on the liveness timer: a
                // lost PullLog/LogRecords/Backfill would otherwise wedge the
                // join forever.
                self.retry_pulls(fx);
                // Same for lost peering queries and recovery pushes, and for
                // replication messages of writes stuck on laggard replicas.
                self.retry_recovery(fx);
                self.retransmit_stale_inflight(fx);
                // Scrub rides the same timer: account a throttled window,
                // then re-drive queued starts, map requests, repairs and
                // self-heal fetches into the replenished budget.
                if self.scrub_deferred {
                    self.scrub_throttled_nanos += self.cfg.backfill_tick_nanos;
                    self.scrub_deferred = false;
                }
                self.retry_scrubs(fx);
            }
            OsdInput::MapUpdate(map) => self.on_map_update(map, fx),
        }
    }

    fn on_client(&mut self, from: ClientId, req: ClientReq, fx: &mut Vec<OsdEffect>) {
        match req {
            ClientReq::Write {
                op,
                oid,
                offset,
                data,
            } => {
                let group = oid.group();
                if self.already_completed(from, op) {
                    fx.push(OsdEffect::Reply {
                        to: from,
                        msg: ClientReply::Done { op },
                    });
                    return;
                }
                if let Some(seq) = self.inflight_seq(from, op) {
                    // Retry of an op still replicating: the original peer
                    // message may have been lost, so rebuild the identical
                    // transaction and retransmit to laggard replicas only.
                    let txn = self.build_write_txn(group, seq, oid, offset, data);
                    self.retransmit_pending(seq, group, txn, fx);
                    return;
                }
                if self.below_write_quorum(group, from, op, fx) {
                    return;
                }
                self.seq += 1;
                let seq = self.seq;
                let txn = self.build_write_txn(group, seq, oid, offset, data);
                self.note_txn(&txn);
                self.pg_log_note(group, seq, &txn);
                if self.cfg.mode.decoupled() {
                    self.write_decoupled(from, op, group, seq, txn, fx);
                } else {
                    self.write_coupled(from, op, group, seq, txn, fx);
                }
            }
            ClientReq::Create { op, oid, size } => {
                let group = oid.group();
                if self.already_completed(from, op) {
                    fx.push(OsdEffect::Reply {
                        to: from,
                        msg: ClientReply::Done { op },
                    });
                    return;
                }
                if let Some(seq) = self.inflight_seq(from, op) {
                    let txn = Transaction::new(group, seq, vec![Op::Create { oid, size }]);
                    self.retransmit_pending(seq, group, txn, fx);
                    return;
                }
                if self.below_write_quorum(group, from, op, fx) {
                    return;
                }
                self.seq += 1;
                let seq = self.seq;
                let txn = Transaction::new(group, seq, vec![Op::Create { oid, size }]);
                self.note_txn(&txn);
                self.pg_log_note(group, seq, &txn);
                if self.cfg.mode.decoupled() {
                    self.write_decoupled(from, op, group, seq, txn, fx);
                } else {
                    self.write_coupled(from, op, group, seq, txn, fx);
                }
            }
            ClientReq::Read {
                op,
                oid,
                offset,
                len,
            } => {
                self.on_client_read(from, op, oid, offset, len, fx);
            }
        }
    }

    /// The `min_size` quorum gate (Ceph semantics): mutations are refused
    /// with a retryable [`StoreError::Degraded`] while too few acting-set
    /// members are up to accept the write safely. Never panics — losing
    /// nodes degrades service instead of crashing placement.
    fn below_write_quorum(
        &mut self,
        group: GroupId,
        from: ClientId,
        op: OpId,
        fx: &mut Vec<OsdEffect>,
    ) -> bool {
        if self.map.acting_set(group).len() >= self.map.min_size {
            return false;
        }
        fx.push(OsdEffect::Reply {
            to: from,
            msg: ClientReply::Error {
                op,
                error: StoreError::Degraded,
            },
        });
        true
    }

    /// Stock write path: replicate and persist before acking (Fig. 3-a).
    fn write_coupled(
        &mut self,
        from: ClientId,
        op: OpId,
        group: GroupId,
        seq: u64,
        txn: Transaction,
        fx: &mut Vec<OsdEffect>,
    ) {
        let replicas = self.replicas_of(group);
        for &r in &replicas {
            fx.push(OsdEffect::SendPeer {
                to: r,
                msg: PeerMsg::Repop {
                    group,
                    seq,
                    txn: txn.clone(),
                },
            });
        }
        let local_done = self.cfg.mode.null_transaction() || self.cfg.mode.null_store();
        self.inflight.insert(
            seq,
            WriteOp {
                client: from,
                op,
                group,
                txn: txn.clone(),
                waiting_acks: replicas,
                local_done,
                ticks: 0,
            },
        );
        self.inflight_ops.insert((from, op), seq);
        if local_done {
            self.try_complete_write(seq, fx);
            return;
        }
        if self.cfg.mode.prioritized() {
            // PTC: the priority thread never does storage processing; hand
            // the transaction to a non-priority thread (§IV-B).
            let token = self.token();
            self.deferred_submits.insert(
                token,
                DeferredSubmit {
                    txn,
                    ctx: StoreCtx::WriteLocal { seq },
                },
            );
            fx.push(OsdEffect::WakeSubmit { token });
            return;
        }
        if let Err(error) = self.backend.submit(txn) {
            self.inflight.remove(&seq);
            self.inflight_ops.remove(&(from, op));
            fx.push(OsdEffect::Reply {
                to: from,
                msg: ClientReply::Error { op, error },
            });
            return;
        }
        let token = self.token();
        let trace = self.backend.take_trace();
        self.pending_store
            .insert(token, StoreCtx::WriteLocal { seq });
        fx.push(OsdEffect::StoreIo {
            token,
            trace,
            wait: true,
        });
        self.kick_maintenance(fx);
    }

    /// Decoupled write path (Fig. 3-b): log to NVM, replicate, ack; flush
    /// later in batches.
    fn write_decoupled(
        &mut self,
        from: ClientId,
        op: OpId,
        group: GroupId,
        seq: u64,
        txn: Transaction,
        fx: &mut Vec<OsdEffect>,
    ) {
        let replicas = self.replicas_of(group);
        for &r in &replicas {
            fx.push(OsdEffect::SendPeer {
                to: r,
                msg: PeerMsg::RepopNvm {
                    group,
                    seq,
                    txn: txn.clone(),
                },
            });
        }
        let (bytes, stall) = self.log_append_with_fallback(group, txn.clone(), fx);
        fx.push(OsdEffect::NvmWritten { bytes });
        let local_done = match stall {
            None => true,
            Some(token) => {
                // Synchronous-flush backpressure: the ack waits until the
                // forced flush is durable.
                self.pending_store
                    .insert(token, StoreCtx::WriteLocal { seq });
                false
            }
        };
        self.inflight.insert(
            seq,
            WriteOp {
                client: from,
                op,
                group,
                txn,
                waiting_acks: replicas,
                local_done,
                ticks: 0,
            },
        );
        self.inflight_ops.insert((from, op), seq);
        let needs_flush = {
            let log = self.log_for(group);
            log.pending() >= log.flush_threshold
        };
        if needs_flush && !self.rt(group).flushing {
            fx.push(OsdEffect::WakeFlush { group });
        }
        self.try_complete_write(seq, fx);
    }

    /// Appends to the group log; when NVM is full, forces a synchronous
    /// flush first (the paper's degenerate full-NVM case: "flushing needs
    /// to be synchronously done before handling I/O operations"). Returns
    /// the NVM bytes written plus, on a stall, the store token the caller
    /// must wait on before acknowledging — that wait is the backpressure
    /// that keeps a log-ahead system device-bound under sustained load.
    fn log_append_with_fallback(
        &mut self,
        group: GroupId,
        txn: Transaction,
        fx: &mut Vec<OsdEffect>,
    ) -> (u64, Option<u64>) {
        // Oversized writes bypass the log entirely: a record that cannot
        // fit the ring is persisted synchronously to the backend (real
        // journals cap entry sizes the same way).
        let estimated = txn.user_bytes() + 2048;
        if estimated + 64 >= self.cfg.ring_bytes {
            self.backend.submit(txn).expect("oversized bypass submit");
            let token = self.token();
            let trace = self.backend.take_trace();
            self.pending_store.insert(token, StoreCtx::Background);
            fx.push(OsdEffect::StoreIo {
                token,
                trace,
                wait: true,
            });
            self.kick_maintenance(fx);
            return (0, Some(token));
        }
        // Take the log out to satisfy the borrow checker across the
        // flush path.
        self.log_for(group);
        let mut log = self.logs.remove(&group).expect("ensured above");
        let mut stall_token = None;
        if !log.fits(&txn) {
            self.nvm_full_stalls += 1;
            let txns = log
                .drain_for_flush(&mut self.nvm, usize::MAX)
                .expect("drain succeeds");
            for t in txns {
                self.backend.submit(t).expect("flush submit");
            }
            let token = self.token();
            let trace = self.backend.take_trace();
            self.pending_store.insert(token, StoreCtx::Background);
            fx.push(OsdEffect::StoreIo {
                token,
                trace,
                wait: true,
            });
            stall_token = Some(token);
        }
        let bytes = log
            .append(&mut self.nvm, txn)
            .unwrap_or_else(|e| panic!("{}: unexpected op-log error: {e}", self.id))
            .nvm_bytes;
        self.logs.insert(group, log);
        (bytes, stall_token)
    }

    fn rt(&mut self, group: GroupId) -> &mut GroupRuntime {
        self.group_rt.entry(group).or_default()
    }

    fn on_client_read(
        &mut self,
        from: ClientId,
        op: OpId,
        oid: ObjectId,
        offset: u64,
        len: u64,
        fx: &mut Vec<OsdEffect>,
    ) {
        if self.cfg.mode.null_transaction() {
            // No storage processing: answer immediately (Ideal / RTC-v3).
            fx.push(OsdEffect::Reply {
                to: from,
                msg: ClientReply::Data {
                    op,
                    data: vec![0; len as usize].into(),
                },
            });
            return;
        }
        if self.cfg.mode.decoupled() {
            let group = oid.group();
            let path = self
                .logs
                .get(&group)
                .map_or(ReadPath::Store, |log| log.read_path(oid, offset, len));
            match path {
                ReadPath::FromLog(data) => {
                    fx.push(OsdEffect::Reply {
                        to: from,
                        msg: ClientReply::Data { op, data },
                    });
                }
                ReadPath::Store => {
                    if self.awaiting_backfill.contains(&group) {
                        // The backend may still miss data the backfill will
                        // bring; park the read until it arrives.
                        let dr = DeferredRead {
                            client: from,
                            op,
                            oid,
                            offset,
                            len,
                        };
                        self.rt(group).waiting_reads.push(dr);
                        return;
                    }
                    let token = self.token();
                    self.deferred_reads.insert(
                        token,
                        DeferredRead {
                            client: from,
                            op,
                            oid,
                            offset,
                            len,
                        },
                    );
                    fx.push(OsdEffect::WakeRead { token });
                }
                ReadPath::FlushThenStore => {
                    let dr = DeferredRead {
                        client: from,
                        op,
                        oid,
                        offset,
                        len,
                    };
                    self.rt(group).waiting_reads.push(dr);
                    if !self.rt(group).flushing {
                        fx.push(OsdEffect::WakeFlush { group });
                    }
                }
            }
            return;
        }
        if self.cfg.mode.prioritized() {
            // PTC: store reads happen on non-priority threads too.
            let token = self.token();
            self.deferred_reads.insert(
                token,
                DeferredRead {
                    client: from,
                    op,
                    oid,
                    offset,
                    len,
                },
            );
            fx.push(OsdEffect::WakeRead { token });
            return;
        }
        // Stock thread-pool / RTC modes: read the backend inline.
        self.read_store_now(
            DeferredRead {
                client: from,
                op,
                oid,
                offset,
                len,
            },
            fx,
        );
    }

    fn read_store_now(&mut self, dr: DeferredRead, fx: &mut Vec<OsdEffect>) {
        match self.backend.read(dr.oid, dr.offset, dr.len) {
            Ok(data) => {
                let trace = self.backend.take_trace();
                if trace
                    .iter()
                    .any(|t| matches!(t.kind, rablock_storage::TraceKind::Read))
                {
                    let token = self.token();
                    self.pending_store.insert(
                        token,
                        StoreCtx::Read {
                            client: dr.client,
                            op: dr.op,
                            data,
                        },
                    );
                    fx.push(OsdEffect::StoreIo {
                        token,
                        trace,
                        wait: true,
                    });
                } else {
                    fx.push(OsdEffect::Reply {
                        to: dr.client,
                        msg: ClientReply::Data { op: dr.op, data },
                    });
                }
            }
            Err(error) => {
                // A failed read may still have touched the device (e.g. the
                // block whose checksum tripped); drop the partial trace.
                let _ = self.backend.take_trace();
                if matches!(error, StoreError::ChecksumMismatch) {
                    // Read-path verification caught rot: the client gets a
                    // retryable error (and redirects to another replica);
                    // this OSD heals itself in the background.
                    self.read_checksum_errors += 1;
                    self.request_object_fetch(dr.oid.group(), dr.oid, fx);
                }
                fx.push(OsdEffect::Reply {
                    to: dr.client,
                    msg: ClientReply::Error { op: dr.op, error },
                });
            }
        }
    }

    fn on_peer(&mut self, from: OsdId, msg: PeerMsg, fx: &mut Vec<OsdEffect>) {
        match msg {
            PeerMsg::Repop { group, seq, txn } => {
                if self.replica_already_applied(group, seq) {
                    // Primary retransmit after a lost ack: re-ack only.
                    fx.push(OsdEffect::SendPeer {
                        to: from,
                        msg: PeerMsg::RepAck {
                            group,
                            seq,
                            from: self.id,
                        },
                    });
                    return;
                }
                self.note_replica_applied(group, seq);
                if self.cfg.mode.null_transaction() || self.cfg.mode.null_store() {
                    fx.push(OsdEffect::SendPeer {
                        to: from,
                        msg: PeerMsg::RepAck {
                            group,
                            seq,
                            from: self.id,
                        },
                    });
                    return;
                }
                self.note_txn(&txn);
                self.pg_log_note(group, seq, &txn);
                let ctx = StoreCtx::ReplicaPersist {
                    primary: from,
                    group,
                    seq,
                };
                if self.cfg.mode.prioritized() {
                    let token = self.token();
                    self.deferred_submits
                        .insert(token, DeferredSubmit { txn, ctx });
                    fx.push(OsdEffect::WakeSubmit { token });
                    return;
                }
                match self.backend.submit(txn) {
                    Ok(()) => {
                        let token = self.token();
                        let trace = self.backend.take_trace();
                        self.pending_store.insert(token, ctx);
                        fx.push(OsdEffect::StoreIo {
                            token,
                            trace,
                            wait: true,
                        });
                        self.kick_maintenance(fx);
                    }
                    Err(error) => {
                        // A failed apply must not kill the OSD: withdraw the
                        // provisional bookkeeping and NACK so the primary
                        // can mark this peer missing and re-drive recovery.
                        self.unnote_replica_applied(group, seq);
                        self.pg_log_unnote(group, seq);
                        fx.push(OsdEffect::SendPeer {
                            to: from,
                            msg: PeerMsg::RepNack {
                                group,
                                seq,
                                from: self.id,
                                error,
                            },
                        });
                    }
                }
            }
            PeerMsg::RepopNvm { group, seq, txn } => {
                if self.replica_already_applied(group, seq) {
                    fx.push(OsdEffect::SendPeer {
                        to: from,
                        msg: PeerMsg::RepAck {
                            group,
                            seq,
                            from: self.id,
                        },
                    });
                    return;
                }
                self.note_replica_applied(group, seq);
                self.note_txn(&txn);
                self.pg_log_note(group, seq, &txn);
                let (bytes, stall) = self.log_append_with_fallback(group, txn, fx);
                fx.push(OsdEffect::NvmWritten { bytes });
                match stall {
                    None => fx.push(OsdEffect::SendPeer {
                        to: from,
                        msg: PeerMsg::RepAck {
                            group,
                            seq,
                            from: self.id,
                        },
                    }),
                    Some(token) => {
                        // Backpressure on the replica too: ack only after
                        // the forced flush lands.
                        self.pending_store.insert(
                            token,
                            StoreCtx::ReplicaPersist {
                                primary: from,
                                group,
                                seq,
                            },
                        );
                    }
                }
                let needs_flush = {
                    let log = self.log_for(group);
                    log.pending() >= log.flush_threshold
                };
                if needs_flush && !self.rt(group).flushing {
                    fx.push(OsdEffect::WakeFlush { group });
                }
            }
            PeerMsg::RepAck {
                seq, from: replica, ..
            } => {
                if let Some(wop) = self.inflight.get_mut(&seq) {
                    wop.waiting_acks.retain(|&o| o != replica);
                }
                self.try_complete_write(seq, fx);
            }
            PeerMsg::PullLog {
                group,
                from: requester,
            } => {
                if self.awaiting_log.contains(&group) || self.awaiting_backfill.contains(&group) {
                    // Not authoritative yet: this OSD is itself still
                    // synchronizing the group. Answering now would hand the
                    // requester an empty "complete" backfill. Stay silent —
                    // the requester's pull retry re-drives the transfer once
                    // our own synchronization lands.
                    return;
                }
                // Bring the backend up to date with the group's pending
                // records first, so the shipped contents include every
                // write this survivor has acked.
                self.sync_group_log(group);
                // Backfill first: full object contents, so the joiner
                // catches up on everything flushed before the failure. The
                // joiner applies these before importing the pending records
                // below.
                let mut extents: Vec<(ObjectId, u64)> = self
                    .group_extents
                    .get(&group)
                    .map(|m| m.iter().map(|(o, l)| (*o, *l)).collect())
                    .unwrap_or_default();
                extents.sort_by_key(|(o, _)| o.raw());
                let mut objects = Vec::new();
                for (oid, len) in extents {
                    if let Ok(data) = self.backend.read_segments(oid, 0, len) {
                        objects.push((oid, data));
                    }
                }
                let trace = self.backend.take_trace();
                if !trace.is_empty() {
                    let token = self.token();
                    self.pending_store.insert(token, StoreCtx::Background);
                    fx.push(OsdEffect::StoreIo {
                        token,
                        trace,
                        wait: false,
                    });
                }
                fx.push(OsdEffect::SendPeer {
                    to: requester,
                    msg: PeerMsg::Backfill { group, objects },
                });
                let records: Vec<Vec<u8>> = self.logs.get(&group).map_or_else(Vec::new, |l| {
                    l.export_encoded(&mut self.nvm)
                        .expect("log export for a pulling peer")
                });
                fx.push(OsdEffect::SendPeer {
                    to: requester,
                    msg: PeerMsg::LogRecords { group, records },
                });
            }
            PeerMsg::LogRecords { group, records } => {
                if !self.awaiting_log.remove(&group) {
                    // Duplicate or unsolicited response: the first import
                    // won; re-importing could resurrect stale data.
                    return;
                }
                if !self.awaiting_backfill.contains(&group) {
                    self.pull_sources.remove(&group);
                }
                let decoded: Vec<LogRecord> = records
                    .iter()
                    .map(|raw| LogRecord::decode(raw).expect("peer sends valid records").0)
                    .collect();
                for r in &decoded {
                    self.note_txn(&r.txn);
                }
                let total: u64 = records.iter().map(|r| r.len() as u64).sum();
                self.log_for(group);
                let mut log = self.logs.remove(&group).expect("ensured");
                if log.pending() == 0 {
                    log.import_records(&mut self.nvm, decoded)
                        .expect("import into empty log");
                    fx.push(OsdEffect::NvmWritten { bytes: total });
                } else {
                    // Writes already landed here before the pulled records
                    // arrived, so the log holds newer data. Apply the pulled
                    // (older) records straight to the backend: reads prefer
                    // the log, and the eventual flush overwrites with the
                    // newer bytes.
                    for r in decoded {
                        self.backend.submit(r.txn).expect("pulled-record apply");
                    }
                    let trace = self.backend.take_trace();
                    if !trace.is_empty() {
                        let token = self.token();
                        self.pending_store.insert(token, StoreCtx::Background);
                        fx.push(OsdEffect::StoreIo {
                            token,
                            trace,
                            wait: false,
                        });
                    }
                }
                self.logs.insert(group, log);
            }
            PeerMsg::Backfill { group, objects } => {
                if !self.awaiting_backfill.remove(&group) {
                    return; // duplicate or unsolicited
                }
                if !self.awaiting_log.contains(&group) {
                    self.pull_sources.remove(&group);
                }
                for (oid, data) in objects {
                    self.seq += 1;
                    let txn = whole_object_txn(group, self.seq, oid, data);
                    self.note_txn(&txn);
                    self.backend.submit(txn).expect("backfill apply");
                }
                let trace = self.backend.take_trace();
                if !trace.is_empty() {
                    let token = self.token();
                    self.pending_store.insert(token, StoreCtx::Background);
                    fx.push(OsdEffect::StoreIo {
                        token,
                        trace,
                        wait: false,
                    });
                }
                self.kick_maintenance(fx);
                // Flushes and cold reads were held back while waiting; let
                // them go now.
                let needs_flush = self
                    .logs
                    .get(&group)
                    .is_some_and(|l| l.pending() >= l.flush_threshold);
                let has_readers = !self.rt(group).waiting_reads.is_empty();
                if (needs_flush || has_readers) && !self.rt(group).flushing {
                    fx.push(OsdEffect::WakeFlush { group });
                }
            }
            PeerMsg::PgQuery {
                group,
                epoch,
                from: requester,
            } => {
                let entries: Vec<PgLogEntry> = self
                    .pg_log
                    .get(&group)
                    .map(|l| l.iter().copied().collect())
                    .unwrap_or_default();
                fx.push(OsdEffect::SendPeer {
                    to: requester,
                    msg: PeerMsg::PgInfo {
                        group,
                        epoch,
                        from: self.id,
                        entries,
                    },
                });
            }
            PeerMsg::PgInfo {
                group,
                epoch,
                from: peer,
                entries,
            } => {
                let finish = match self.recovery.get_mut(&group) {
                    Some(rec) if rec.epoch == epoch && rec.state == PgState::Peering => {
                        if rec.awaiting_infos.remove(&peer) {
                            rec.infos.insert(peer, entries);
                        }
                        rec.awaiting_infos.is_empty()
                    }
                    // Stale epoch or no round in flight: a retransmitted
                    // reply from a superseded peering; drop it.
                    _ => false,
                };
                if finish {
                    self.finish_peering(group, fx);
                }
            }
            PeerMsg::PushObject {
                group,
                epoch,
                entry,
                data,
                content_digest,
            } => {
                if digest_segments(&data) != content_digest {
                    // Corrupted in flight; the primary re-pushes on its next
                    // heartbeat because no ack will arrive.
                    return;
                }
                if self.awaiting_backfill.contains(&group) || self.awaiting_log.contains(&group) {
                    // A full-state pull is in flight for this group; its
                    // responses apply straight to the backend and would roll
                    // back anything this push lands first. Stay silent — the
                    // primary re-pushes on its next heartbeat, after the
                    // pull has settled.
                    return;
                }
                let oid = entry.oid;
                let latest = self.pg_latest(group, oid);
                let pushed = (entry.epoch, entry.version);
                if latest != (0, 0) {
                    if pushed == (0, 0) {
                        // Synthesized backfill push against real logged
                        // history: our entries postdate anything off the
                        // primary's log tail. Ack so the primary stops
                        // counting us missing.
                        fx.push(OsdEffect::SendPeer {
                            to: from,
                            msg: PeerMsg::PushAck {
                                group,
                                epoch,
                                oid,
                                from: self.id,
                            },
                        });
                        return;
                    }
                    if latest > pushed {
                        // We logged a write newer than this snapshot, so
                        // applying it would roll that write back — but we
                        // can't blindly ack either: holding newer entries
                        // doesn't prove we hold the *older* block this push
                        // carries (the dropped write that made the primary
                        // push may be exactly the one we're missing). If
                        // our bytes already match the pushed content there
                        // is nothing to heal: ack so the push loop ends —
                        // without this, a primary that lost its log tail to
                        // a torn NVM write keeps pushing forever, because
                        // its newest entry can never catch up to ours.
                        // Otherwise stay silent; the heartbeat retry
                        // re-reads the primary's content, and once the
                        // refreshed snapshot covers our history it applies
                        // below.
                        let matches = self
                            .authoritative_object(group, oid)
                            .is_some_and(|local| digest_segments(&local) == content_digest);
                        if matches {
                            // Our copy reads clean and matches: any heal we
                            // were waiting on for it is moot.
                            self.note_object_healed(group, oid, fx);
                            fx.push(OsdEffect::SendPeer {
                                to: from,
                                msg: PeerMsg::PushAck {
                                    group,
                                    epoch,
                                    oid,
                                    from: self.id,
                                },
                            });
                        }
                        return;
                    }
                    // latest <= pushed: the snapshot was read after every
                    // write we hold, so applying it can only heal.
                }
                if self.cfg.mode.decoupled() && self.rt(group).flushing {
                    // A flush is mid-air for this group: completion will
                    // remove a *count* of oldest records, so draining the
                    // log inline here would make it discard newer ones.
                    // Stay silent; the primary re-pushes on its next
                    // heartbeat and flush windows are short.
                    return;
                }
                if self.logs.get(&group).is_some_and(|l| l.pending() > 0) {
                    // Pending (older, per the guard above) records for this
                    // group would otherwise flush over the pushed bytes
                    // later — and a full-object push is far too large for
                    // the NVM ring to ride behind them in log order. Drain
                    // them to the backend first, then apply the push on top.
                    let mut log = self.logs.remove(&group).expect("checked above");
                    let drained = log
                        .drain_for_flush(&mut self.nvm, usize::MAX)
                        .expect("drain before push apply");
                    for t in drained {
                        self.backend.submit(t).expect("pre-push flush submit");
                    }
                    self.logs.insert(group, log);
                }
                self.seq += 1;
                let txn = whole_object_txn(group, self.seq, oid, data);
                self.note_txn(&txn);
                if entry.version != 0 {
                    // Adopt the pushed history so a later peering round sees
                    // this object as up to date. Backfill pushes (version 0)
                    // carry no real log entry and are deliberately not
                    // logged.
                    let log = self.pg_log.entry(group).or_default();
                    log.push_back(*entry);
                    while log.len() > self.cfg.pg_log_limit {
                        log.pop_front();
                    }
                }
                match self.backend.submit(txn) {
                    Ok(()) => {
                        let trace = self.backend.take_trace();
                        if !trace.is_empty() {
                            let token = self.token();
                            self.pending_store.insert(token, StoreCtx::Background);
                            fx.push(OsdEffect::StoreIo {
                                token,
                                trace,
                                wait: false,
                            });
                        }
                    }
                    Err(_) => {
                        // Could not apply (e.g. no space): stay silent so
                        // the primary keeps counting us missing and
                        // retries.
                        let _ = self.backend.take_trace();
                        self.pg_log_unnote(group, entry.version);
                        return;
                    }
                }
                // A full-object apply rewrites every block (and its
                // checksums): whatever heal was pending for this copy is
                // complete.
                self.note_object_healed(group, oid, fx);
                fx.push(OsdEffect::SendPeer {
                    to: from,
                    msg: PeerMsg::PushAck {
                        group,
                        epoch,
                        oid,
                        from: self.id,
                    },
                });
            }
            PeerMsg::PushAck {
                group,
                epoch,
                oid,
                from: peer,
            } => {
                self.backfill_inflight.remove(&(group, peer, oid.raw()));
                // Scrub repairs ride the same push machinery: an ack from a
                // peer we were repairing settles that copy.
                let mut scrub_done = false;
                if let Some(rec) = self.scrubs.get_mut(&group) {
                    if rec.epoch == epoch && rec.compared {
                        if let Some((_, peers)) = rec.peer_repairs.get_mut(&oid.raw()) {
                            if peers.remove(&peer) {
                                self.scrub_errors_repaired += 1;
                                if peers.is_empty() {
                                    rec.peer_repairs.remove(&oid.raw());
                                }
                                scrub_done = true;
                            }
                        }
                    }
                }
                if scrub_done {
                    self.scrub_maybe_done(group);
                }
                let done = match self.recovery.get_mut(&group) {
                    Some(rec) if rec.epoch == epoch => {
                        if let Some(m) = rec.missing.get_mut(&peer) {
                            m.remove(&oid.raw());
                            if m.is_empty() {
                                rec.missing.remove(&peer);
                                rec.backfill_peers.remove(&peer);
                            }
                        }
                        rec.missing.is_empty()
                    }
                    _ => false,
                };
                if done {
                    // Every peer acked its last push: the group is healed.
                    self.recovery.remove(&group);
                } else if let Some(rec) = self.recovery.get(&group) {
                    // The ack freed a throttle slot: offer the group's
                    // remaining missing work into it right away instead of
                    // waiting out the tick.
                    let epoch = rec.epoch;
                    let work: Vec<(OsdId, Vec<ObjectId>, bool)> = rec
                        .missing
                        .iter()
                        .map(|(p, m)| {
                            (
                                *p,
                                m.values().copied().collect(),
                                rec.backfill_peers.contains(p),
                            )
                        })
                        .collect();
                    for (p, oids, backfilling) in work {
                        for o in oids {
                            self.push_object_to(group, epoch, p, o, backfilling, fx);
                        }
                    }
                }
            }
            PeerMsg::ScrubRequest {
                group,
                epoch,
                deep,
                from: requester,
            } => {
                if self.cfg.mode.null_transaction() || self.cfg.mode.null_store() {
                    return;
                }
                if self.awaiting_log.contains(&group) || self.awaiting_backfill.contains(&group) {
                    // Mid-join: our map would be hollow and every absent
                    // object would look damaged. Stay silent; the primary
                    // re-requests on its heartbeat once we have the data.
                    return;
                }
                let entries = self.scrub_local_map(group, deep, fx);
                fx.push(OsdEffect::SendPeer {
                    to: requester,
                    msg: PeerMsg::ScrubMap {
                        group,
                        epoch,
                        from: self.id,
                        entries,
                    },
                });
            }
            PeerMsg::ScrubMap {
                group,
                epoch,
                from: peer,
                entries,
            } => {
                let finish = match self.scrubs.get_mut(&group) {
                    Some(rec) if rec.epoch == epoch && !rec.compared => {
                        if rec.awaiting.remove(&peer) {
                            rec.maps.insert(peer, entries);
                        }
                        rec.awaiting.is_empty()
                    }
                    // Stale epoch, duplicate, or no round: drop it.
                    _ => false,
                };
                if finish {
                    self.finish_scrub(group, fx);
                }
            }
            PeerMsg::ScrubFetch {
                group,
                epoch,
                oid,
                from: requester,
            } => {
                if self.awaiting_log.contains(&group) || self.awaiting_backfill.contains(&group) {
                    return; // not authoritative; requester rotates sources
                }
                // Serve the heal through the throttled push machinery; if
                // our own copy turns out rotten too, the push is silently
                // skipped and the requester's rotation finds another peer.
                self.push_object_to(group, epoch, requester, oid, false, fx);
            }
            PeerMsg::RepNack {
                group,
                seq,
                from: replica,
                error: _,
            } => {
                // The replica could not apply our repop. Stop waiting for its
                // ack (the write completes degraded) and schedule a recovery
                // push of the affected objects so it converges later.
                let oids: Vec<ObjectId> = self
                    .inflight
                    .get(&seq)
                    .map(|w| {
                        w.txn
                            .ops
                            .iter()
                            .filter_map(|op| digest_op(op).map(|(o, _)| o))
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some(wop) = self.inflight.get_mut(&seq) {
                    wop.waiting_acks.retain(|&o| o != replica);
                }
                self.try_complete_write(seq, fx);
                if oids.is_empty() || self.map.try_primary(group) != Some(self.id) {
                    return;
                }
                let epoch = self.map.epoch;
                let rec = self.recovery.entry(group).or_insert_with(|| PgRecovery {
                    epoch,
                    state: PgState::Recovering,
                    awaiting_infos: BTreeSet::new(),
                    infos: BTreeMap::new(),
                    missing: BTreeMap::new(),
                    backfill_peers: BTreeSet::new(),
                });
                let slot = rec.missing.entry(replica).or_default();
                for oid in &oids {
                    slot.insert(oid.raw(), *oid);
                }
                let epoch = rec.epoch;
                for oid in oids {
                    self.push_object_to(group, epoch, replica, oid, false, fx);
                }
            }
        }
    }

    fn try_complete_write(&mut self, seq: u64, fx: &mut Vec<OsdEffect>) {
        let done = self
            .inflight
            .get(&seq)
            .is_some_and(|w| w.local_done && w.waiting_acks.is_empty());
        if done {
            let w = self.inflight.remove(&seq).expect("checked above");
            self.inflight_ops.remove(&(w.client, w.op));
            let win = self.completed.entry(w.client).or_default();
            win.push_back(w.op.0);
            while win.len() > self.cfg.dedup_window {
                win.pop_front();
            }
            fx.push(OsdEffect::Reply {
                to: w.client,
                msg: ClientReply::Done { op: w.op },
            });
        }
    }

    fn on_store_durable(&mut self, token: u64, fx: &mut Vec<OsdEffect>) {
        let Some(ctx) = self.pending_store.remove(&token) else {
            return;
        };
        match ctx {
            StoreCtx::WriteLocal { seq } => {
                if let Some(w) = self.inflight.get_mut(&seq) {
                    w.local_done = true;
                }
                self.try_complete_write(seq, fx);
            }
            StoreCtx::ReplicaPersist {
                primary,
                group,
                seq,
            } => {
                fx.push(OsdEffect::SendPeer {
                    to: primary,
                    msg: PeerMsg::RepAck {
                        group,
                        seq,
                        from: self.id,
                    },
                });
            }
            StoreCtx::Read { client, op, data } => {
                fx.push(OsdEffect::Reply {
                    to: client,
                    msg: ClientReply::Data { op, data },
                });
            }
            StoreCtx::Flush {
                group,
                through_version,
                keep,
            } => {
                if keep {
                    // Map-change safety flush: the records stay in the log
                    // for peer synchronization, and no flush window was
                    // opened — clearing `flushing` here would let a second
                    // window overlap one still in flight.
                    return;
                }
                self.log_for(group);
                let mut log = self.logs.remove(&group).expect("ensured");
                log.drain_through_version(&mut self.nvm, through_version)
                    .expect("drain flushed records");
                self.logs.insert(group, log);
                self.rt(group).flushing = false;
                // Serve reads that were blocked behind the flush.
                let waiting = std::mem::take(&mut self.rt(group).waiting_reads);
                for dr in waiting {
                    self.read_store_now(dr, fx);
                }
                // Re-arm if the log refilled while flushing.
                let refilled = self
                    .logs
                    .get(&group)
                    .is_some_and(|l| l.pending() >= l.flush_threshold);
                if refilled {
                    fx.push(OsdEffect::WakeFlush { group });
                }
            }
            StoreCtx::Background => {}
        }
    }

    fn on_flush_group(&mut self, group: GroupId, fx: &mut Vec<OsdEffect>) {
        if self.rt(group).flushing {
            return;
        }
        if self.awaiting_backfill.contains(&group) {
            // Flushing now could later be clobbered by the in-flight
            // backfill; hold off — the backfill's arrival re-arms the flush.
            return;
        }
        let Some(log) = self.logs.get_mut(&group) else {
            return;
        };
        if log.pending() == 0 {
            // Nothing to flush; still serve any queued reads.
            let waiting = std::mem::take(&mut self.rt(group).waiting_reads);
            for dr in waiting {
                self.read_store_now(dr, fx);
            }
            return;
        }
        // Submit the batch to the backend; the log entries are drained only
        // once the store writes are durable (§IV-A-3: remove after flush).
        // The transactions themselves move into the store: until then a
        // record needs only its place in the ring and in the index.
        let through_version = log.version();
        let txns = log.begin_flush(&mut self.nvm).expect("flush batch");
        for txn in txns {
            self.backend.submit(txn).expect("flush submit");
        }
        let token = self.token();
        let trace = self.backend.take_trace();
        self.pending_store.insert(
            token,
            StoreCtx::Flush {
                group,
                through_version,
                keep: false,
            },
        );
        self.rt(group).flushing = true;
        fx.push(OsdEffect::StoreIo {
            token,
            trace,
            wait: true,
        });
        self.kick_maintenance(fx);
    }

    fn on_submit_deferred(&mut self, token: u64, fx: &mut Vec<OsdEffect>) {
        let Some(DeferredSubmit { txn, ctx }) = self.deferred_submits.remove(&token) else {
            return;
        };
        if let Err(error) = self.backend.submit(txn) {
            let _ = self.backend.take_trace();
            match ctx {
                StoreCtx::ReplicaPersist {
                    primary,
                    group,
                    seq,
                } => {
                    // Same contract as the inline replica path: withdraw the
                    // provisional bookkeeping and NACK so the primary marks
                    // us missing instead of the OSD dying.
                    self.unnote_replica_applied(group, seq);
                    self.pg_log_unnote(group, seq);
                    fx.push(OsdEffect::SendPeer {
                        to: primary,
                        msg: PeerMsg::RepNack {
                            group,
                            seq,
                            from: self.id,
                            error,
                        },
                    });
                }
                StoreCtx::WriteLocal { seq } => {
                    // Primary-side apply failure: fail the op back to the
                    // client instead of leaving it in flight forever.
                    if let Some(w) = self.inflight.remove(&seq) {
                        self.inflight_ops.remove(&(w.client, w.op));
                        self.pg_log_unnote(w.group, seq);
                        fx.push(OsdEffect::Reply {
                            to: w.client,
                            msg: ClientReply::Error { op: w.op, error },
                        });
                    }
                }
                _ => {}
            }
            return;
        }
        let io_token = self.token();
        let trace = self.backend.take_trace();
        self.pending_store.insert(io_token, ctx);
        fx.push(OsdEffect::StoreIo {
            token: io_token,
            trace,
            wait: true,
        });
        self.kick_maintenance(fx);
    }

    fn on_read_from_store(&mut self, token: u64, fx: &mut Vec<OsdEffect>) {
        if let Some(dr) = self.deferred_reads.remove(&token) {
            self.read_store_now(dr, fx);
        }
    }

    fn kick_maintenance(&mut self, fx: &mut Vec<OsdEffect>) {
        if !self.maint_scheduled && self.backend.needs_maintenance() {
            self.maint_scheduled = true;
            fx.push(OsdEffect::WakeMaintenance);
        }
    }

    fn on_maint_step(&mut self, fx: &mut Vec<OsdEffect>) {
        self.maint_scheduled = false;
        if !self.backend.needs_maintenance() {
            return;
        }
        let report = self.backend.maintenance();
        let token = self.token();
        let trace = self.backend.take_trace();
        self.pending_store.insert(token, StoreCtx::Background);
        fx.push(OsdEffect::StoreIo {
            token,
            trace,
            wait: false,
        });
        let more = self.backend.needs_maintenance();
        fx.push(OsdEffect::Maintained {
            bytes: report.bytes_read + report.bytes_written,
            more,
        });
        if more {
            self.maint_scheduled = true;
            fx.push(OsdEffect::WakeMaintenance);
        }
    }

    /// Fault injection: flips `flips` bits in committed backend data blocks
    /// of objects whose raw id falls in `[lo, hi)`. Targets are drawn from
    /// a self-contained splitmix64 stream over `seed`, so the damage is a
    /// pure function of (state, seed) — identical on every scheduler.
    /// Returns how many flips landed (0 when the backend holds nothing in
    /// range or does not expose injection).
    pub fn inject_data_rot(&mut self, lo: u64, hi: u64, flips: u32, seed: u64) -> u64 {
        let mut groups: Vec<GroupId> = self.group_extents.keys().copied().collect();
        groups.sort();
        let mut candidates: Vec<(ObjectId, u64)> = Vec::new();
        for g in groups {
            let mut oids: Vec<ObjectId> = self.group_extents[&g]
                .keys()
                .copied()
                .filter(|o| (lo..hi).contains(&o.raw()))
                .collect();
            oids.sort_by_key(|o| o.raw());
            for oid in oids {
                let blocks = self.backend.mapped_blocks(oid);
                if blocks > 0 {
                    candidates.push((oid, blocks));
                }
            }
        }
        if candidates.is_empty() {
            return 0;
        }
        let mut s = seed;
        let mut landed = 0;
        for _ in 0..flips {
            let (oid, blocks) = candidates[(splitmix64(&mut s) % candidates.len() as u64) as usize];
            let block = splitmix64(&mut s) % blocks;
            let r = splitmix64(&mut s);
            if self
                .backend
                .corrupt_data_bit(oid, block, r >> 8, (r & 7) as u8)
            {
                landed += 1;
            }
        }
        landed
    }

    /// Fault injection: flips `flips` bits in this OSD's NVM operation-log
    /// rings (committed record bytes). The in-memory record mirror stays
    /// clean, so the damage is latent until a crash makes recovery re-read
    /// the ring — where the record CRC rejects the rotted suffix. Returns
    /// how many flips landed (0 when no ring holds queued records).
    pub fn inject_nvm_rot(&mut self, flips: u32, seed: u64) -> u64 {
        let mut groups: Vec<GroupId> = self
            .logs
            .iter()
            .filter(|(_, l)| l.nvm_used() > 0)
            .map(|(g, _)| *g)
            .collect();
        groups.sort();
        if groups.is_empty() {
            return 0;
        }
        let mut s = seed;
        let mut landed = 0;
        for _ in 0..flips {
            let g = groups[(splitmix64(&mut s) % groups.len() as u64) as usize];
            let r = splitmix64(&mut s);
            let log = self.logs.get(&g).expect("listed above");
            if log
                .rot_bit(&mut self.nvm, r >> 8, (r & 7) as u8)
                .unwrap_or(false)
            {
                landed += 1;
            }
        }
        landed
    }

    /// Simulated crash-restart. All volatile state is dropped; the NVM
    /// region survives (counters reset, contents kept) and each group's
    /// operation log is recovered by the checksum-validating scan, cutting
    /// off a torn tail if `torn_tail` corrupted one (safe: a record torn
    /// mid-append was never acknowledged). Recovered pending records are
    /// drained into the backend immediately — they predate the crash, and
    /// leaving them in the log would let stale entries answer reads after
    /// the node rejoins and newer data exists elsewhere. The backend itself
    /// models durable storage and survives untouched, as does the extent
    /// map (reconstructable from the backend in a real system). `seq` is
    /// also kept: a real OSD recovers it from its log and pg metadata.
    ///
    /// Returns the NVM bytes discarded by torn-tail truncation.
    pub fn restart_after_crash(&mut self, torn_tail: bool) -> u64 {
        self.inflight.clear();
        self.inflight_ops.clear();
        self.completed.clear();
        self.replica_applied.clear();
        self.awaiting_log.clear();
        self.awaiting_backfill.clear();
        self.pull_sources.clear();
        self.pending_store.clear();
        self.deferred_reads.clear();
        self.deferred_submits.clear();
        self.group_rt.clear();
        self.maint_scheduled = false;
        // Volatile recovery state dies with the process; the pg_log is
        // rebuilt below from whatever survived in the durable NVM ring.
        self.recovery.clear();
        self.pg_log.clear();
        self.backfill_inflight.clear();
        self.backfill_budget = self.cfg.backfill_bytes_per_tick;
        self.backfill_deferred = false;
        self.scrubs.clear();
        self.scrub_queue.clear();
        self.scrub_deferred = false;
        self.fetches.clear();
        self.nvm.reboot();
        let mut groups: Vec<GroupId> = self.logs.keys().copied().collect();
        groups.sort();
        let mut discarded_total = 0;
        for group in groups {
            let old = self.logs.remove(&group).expect("listed above");
            let (base, len) = (old.nvm_base(), old.nvm_region_len());
            if torn_tail {
                let _ = old.tear_tail(&mut self.nvm);
            }
            let (mut log, discarded) = GroupLog::recover_truncating(
                &mut self.nvm,
                group,
                base,
                len,
                self.cfg.flush_threshold,
            )
            .expect("log recovers after reboot");
            discarded_total += discarded;
            if log.pending() > 0 {
                let txns = log
                    .drain_for_flush(&mut self.nvm, usize::MAX)
                    .expect("restart drain");
                for txn in txns {
                    self.note_txn(&txn);
                    self.pg_log_note(group, txn.seq, &txn);
                    self.backend.submit(txn).expect("restart drain submit");
                }
                let _ = self.backend.take_trace();
            }
            self.logs.insert(group, log);
        }
        discarded_total
    }

    /// §IV-A-4 failure handling: on a map change, surviving members flush
    /// their logs *without* removing entries (step ④), and a newly joined
    /// member pulls the log from the surviving primary (steps ⑥–⑦).
    fn on_map_update(&mut self, map: OsdMap, fx: &mut Vec<OsdEffect>) {
        if map.epoch <= self.map.epoch {
            return;
        }
        let old = std::mem::replace(&mut self.map, map);
        // A new epoch re-peers everything; in-flight scrub rounds are stale
        // (their repairs would race recovery pushes) and abort here. Heals
        // of our own copies stay queued when we still serve the group —
        // rot does not go away with a map change.
        self.scrubs.clear();
        self.scrub_queue.clear();
        let fetch_keys: Vec<(GroupId, u64)> = self.fetches.keys().copied().collect();
        for key in fetch_keys {
            if !self.map.acting_set(key.0).contains(&self.id) {
                self.fetches.remove(&key);
            }
        }
        if !self.cfg.mode.null_transaction() && !self.cfg.mode.null_store() {
            // Every epoch change re-peers the groups this OSD now leads;
            // stale rounds for groups it lost are dropped inside.
            self.start_peering(fx);
        }
        if !self.cfg.mode.decoupled() {
            return;
        }
        let mut groups: Vec<GroupId> = self.logs.keys().copied().collect();
        groups.sort();
        for group in groups {
            let new_set = self.map.acting_set(group);
            if !new_set.contains(&self.id) {
                continue;
            }
            let old_set = old.acting_set(group);
            if old_set.contains(&self.id) {
                // Survivor: persist pending data but keep the log so the
                // replacement can synchronize from it.
                let records = self.logs[&group]
                    .export_records(&mut self.nvm)
                    .expect("log export for recovery flush");
                if records.is_empty() {
                    continue;
                }
                for rec in records {
                    self.backend.submit(rec.txn).expect("recovery flush");
                }
                let through_version = self.logs[&group].version();
                let token = self.token();
                let trace = self.backend.take_trace();
                self.pending_store.insert(
                    token,
                    StoreCtx::Flush {
                        group,
                        through_version,
                        keep: true,
                    },
                );
                fx.push(OsdEffect::StoreIo {
                    token,
                    trace,
                    wait: true,
                });
            }
        }
        // Newly responsible groups: pull logs from the surviving primary.
        let my_groups: Vec<GroupId> = (0..self.map.pg_count).map(GroupId).collect();
        for group in my_groups {
            let new_set = self.map.acting_set(group);
            if !new_set.contains(&self.id) {
                continue;
            }
            let old_set = old.acting_set(group);
            if old.osds.get(self.id.0 as usize).map(|o| o.up) == Some(true)
                && old_set.contains(&self.id)
            {
                continue; // already a member
            }
            // Synchronize from an OSD that actually holds the group's data:
            // a still-up member of the *previous* acting set (a drained OSD
            // stays up exactly so it can serve as this handoff source).
            // After a large expansion every new-set peer can be a fresh
            // joiner with nothing, so the new set is only a fallback.
            let peer = old_set
                .into_iter()
                .find(|&o| o != self.id && self.map.osd(o).up)
                .or_else(|| new_set.into_iter().find(|&o| o != self.id));
            if let Some(peer) = peer {
                self.awaiting_log.insert(group);
                self.awaiting_backfill.insert(group);
                self.pull_sources.insert(group, peer);
                fx.push(OsdEffect::SendPeer {
                    to: peer,
                    msg: PeerMsg::PullLog {
                        group,
                        from: self.id,
                    },
                });
            }
        }
    }
}

impl std::fmt::Debug for Osd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Osd")
            .field("id", &self.id)
            .field("mode", &self.cfg.mode)
            .field("inflight", &self.inflight.len())
            .field("groups", &self.logs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> OsdMap {
        OsdMap::new(2, 1, 8, 2)
    }

    fn osd(mode: PipelineMode, id: u32) -> Osd {
        let cfg = OsdConfig {
            mode,
            device_bytes: 32 << 20,
            nvm_bytes: 4 << 20,
            ring_bytes: 128 << 10,
            flush_threshold: 4,
            lsm: LsmOptions::tiny(),
            cos: CosOptions::tiny(),
            ..OsdConfig::default()
        };
        Osd::new(OsdId(id), cfg, map())
    }

    fn ramp(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + i / 256) as u8).collect()
    }

    /// Digests are compared between OSDs of one build only, but a pure
    /// speed-up has no business changing them: values of the one-shot loop
    /// this streaming form replaced.
    #[test]
    fn digest_values_are_what_they_were() {
        for (n, want) in [
            (0usize, 0xc6bd_f78e_2c98_a2a3u64),
            (1, 0x4d6e_4995_c75c_5af9),
            (7, 0x5246_9eb8_85bb_7b58),
            (8, 0x4da3_d777_dafb_73f9),
            (31, 0x3998_9f98_c352_a43a),
            (32, 0xa44e_f23e_2597_6be9),
            (33, 0xc990_a899_e04a_e04b),
            (1000, 0xc75a_2974_f3c1_daa0),
            (4096, 0x3c74_4173_6d66_3ba3),
        ] {
            assert_eq!(digest_bytes(&ramp(n)), want, "{n} bytes");
        }
    }

    mod digest_model {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The streaming digest equals `digest_bytes` of the
            /// concatenation for any segmentation: cuts of 1, 7, 31, 32 and
            /// 33 bytes (around the 32-byte lane block), whole 4 KiB blocks
            /// and arbitrary lengths, in any mix.
            #[test]
            fn streaming_digest_matches_digest_of_the_concatenation(
                cuts in proptest::collection::vec(
                    prop_oneof![
                        Just(1usize), Just(7), Just(31), Just(32), Just(33),
                        (1..4usize).prop_map(|b| b * 4096),
                        0..5000usize
                    ],
                    0..24,
                ),
                lead in 0..64usize,
            ) {
                let flat = ramp(cuts.iter().sum());
                // Every view sits at an odd offset of a buffer of its own.
                let (mut segs, mut at) = (Segments::new(), 0);
                for cut in cuts {
                    let mut backing = vec![0xEE; lead];
                    backing.extend_from_slice(&flat[at..at + cut]);
                    segs.push(Payload::from(backing).slice(lead, cut));
                    at += cut;
                }
                prop_assert_eq!(digest_segments(&segs), digest_bytes(&flat));
                prop_assert_eq!(
                    digest_segments(&Payload::from(flat.clone()).into()),
                    digest_bytes(&flat)
                );
            }
        }
    }

    #[test]
    fn pglog_key_matches_format() {
        for (g, seq) in [
            (0, 0),
            (7, 9),
            (10, 100),
            (u32::MAX, u64::MAX),
            (123, 1 << 40),
        ] {
            assert_eq!(
                pglog_key(GroupId(g), seq),
                format!("pglog.{g}.{seq}").into_bytes()
            );
        }
    }

    fn a_group_with_primary(o: &Osd) -> GroupId {
        (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) == o.id)
            .expect("some group has this primary")
    }

    fn oid_in(group: GroupId, i: u64) -> ObjectId {
        ObjectId::new(group, i)
    }

    fn write_req(op: u64, oid: ObjectId) -> ClientReq {
        ClientReq::Write {
            op: OpId(op),
            oid,
            offset: 0,
            data: vec![7; 4096].into(),
        }
    }

    fn tokens_of(fx: &[OsdEffect]) -> Vec<u64> {
        fx.iter()
            .filter_map(|e| match e {
                OsdEffect::StoreIo {
                    token, wait: true, ..
                } => Some(*token),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn coupled_write_completes_after_local_persist_and_ack() {
        let mut o = osd(PipelineMode::Original, 0);
        let g = a_group_with_primary(&o);
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid_in(g, 1)),
        });
        // Repop sent, local store submitted, no reply yet.
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::Repop { .. },
                ..
            }
        )));
        assert!(!fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
        let toks = tokens_of(&fx);
        assert_eq!(toks.len(), 1);
        // Local durable alone: still waiting for the replica.
        let fx = o.handle(OsdInput::StoreDurable { token: toks[0] });
        assert!(!fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
        // Replica ack: now the client gets its reply.
        let replica = o.map().acting_set(g)[1];
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::RepAck {
                group: g,
                seq: 1,
                from: replica,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Done { .. },
                ..
            }
        )));
    }

    #[test]
    fn replica_acks_only_after_durable() {
        let mut o = osd(PipelineMode::Original, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        let txn = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn,
            },
        });
        assert!(!fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { .. },
                ..
            }
        )));
        let toks = tokens_of(&fx);
        let fx = o.handle(OsdInput::StoreDurable { token: toks[0] });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { seq: 5, .. },
                ..
            }
        )));
    }

    #[test]
    fn decoupled_write_acks_without_store() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid_in(g, 1)),
        });
        // NVM logged + RepopNvm sent; no store I/O on the write path.
        assert!(fx.iter().any(|e| matches!(e, OsdEffect::NvmWritten { .. })));
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepopNvm { .. },
                ..
            }
        )));
        assert!(tokens_of(&fx).is_empty());
        // One replica ack completes the op.
        let replica = o.map().acting_set(g)[1];
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::RepAck {
                group: g,
                seq: 1,
                from: replica,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Done { .. },
                ..
            }
        )));
    }

    #[test]
    fn decoupled_replica_acks_immediately_from_nvm() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        let txn = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::RepopNvm {
                group: g,
                seq: 5,
                txn,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { .. },
                ..
            }
        )));
        assert_eq!(o.log_pending(g), 1);
    }

    #[test]
    fn flush_cycle_drains_log_after_durable() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        let mut wake = None;
        for i in 0..4 {
            let fx = o.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
            for e in fx {
                if let OsdEffect::WakeFlush { group } = e {
                    wake = Some(group);
                }
            }
        }
        assert_eq!(wake, Some(g), "threshold of 4 reached");
        assert_eq!(o.log_pending(g), 4);
        let fx = o.handle(OsdInput::FlushGroup { group: g });
        let toks = tokens_of(&fx);
        assert_eq!(toks.len(), 1);
        assert_eq!(o.log_pending(g), 4, "entries stay until durable");
        o.handle(OsdInput::StoreDurable { token: toks[0] });
        assert_eq!(o.log_pending(g), 0, "drained after durable");
    }

    #[test]
    fn decoupled_read_served_from_log() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        let oid = oid_in(g, 1);
        o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: ClientReq::Read {
                op: OpId(2),
                oid,
                offset: 100,
                len: 200,
            },
        });
        let reply = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { data, .. },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(
            reply,
            Some(vec![7u8; 200].into()),
            "read served from the operation log"
        );
    }

    #[test]
    fn decoupled_read_of_cold_object_defers_to_store() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        let oid = oid_in(g, 9);
        // Write then flush so the log is empty, store has the data.
        o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        let fx = o.handle(OsdInput::FlushGroup { group: g });
        for t in tokens_of(&fx) {
            o.handle(OsdInput::StoreDurable { token: t });
        }
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: ClientReq::Read {
                op: OpId(2),
                oid,
                offset: 0,
                len: 4096,
            },
        });
        let token = fx.iter().find_map(|e| match e {
            OsdEffect::WakeRead { token } => Some(*token),
            _ => None,
        });
        let token = token.expect("cold read goes via non-priority thread");
        let fx = o.handle(OsdInput::ReadFromStore { token });
        let toks = tokens_of(&fx);
        let fx = if toks.is_empty() {
            fx
        } else {
            o.handle(OsdInput::StoreDurable { token: toks[0] })
        };
        let reply = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { data, .. },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(reply, Some(vec![7u8; 4096].into()));
    }

    #[test]
    fn rtc_v3_skips_storage_entirely() {
        let mut o = osd(PipelineMode::RtcV3, 0);
        let g = a_group_with_primary(&o);
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid_in(g, 1)),
        });
        assert!(tokens_of(&fx).is_empty(), "no store I/O in RTC-v3");
        let replica = o.map().acting_set(g)[1];
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::RepAck {
                group: g,
                seq: 1,
                from: replica,
            },
        });
        assert!(fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
    }

    #[test]
    fn maintenance_reschedules_until_clean() {
        let mut o = osd(PipelineMode::Original, 0);
        let g = a_group_with_primary(&o);
        // Pump enough writes to trigger LSM maintenance.
        let mut woke = false;
        for i in 0..200 {
            let fx = o.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i % 4)),
            });
            woke |= fx.iter().any(|e| matches!(e, OsdEffect::WakeMaintenance));
            for t in tokens_of(&fx) {
                o.handle(OsdInput::StoreDurable { token: t });
            }
        }
        assert!(woke, "LSM backend requested maintenance");
        let mut steps = 0;
        loop {
            let fx = o.handle(OsdInput::MaintStep);
            steps += 1;
            let more = fx
                .iter()
                .any(|e| matches!(e, OsdEffect::Maintained { more: true, .. }));
            if !more || steps > 100 {
                break;
            }
        }
        assert!(steps >= 1, "maintenance ran");
        assert!(!o.backend().needs_maintenance(), "backend eventually clean");
    }

    #[test]
    fn nvm_exhaustion_forces_synchronous_flush() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        // Huge flush threshold so nothing drains; tiny ring fills up.
        for (_, log) in o.logs.iter_mut() {
            log.flush_threshold = usize::MAX;
        }
        let mut i = 0;
        while o.nvm_full_stalls == 0 && i < 200 {
            let fx = o.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
            // Raise the threshold on the lazily created log too.
            if let Some(log) = o.logs.get_mut(&g) {
                log.flush_threshold = usize::MAX;
            }
            for t in tokens_of(&fx) {
                o.handle(OsdInput::StoreDurable { token: t });
            }
            i += 1;
        }
        assert!(
            o.nvm_full_stalls > 0,
            "ring filled and forced a stall flush"
        );
        assert!(o.log_pending(g) <= 1, "stall drained the log");
    }

    #[test]
    fn retried_write_applies_exactly_once() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        let oid = oid_in(g, 1);
        let repops = |fx: &[OsdEffect]| {
            fx.iter()
                .filter(|e| {
                    matches!(
                        e,
                        OsdEffect::SendPeer {
                            msg: PeerMsg::RepopNvm { .. },
                            ..
                        }
                    )
                })
                .count()
        };
        // First attempt: logged once, replicated once.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        assert_eq!(repops(&fx), 1);
        assert_eq!(o.log_pending(g), 1);
        // Retry while the replica ack is outstanding (the original repop may
        // have been dropped): retransmit only, no second application.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        assert_eq!(
            repops(&fx),
            1,
            "replication retransmitted to the laggard replica"
        );
        assert!(!fx.iter().any(|e| matches!(e, OsdEffect::NvmWritten { .. })));
        assert!(!fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
        assert_eq!(o.log_pending(g), 1, "no second log entry");
        // The ack completes the original op.
        let replica = o.map().acting_set(g)[1];
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::RepAck {
                group: g,
                seq: 1,
                from: replica,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Done { .. },
                ..
            }
        )));
        // A late retry after completion: re-acked from the dedup window.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        assert_eq!(repops(&fx), 0);
        assert_eq!(o.log_pending(g), 1, "still exactly one application");
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Done { .. },
                ..
            }
        )));
    }

    #[test]
    fn duplicate_replication_reacks_without_reapplying() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        let txn = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::RepopNvm {
                group: g,
                seq: 5,
                txn: txn.clone(),
            },
        });
        assert_eq!(o.log_pending(g), 1);
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::RepopNvm {
                group: g,
                seq: 5,
                txn,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { seq: 5, .. },
                ..
            }
        )));
        assert_eq!(o.log_pending(g), 1, "duplicate not re-logged");
    }

    #[test]
    fn restart_truncates_torn_tail_and_drains_log() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        for i in 0..3 {
            o.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        assert_eq!(o.log_pending(g), 3);
        let discarded = o.restart_after_crash(true);
        assert!(discarded > 0, "torn tail was cut off by the checksum scan");
        assert_eq!(
            o.log_pending(g),
            0,
            "recovered records drained into the backend"
        );
        // A surviving record's data is readable from the backend.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(2),
            req: ClientReq::Read {
                op: OpId(9),
                oid: oid_in(g, 0),
                offset: 0,
                len: 4096,
            },
        });
        let token = fx
            .iter()
            .find_map(|e| match e {
                OsdEffect::WakeRead { token } => Some(*token),
                _ => None,
            })
            .expect("cold read defers to the store");
        let fx = o.handle(OsdInput::ReadFromStore { token });
        let toks = tokens_of(&fx);
        let fx = if toks.is_empty() {
            fx
        } else {
            o.handle(OsdInput::StoreDurable { token: toks[0] })
        };
        let reply = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { data, .. },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(reply, Some(vec![7u8; 4096].into()));
    }

    #[test]
    fn heartbeat_tick_emits_beacon() {
        let mut o = osd(PipelineMode::Dop, 0);
        let fx = o.handle(OsdInput::HeartbeatTick);
        assert!(fx.iter().any(|e| matches!(e, OsdEffect::Heartbeat)));
    }

    #[test]
    fn survivor_keeps_log_and_new_member_pulls_it() {
        // Three nodes so replication 2 survives one failure.
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = OsdConfig {
            mode: PipelineMode::Dop,
            device_bytes: 32 << 20,
            nvm_bytes: 4 << 20,
            ring_bytes: 128 << 10,
            flush_threshold: 16,
            lsm: LsmOptions::tiny(),
            cos: CosOptions::tiny(),
            ..OsdConfig::default()
        };
        // Find a group and its acting set.
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg.clone(), map3.clone());
        // Log a few writes at the primary.
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        assert_eq!(prim.log_pending(g), 3);
        // Secondary dies; map moves the group to include the spare.
        let mut new_map = map3.clone();
        new_map.mark_down(secondary);
        let new_set = new_map.acting_set(g);
        assert!(new_set.contains(&spare), "spare takes over");
        let fx = prim.handle(OsdInput::MapUpdate(new_map.clone()));
        // Survivor flushed-but-kept its log.
        assert_eq!(prim.log_pending(g), 3, "entries kept for peer sync");
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsdEffect::StoreIo { wait: true, .. })));
        // Spare joins: pulls the log.
        let mut joiner = Osd::new(spare, cfg, map3.clone());
        let fx = joiner.handle(OsdInput::MapUpdate(new_map));
        let pull = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PullLog { group, .. },
            } => Some((*to, *group)),
            _ => None,
        });
        let (peer, group) = pull.expect("joiner pulls the log");
        assert_eq!(group, g);
        // Route the pull to the survivor and the records back.
        let fx = prim.handle(OsdInput::Peer {
            from: peer,
            msg: PeerMsg::PullLog {
                group: g,
                from: spare,
            },
        });
        let records = fx
            .into_iter()
            .find_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: PeerMsg::LogRecords { records, .. },
                    ..
                } => Some(records),
                _ => None,
            })
            .expect("survivor exports records");
        assert_eq!(records.len(), 3);
        joiner.handle(OsdInput::Peer {
            from: primary,
            msg: PeerMsg::LogRecords { group: g, records },
        });
        assert_eq!(
            joiner.log_pending(g),
            3,
            "log replicated to the replacement"
        );
        // The joiner can now serve a strongly consistent read from its log.
        let fx = joiner.handle(OsdInput::Client {
            from: ClientId(9),
            req: ClientReq::Read {
                op: OpId(99),
                oid: oid_in(g, 2),
                offset: 0,
                len: 4096,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Data { .. },
                ..
            }
        )));
    }

    #[test]
    fn replica_apply_failure_nacks_instead_of_panicking() {
        let mut o = osd(PipelineMode::Original, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        // A zero-length write is rejected by every backend.
        let bad = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: Vec::new().into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn: bad,
            },
        });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    to: OsdId(0),
                    msg: PeerMsg::RepNack { seq: 5, .. },
                }
            )),
            "failed apply NACKs back to the primary: {fx:?}"
        );
        // The failed seq was un-noted: a retransmit with a good payload is
        // applied for real (store I/O), not re-acked from the dedup window.
        let good = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![3; 4096].into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn: good,
            },
        });
        assert_eq!(tokens_of(&fx).len(), 1, "retransmit applied: {fx:?}");
    }

    #[test]
    fn rep_nack_completes_write_degraded_and_pushes_recovery() {
        let mut o = osd(PipelineMode::Original, 0);
        let g = a_group_with_primary(&o);
        let oid = oid_in(g, 1);
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        let toks = tokens_of(&fx);
        o.handle(OsdInput::StoreDurable { token: toks[0] });
        // Replica refuses the repop: the write completes without it and the
        // primary immediately pushes the object to heal the divergence.
        let replica = o.map().acting_set(g)[1];
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::RepNack {
                group: g,
                seq: 1,
                from: replica,
                error: StoreError::NoSpace,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Done { .. },
                ..
            }
        )));
        let push = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PushObject { entry, .. },
            } => Some((*to, **entry)),
            _ => None,
        });
        let (to, entry) = push.expect("recovery push follows the NACK");
        assert_eq!(to, replica);
        assert_eq!(entry.oid, oid);
        assert!(o.degraded_objects() > 0);
        // The replica's ack for the push clears the recovery round.
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::PushAck {
                group: g,
                epoch: o.map().epoch,
                oid,
                from: replica,
            },
        });
        assert!(fx.is_empty(), "{fx:?}");
        assert_eq!(o.degraded_objects(), 0);
        assert_eq!(o.pg_state(g), PgState::Active);
    }

    #[test]
    fn peering_backfills_a_peer_with_no_shared_history() {
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = OsdConfig {
            mode: PipelineMode::Dop,
            device_bytes: 32 << 20,
            nvm_bytes: 4 << 20,
            ring_bytes: 128 << 10,
            flush_threshold: 16,
            lsm: LsmOptions::tiny(),
            cos: CosOptions::tiny(),
            ..OsdConfig::default()
        };
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg.clone(), map3.clone());
        let mut peer = Osd::new(secondary, cfg, map3.clone());
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        // Epoch bump that keeps the acting set: the primary re-peers.
        let mut new_map = map3.clone();
        new_map.mark_down(spare);
        let fx = prim.handle(OsdInput::MapUpdate(new_map.clone()));
        let query = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PgQuery { group, epoch, .. },
            } if *group == g => Some((*to, *epoch)),
            _ => None,
        });
        let (to, epoch) = query.expect("primary queries the acting set");
        assert_eq!(to, secondary);
        assert_eq!(epoch, new_map.epoch);
        assert_eq!(prim.pg_state(g), PgState::Peering);
        // The secondary answers with an empty log (it has nothing): the
        // primary backfills every object it tracks.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: PeerMsg::PgInfo {
                group: g,
                epoch,
                from: secondary,
                entries: Vec::new(),
            },
        });
        assert_eq!(prim.pg_state(g), PgState::Backfilling);
        let pushes: Vec<PeerMsg> = fx
            .iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    to,
                    msg: msg @ PeerMsg::PushObject { .. },
                } if *to == secondary => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(pushes.len(), 3, "all three objects pushed: {fx:?}");
        assert!(prim.backfill_bytes > 0);
        // Applying the pushes at the peer acks each one back; feeding the
        // acks to the primary ends the round.
        peer.handle(OsdInput::MapUpdate(new_map));
        for push in pushes {
            let fx = peer.handle(OsdInput::Peer {
                from: primary,
                msg: push,
            });
            let ack = fx
                .into_iter()
                .find_map(|e| match e {
                    OsdEffect::SendPeer {
                        msg: msg @ PeerMsg::PushAck { .. },
                        ..
                    } => Some(msg),
                    _ => None,
                })
                .expect("peer acks an applied push");
            prim.handle(OsdInput::Peer {
                from: secondary,
                msg: ack,
            });
        }
        assert_eq!(prim.pg_state(g), PgState::Active);
        assert_eq!(prim.degraded_objects(), 0);
        // The pushed bytes are now readable at the peer.
        assert_eq!(
            peer.object_digest(oid_in(g, 1), 4096),
            prim.object_digest(oid_in(g, 1), 4096),
        );
    }

    #[test]
    fn backfill_throttle_caps_inflight_pushes_and_drains_on_ack() {
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = OsdConfig {
            mode: PipelineMode::Dop,
            device_bytes: 32 << 20,
            nvm_bytes: 4 << 20,
            ring_bytes: 128 << 10,
            flush_threshold: 16,
            lsm: LsmOptions::tiny(),
            cos: CosOptions::tiny(),
            max_backfill_inflight: 1,
            ..OsdConfig::default()
        };
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg, map3.clone());
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        let mut new_map = map3.clone();
        new_map.mark_down(spare);
        prim.handle(OsdInput::MapUpdate(new_map));
        let epoch = prim.map().epoch;
        let count_pushes = |fx: &[OsdEffect]| {
            fx.iter()
                .filter_map(|e| match e {
                    OsdEffect::SendPeer {
                        msg: PeerMsg::PushObject { entry, .. },
                        ..
                    } => Some(entry.oid),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        // Empty peer log: three objects need backfill, but the throttle
        // admits only one push into the window; the rest are queued.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: PeerMsg::PgInfo {
                group: g,
                epoch,
                from: secondary,
                entries: Vec::new(),
            },
        });
        let first = count_pushes(&fx);
        assert_eq!(first.len(), 1, "inflight cap of 1: {fx:?}");
        assert!(prim.backfill_queued >= 2, "deferred work is counted");
        assert_eq!(prim.pg_state(g), PgState::Backfilling);
        // The tick closes the throttled window (accruing throttled time) and
        // the retransmit sweep again offers everything — still one push.
        let throttled_before = prim.backfill_throttled_nanos;
        let fx = prim.handle(OsdInput::HeartbeatTick);
        assert!(prim.backfill_throttled_nanos > throttled_before);
        assert_eq!(count_pushes(&fx).len(), 1, "still capped after tick");
        // An ack frees the slot mid-window: the next object goes out
        // immediately without waiting for the tick.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: PeerMsg::PushAck {
                group: g,
                epoch,
                oid: first[0],
                from: secondary,
            },
        });
        let next = count_pushes(&fx);
        assert_eq!(next.len(), 1, "ack drains the queue: {fx:?}");
        assert_ne!(next[0], first[0], "a different object rides the slot");
    }

    #[test]
    fn push_with_bad_checksum_is_dropped() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 4,
                    oid,
                    digest: 9,
                }),
                data: Payload::from(vec![5; 4096]).into(),
                content_digest: 0xDEAD, // wrong
            },
        });
        assert!(fx.is_empty(), "corrupt push ignored: {fx:?}");
        assert_eq!(o.object_digest(oid, 4096), None, "nothing applied");
    }

    /// An object created with size 0 is tracked at length 0, so a pull ships
    /// it with empty content. The joiner used to panic on it (`backfill
    /// apply: InvalidArgument("zero-length write")`).
    #[test]
    fn backfill_of_a_zero_length_object_applies_the_bare_create() {
        let mut survivor = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&survivor);
        let oid = oid_in(g, 1);
        survivor.handle(OsdInput::Client {
            from: ClientId(1),
            req: ClientReq::Create {
                op: OpId(1),
                oid,
                size: 0,
            },
        });
        let fx = survivor.handle(OsdInput::Peer {
            from: OsdId(1),
            msg: PeerMsg::PullLog {
                group: g,
                from: OsdId(1),
            },
        });
        let backfill = fx
            .into_iter()
            .find_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: msg @ PeerMsg::Backfill { .. },
                    ..
                } => Some(msg),
                _ => None,
            })
            .expect("the pull is answered");
        let PeerMsg::Backfill { objects, .. } = &backfill else {
            unreachable!()
        };
        assert_eq!(objects.len(), 1);
        assert!(objects[0].1.is_empty(), "shipped with no content");

        let mut joiner = osd(PipelineMode::Dop, 1);
        joiner.awaiting_backfill.insert(g);
        joiner.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: backfill,
        });
        assert_eq!(joiner.group_extent_map(g), vec![(oid, 0)]);
        assert!(joiner.object_digest(oid, 0).is_some(), "the object exists");
    }

    /// The same object as a recovery push: the store refused the empty
    /// write, no ack went out, and the primary re-pushed on every heartbeat
    /// with the group stuck in Recovering.
    #[test]
    fn push_of_a_zero_length_object_is_applied_and_acked() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 4,
                    oid,
                    digest: 9,
                }),
                data: Segments::new(),
                content_digest: digest_bytes(&[]),
            },
        });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::PushAck { oid: acked, .. },
                    ..
                } if *acked == oid
            )),
            "the empty push is acked: {fx:?}"
        );
        assert!(o.object_digest(oid, 0).is_some(), "the bare create landed");
        assert_eq!(o.group_extent_map(g), vec![(oid, 0)]);
    }

    #[test]
    fn stale_push_with_divergent_content_is_dropped_not_acked() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        // The replica applies a current write at (epoch 1, version 7)...
        let txn = Transaction::new(
            g,
            7,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![9; 4096].into(),
            }],
        );
        o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::RepopNvm {
                group: g,
                seq: 7,
                txn,
            },
        });
        // ...then an older push with *different* bytes arrives. Acking it
        // would clear the primary's missing mark while the replicas still
        // diverge, so it must be dropped silently — the primary's heartbeat
        // retry re-reads fresh content and pushes again.
        let stale = vec![1u8; 4096];
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 3,
                    oid,
                    digest: 1,
                }),
                content_digest: digest_bytes(&stale),
                data: Payload::from(stale).into(),
            },
        });
        assert!(fx.is_empty(), "divergent stale push dropped: {fx:?}");
        // The newer log record survives: reads serve fill 9, not fill 1.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(2),
            req: ClientReq::Read {
                op: OpId(1),
                oid,
                offset: 0,
                len: 4096,
            },
        });
        let data = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { data, .. },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(data, Some(vec![9u8; 4096].into()));
    }

    #[test]
    fn stale_push_with_matching_content_is_acked_but_not_applied() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = (0..8)
            .map(GroupId)
            .find(|&g| o.map().primary(g) != o.id)
            .unwrap();
        let oid = oid_in(g, 1);
        // The replica holds (epoch 1, version 7) with fill 9.
        let txn = Transaction::new(
            g,
            7,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![9; 4096].into(),
            }],
        );
        o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::RepopNvm {
                group: g,
                seq: 7,
                txn,
            },
        });
        // An older-versioned push whose bytes already match the local object
        // (a torn-tail-restarted primary can never out-version the replica
        // even when content agrees). It must be acked — without the ack the
        // primary retries forever and the PG wedges in Recovering — but the
        // newer local record must not be rolled back.
        let same = vec![9u8; 4096];
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 3,
                    oid,
                    digest: digest_bytes(&same),
                }),
                content_digest: digest_bytes(&same),
                data: Payload::from(same).into(),
            },
        });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::PushAck { .. },
                    ..
                }
            )),
            "matching stale push acked: {fx:?}"
        );
        // Version 7 stays newest: a later same-object push at version 5
        // with divergent bytes is still rejected.
        let stale = vec![1u8; 4096];
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 5,
                    oid,
                    digest: 1,
                }),
                content_digest: digest_bytes(&stale),
                data: Payload::from(stale).into(),
            },
        });
        assert!(fx.is_empty(), "divergent push after ack dropped: {fx:?}");
    }

    #[test]
    fn writes_below_min_size_quorum_return_degraded() {
        // Replication 3 => min_size 2.
        let mut map3 = OsdMap::new(3, 1, 8, 3);
        assert_eq!(map3.min_size, 2);
        let cfg = OsdConfig {
            mode: PipelineMode::Dop,
            device_bytes: 32 << 20,
            nvm_bytes: 4 << 20,
            ring_bytes: 128 << 10,
            flush_threshold: 16,
            lsm: LsmOptions::tiny(),
            cos: CosOptions::tiny(),
            ..OsdConfig::default()
        };
        map3.mark_down(OsdId(1));
        map3.mark_down(OsdId(2));
        let mut o = Osd::new(OsdId(0), cfg, map3);
        let g = GroupId(0);
        assert_eq!(o.pg_state(g), PgState::Degraded);
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid_in(g, 1)),
        });
        let err = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Error { error, .. },
                ..
            } => Some(error.clone()),
            _ => None,
        });
        assert_eq!(err, Some(StoreError::Degraded));
        assert!(
            !fx.iter()
                .any(|e| matches!(e, OsdEffect::SendPeer { .. } | OsdEffect::NvmWritten { .. })),
            "rejected write neither logged nor replicated: {fx:?}"
        );
    }

    #[test]
    fn heartbeat_retransmits_stale_inflight_writes() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid_in(g, 1)),
        });
        // The repop (or its ack) was lost; after two heartbeat ticks the
        // primary re-sends it on its own, without any client retry.
        let fx = o.handle(OsdInput::HeartbeatTick);
        assert!(
            !fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::RepopNvm { .. },
                    ..
                }
            )),
            "first tick only ages the op"
        );
        let fx = o.handle(OsdInput::HeartbeatTick);
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::RepopNvm { seq: 1, .. },
                    ..
                }
            )),
            "second tick retransmits: {fx:?}"
        );
    }
}
