//! Cluster message types.
//!
//! Everything that crosses the wire between clients, OSDs and the monitor.
//! Messages carry real payloads (reads return the bytes that were written),
//! and each knows its approximate wire size so network serialization and
//! per-message CPU can be charged faithfully.

use rablock_oplog::LogRecord;
use rablock_storage::{GroupId, ObjectId, Payload, Segments, StoreError, Transaction};

use crate::placement::{OsdId, OsdMap};

/// Identifies one client connection.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ClientId(pub u32);

/// Client-assigned id for one outstanding operation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct OpId(pub u64);

/// Fixed per-message header overhead on the wire (Ceph msgr-like).
pub const MSG_HEADER_BYTES: u64 = 192;

/// A client request to an OSD.
#[derive(Clone, Debug)]
pub enum ClientReq {
    /// Write `data` at `offset` of `oid`.
    Write {
        /// Operation id (echoed in the reply).
        op: OpId,
        /// Target object.
        oid: ObjectId,
        /// Byte offset within the object.
        offset: u64,
        /// Payload (refcounted: a retry's clone shares the bytes).
        data: Payload,
    },
    /// Read `len` bytes at `offset` of `oid`.
    Read {
        /// Operation id (echoed in the reply).
        op: OpId,
        /// Target object.
        oid: ObjectId,
        /// Byte offset within the object.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Pre-create an object (RBD image provisioning).
    Create {
        /// Operation id (echoed in the reply).
        op: OpId,
        /// Target object.
        oid: ObjectId,
        /// Object size in bytes.
        size: u64,
    },
}

impl ClientReq {
    /// The operation id.
    pub fn op(&self) -> OpId {
        match self {
            ClientReq::Write { op, .. }
            | ClientReq::Read { op, .. }
            | ClientReq::Create { op, .. } => *op,
        }
    }

    /// Target object.
    pub fn oid(&self) -> ObjectId {
        match self {
            ClientReq::Write { oid, .. }
            | ClientReq::Read { oid, .. }
            | ClientReq::Create { oid, .. } => *oid,
        }
    }

    /// Approximate wire size.
    pub fn wire_bytes(&self) -> u64 {
        MSG_HEADER_BYTES
            + match self {
                ClientReq::Write { data, .. } => data.len() as u64,
                _ => 0,
            }
    }
}

/// An OSD's reply to a client.
#[derive(Clone, Debug)]
pub enum ClientReply {
    /// Write/create completed.
    Done {
        /// Echoed operation id.
        op: OpId,
    },
    /// Read completed with data.
    Data {
        /// Echoed operation id.
        op: OpId,
        /// The bytes read (refcounted: a dedup re-ack shares the bytes).
        data: Payload,
    },
    /// The operation failed.
    Error {
        /// Echoed operation id.
        op: OpId,
        /// Why.
        error: StoreError,
    },
}

impl ClientReply {
    /// The echoed operation id.
    pub fn op(&self) -> OpId {
        match self {
            ClientReply::Done { op }
            | ClientReply::Data { op, .. }
            | ClientReply::Error { op, .. } => *op,
        }
    }

    /// Approximate wire size.
    pub fn wire_bytes(&self) -> u64 {
        MSG_HEADER_BYTES
            + match self {
                ClientReply::Data { data, .. } => data.len() as u64,
                _ => 0,
            }
    }
}

/// One entry of a group's bounded write log (pg_log), Ceph-style: enough to
/// compare replica histories during peering and decide what data must move.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PgLogEntry {
    /// Map epoch at which the op was applied.
    pub epoch: u64,
    /// Primary-assigned version (the replication sequence of the op).
    pub version: u64,
    /// Object the op touched.
    pub oid: ObjectId,
    /// Digest of the op's payload bytes (FNV-1a), so entries from different
    /// primaries that happen to share a version never silently match.
    pub digest: u64,
}

impl PgLogEntry {
    /// Membership key used when diffing two replicas' logs: epoch is kept
    /// out because a replica may tag the same op with a slightly older map
    /// epoch than the primary did.
    pub fn key(&self) -> (u64, u64, u64) {
        (self.version, self.oid.raw(), self.digest)
    }
}

/// One row of a scrub map: a replica's summary of one object.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScrubEntry {
    /// Raw object id.
    pub oid_raw: u64,
    /// Object size in bytes on this replica.
    pub size: u64,
    /// Content digest (FNV-1a over the object bytes, or over the per-block
    /// checksum run on a light scrub of a checksumming store).
    pub digest: u64,
    /// True when a deep read of the object tripped a block checksum — this
    /// replica's copy is rotten regardless of what the digest claims.
    pub damaged: bool,
    /// Newest pg_log `(epoch, version)` for the object when the map was
    /// built. Replica maps are collected at different instants, so a write
    /// landing mid-round makes digests diverge without any corruption; the
    /// comparison skips objects whose copies disagree on this stamp instead
    /// of flagging them (the next round re-checks them at rest).
    pub epoch: u64,
    /// See `epoch`.
    pub version: u64,
}

/// OSD-to-OSD messages.
#[derive(Clone, Debug)]
pub enum PeerMsg {
    /// Primary-backup replication of a transaction. The replica handles it
    /// in its own mode: a decoupled replica (§IV-A) logs it to NVM and acks
    /// at once; every other persists it to its backend store before acking.
    Repop {
        /// Group the transaction belongs to.
        group: GroupId,
        /// Primary-assigned sequence.
        seq: u64,
        /// The transaction to apply.
        txn: Transaction,
    },
    /// Replica acknowledgment.
    RepAck {
        /// Group.
        group: GroupId,
        /// Acked sequence.
        seq: u64,
        /// Which replica acks.
        from: OsdId,
    },
    /// Peer recovery: a joiner asks for a group's objects and pending
    /// operation-log records (§IV-A-4 synchronization), answered by one
    /// [`PeerMsg::PullReply`].
    PullLog {
        /// Group to synchronize.
        group: GroupId,
        /// Requesting OSD.
        from: OsdId,
    },
    /// Peer recovery: the answer to [`PeerMsg::PullLog`], in one message.
    /// The objects catch up a joiner whose backend missed flushes while it
    /// was out of the acting set; the records are what the sender's log
    /// still holds unflushed.
    PullReply {
        /// Group being synchronized.
        group: GroupId,
        /// `(object, full content)` pairs: the sender's complete state,
        /// read after syncing its backend with its pending log records.
        /// Each content is the views the sender's store returned,
        /// unassembled.
        objects: Vec<(ObjectId, Segments)>,
        /// The sender's pending records, in log order; on the wire each
        /// costs its encoded length.
        records: Vec<LogRecord>,
    },
    /// Peering: a primary asks an acting-set peer for its pg_log so it can
    /// compute the peer's missing set, and a joiner asks each candidate, so
    /// it can pick whom to pull from.
    PgQuery {
        /// Group being peered.
        group: GroupId,
        /// Map epoch the primary is peering at (stale replies are ignored).
        epoch: u64,
        /// The querying primary or joiner.
        from: OsdId,
    },
    /// Peering: a peer's pg_log, in reply to [`PeerMsg::PgQuery`].
    PgInfo {
        /// Group being peered.
        group: GroupId,
        /// Echoed peering epoch.
        epoch: u64,
        /// The replying peer.
        from: OsdId,
        /// The peer holds no finished copy of the group: it is joining it,
        /// or left it (or crashed) before its join ended. A bit of the
        /// header on the wire.
        joining: bool,
        /// The peer's full (bounded) pg_log for the group.
        entries: Vec<PgLogEntry>,
    },
    /// Recovery/backfill: the primary pushes an object's authoritative
    /// content to a peer whose log diff (or empty log) showed it missing.
    PushObject {
        /// Group being recovered.
        group: GroupId,
        /// Peering epoch the push belongs to.
        epoch: u64,
        /// The primary's newest log entry for the object (`version` 0 for a
        /// backfill push of an object that fell off the log tail); the
        /// receiver skips the apply if it already holds something newer.
        /// Boxed: this is the largest variant, and every simulated event
        /// is as large as the largest message.
        entry: Box<PgLogEntry>,
        /// Full object content as served by the primary: the views its
        /// store returned, unassembled, each with its buffer's CRC memo.
        data: Segments,
        /// FNV-1a digest of `data`; the receiver verifies before applying.
        content_digest: u64,
    },
    /// Recovery/backfill: a peer acknowledges one applied (or already-newer)
    /// [`PeerMsg::PushObject`].
    PushAck {
        /// Group being recovered.
        group: GroupId,
        /// Echoed peering epoch.
        epoch: u64,
        /// The acked object.
        oid: ObjectId,
        /// Which peer acks.
        from: OsdId,
    },
    /// Scrub: the primary asks an acting-set peer for a scrub map of a
    /// group — per-object sizes and digests (plus, on a deep scrub, a full
    /// data read that verifies block checksums).
    ScrubRequest {
        /// Group being scrubbed.
        group: GroupId,
        /// Map epoch the scrub round belongs to (stale replies are ignored).
        epoch: u64,
        /// Whether to deep-scrub (read and checksum-verify every byte).
        deep: bool,
        /// The requesting primary.
        from: OsdId,
    },
    /// Scrub: one replica's view of a group, in reply to
    /// [`PeerMsg::ScrubRequest`] (the primary also builds one locally).
    ScrubMap {
        /// Group being scrubbed.
        group: GroupId,
        /// Echoed scrub epoch.
        epoch: u64,
        /// The replying peer.
        from: OsdId,
        /// Per-object `(raw oid, size, content digest, damaged)` rows.
        /// `damaged` is set when a deep read tripped a block checksum.
        entries: Vec<ScrubEntry>,
    },
    /// Scrub/read-repair: an OSD that found one of its own replicas rotten
    /// asks a peer holding a good copy to push the object back to it.
    ScrubFetch {
        /// Group the object belongs to.
        group: GroupId,
        /// Map epoch of the request.
        epoch: u64,
        /// The damaged object.
        oid: ObjectId,
        /// The requesting (damaged) OSD.
        from: OsdId,
    },
    /// A replica failed to apply a replicated transaction: negative ack so
    /// the primary can mark the peer missing and re-drive recovery instead
    /// of the replica panicking.
    RepNack {
        /// Group.
        group: GroupId,
        /// Nacked sequence.
        seq: u64,
        /// Which replica failed.
        from: OsdId,
        /// Why the apply failed.
        error: StoreError,
    },
}

impl PeerMsg {
    /// The group the message concerns.
    pub fn group(&self) -> GroupId {
        match self {
            PeerMsg::Repop { group, .. }
            | PeerMsg::RepAck { group, .. }
            | PeerMsg::PullLog { group, .. }
            | PeerMsg::PullReply { group, .. }
            | PeerMsg::PgQuery { group, .. }
            | PeerMsg::PgInfo { group, .. }
            | PeerMsg::PushObject { group, .. }
            | PeerMsg::PushAck { group, .. }
            | PeerMsg::ScrubRequest { group, .. }
            | PeerMsg::ScrubMap { group, .. }
            | PeerMsg::ScrubFetch { group, .. }
            | PeerMsg::RepNack { group, .. } => *group,
        }
    }

    /// Whether this is recovery/peering traffic (as opposed to foreground
    /// replication): drivers schedule it on the low-priority lane so repair
    /// degrades client IOPS gracefully.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            PeerMsg::PullLog { .. }
                | PeerMsg::PullReply { .. }
                | PeerMsg::PgQuery { .. }
                | PeerMsg::PgInfo { .. }
                | PeerMsg::PushObject { .. }
                | PeerMsg::PushAck { .. }
                | PeerMsg::ScrubRequest { .. }
                | PeerMsg::ScrubMap { .. }
                | PeerMsg::ScrubFetch { .. }
        )
    }

    /// Approximate wire size.
    pub fn wire_bytes(&self) -> u64 {
        MSG_HEADER_BYTES
            + match self {
                PeerMsg::Repop { txn, .. } => txn.user_bytes() + 256,
                PeerMsg::RepAck { .. } => 0,
                PeerMsg::PullLog { .. } => 0,
                PeerMsg::PullReply {
                    objects, records, ..
                } => {
                    let contents: u64 =
                        objects.iter().map(|(_, data)| 16 + data.len() as u64).sum();
                    contents + records.iter().map(LogRecord::encoded_len).sum::<u64>()
                }
                PeerMsg::PgQuery { .. } => 0,
                // 32 bytes per serialized pg_log entry.
                PeerMsg::PgInfo { entries, .. } => 32 * entries.len() as u64,
                PeerMsg::PushObject { data, .. } => 48 + data.len() as u64,
                PeerMsg::PushAck { .. } => 0,
                PeerMsg::ScrubRequest { .. } => 8,
                // 32 bytes per serialized scrub-map row.
                PeerMsg::ScrubMap { entries, .. } => 32 * entries.len() as u64,
                PeerMsg::ScrubFetch { .. } => 16,
                PeerMsg::RepNack { .. } => 16,
            }
    }
}

/// Monitor messages (cluster-map distribution and liveness).
#[derive(Clone, Debug)]
pub enum MonMsg {
    /// An OSD (or the driver) reports a failure.
    ReportFailure {
        /// The OSD believed dead.
        osd: OsdId,
    },
    /// A periodic liveness beacon from an OSD; the monitor marks the sender
    /// down after a configurable window of missed heartbeats.
    Heartbeat {
        /// The OSD reporting in.
        osd: OsdId,
    },
    /// A new map epoch, broadcast to everyone.
    MapUpdate {
        /// The new map.
        map: OsdMap,
    },
}

impl MonMsg {
    /// Approximate wire size.
    pub fn wire_bytes(&self) -> u64 {
        MSG_HEADER_BYTES
            + match self {
                MonMsg::ReportFailure { .. } | MonMsg::Heartbeat { .. } => 0,
                // Per-OSD entries dominate an encoded map (id, node, up,
                // weight plus framing).
                MonMsg::MapUpdate { map } => 20 * map.osds.len() as u64,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::{GroupId, Op};

    #[test]
    fn wire_sizes_scale_with_payload() {
        let oid = ObjectId::new(GroupId(0), 1);
        let w = ClientReq::Write {
            op: OpId(1),
            oid,
            offset: 0,
            data: vec![0; 4096].into(),
        };
        let r = ClientReq::Read {
            op: OpId(2),
            oid,
            offset: 0,
            len: 4096,
        };
        assert_eq!(w.wire_bytes(), MSG_HEADER_BYTES + 4096);
        assert_eq!(r.wire_bytes(), MSG_HEADER_BYTES);
        let reply = ClientReply::Data {
            op: OpId(2),
            data: vec![0; 4096].into(),
        };
        assert_eq!(reply.wire_bytes(), MSG_HEADER_BYTES + 4096);
    }

    #[test]
    fn repop_wire_includes_payload_and_metadata() {
        let oid = ObjectId::new(GroupId(0), 1);
        let txn = Transaction::new(
            GroupId(0),
            9,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        let m = PeerMsg::Repop {
            group: GroupId(0),
            seq: 9,
            txn,
        };
        assert!(m.wire_bytes() > MSG_HEADER_BYTES + 4096);
    }

    #[test]
    fn ids_echo_through_accessors() {
        let oid = ObjectId::new(GroupId(7), 3);
        let req = ClientReq::Create {
            op: OpId(42),
            oid,
            size: 1,
        };
        assert_eq!(req.op(), OpId(42));
        assert_eq!(req.oid(), oid);
        assert_eq!(ClientReply::Done { op: OpId(42) }.op(), OpId(42));
    }
}
