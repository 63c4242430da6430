//! Per-logical-group operation log + index cache.
//!
//! The two data structures of §IV-A: the *operation log* stores incoming
//! operations sequentially (a producer/consumer buffer between priority and
//! non-priority threads), and the *index cache* tracks the recent writes per
//! object id so reads can be answered with strong consistency. Index entries
//! are never overwritten — each one tracks one operation in the log
//! (paper: "We do not overwrite them").
//!
//! A logged record exists once: the mirror and the ring's NVM extents share
//! it (the region encodes it only if something reads the ring), the index
//! entry holds a view of its payload, and a flush hands the store a shared
//! clone of the transaction. The mirror answers every caller; only recovery
//! reads the ring.

use std::collections::VecDeque;
use std::sync::Arc;

use rablock_storage::{
    Encoded, FxHashMap, GroupId, NvmRegion, ObjectId, Op, Payload, Record, SmallVec, StoreError,
    Transaction,
};

use crate::entry::{encoded_len, LogRecord};
use crate::ring::NvmRing;

/// What kind of operation an index entry tracks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// A data write.
    Write,
    /// An xattr update (does not affect data reads).
    Xattr,
    /// An object create/pre-allocation.
    Create,
    /// An object delete.
    Delete,
}

/// One index-cache entry: a recent operation touching an object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// What the operation was.
    pub kind: IndexKind,
    /// Group version of the logged record.
    pub version: u64,
    /// Sequence number of the logged record.
    pub seq: u64,
    /// Byte offset of the write within the object (0 for non-write ops).
    pub offset: u64,
    /// The written bytes, a view of the logged payload: `Some` exactly for
    /// [`IndexKind::Write`]. An R1 read is answered from here.
    pub data: Option<Payload>,
}

/// How a read can be satisfied, per the paper's R1/R2/R3 paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadPath {
    /// R1: a single logged write covers the request — served straight from
    /// the operation log by the priority thread. The payload is a zero-copy
    /// slice of the logged record's data (refcount bump, no allocation).
    FromLog(Payload),
    /// R2/R3: the object has pending log entries that do not cover the
    /// request; the group must flush, then read from the backend store.
    FlushThenStore,
    /// No pending entries for this object; read from the backend store.
    Store,
}

/// Outcome of appending a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// True once the pending count crosses the flush threshold.
    pub needs_flush: bool,
    /// NVM bytes consumed by the record.
    pub nvm_bytes: u64,
}

/// One queued record in the in-memory mirror of the ring.
#[derive(Debug, Clone)]
struct Pending {
    /// The logged record, shared with the ring's NVM extents; a flush hands
    /// the store a shared clone of its transaction and the record stays
    /// until the flush window closes.
    record: Arc<Encoded<LogRecord>>,
    /// Bytes the record takes in the ring.
    encoded_len: u64,
    /// The objects whose index entries point at this record.
    oids: SmallVec<u64, 2>,
}

/// The operation log and index cache of one logical group.
#[derive(Debug, Clone)]
pub struct GroupLog {
    group: GroupId,
    ring: NvmRing,
    /// Mirror of the ring, in log order. A deque so the flush path's FIFO
    /// drain is O(1) per record.
    records: VecDeque<Pending>,
    /// Recent operations per object, oldest first (never overwritten, only
    /// appended; released from the front, as records leave in log order).
    /// Never iterated, so hash order cannot leak into a result.
    index: FxHashMap<u64, Vec<IndexEntry>>,
    /// Flush once this many records are pending (paper default: 16).
    pub flush_threshold: usize,
    /// Group version, bumped per append (§IV-C-7: kept in the log).
    version: u64,
}

impl GroupLog {
    fn empty(group: GroupId, ring: NvmRing, flush_threshold: usize) -> Self {
        GroupLog {
            group,
            ring,
            records: VecDeque::new(),
            index: FxHashMap::default(),
            flush_threshold,
            version: 0,
        }
    }

    /// Formats a fresh group log over `[base, base+len)` of `nvm`.
    ///
    /// # Errors
    ///
    /// Propagates NVM errors.
    pub fn format(
        nvm: &mut NvmRegion,
        group: GroupId,
        base: u64,
        len: u64,
        flush_threshold: usize,
    ) -> Result<Self, StoreError> {
        let ring = NvmRing::format(nvm, base, len)?;
        Ok(GroupLog::empty(group, ring, flush_threshold))
    }

    /// Reopens the ring and replays the valid prefix of its queued records
    /// into a fresh mirror and index cache. Returns, beside the log, the
    /// decode error that stopped the scan and the bytes left from there on,
    /// if one did; the ring itself is not changed.
    fn scan(
        nvm: &mut NvmRegion,
        group: GroupId,
        base: u64,
        len: u64,
        flush_threshold: usize,
    ) -> Result<(Self, Option<(u64, StoreError)>), StoreError> {
        let ring = NvmRing::open(nvm, base, len)?;
        let raw = ring.queued_bytes(nvm)?;
        let mut g = GroupLog::empty(group, ring, flush_threshold);
        let mut pos = 0usize;
        while pos < raw.len() {
            match LogRecord::decode(&raw[pos..]) {
                Ok((rec, consumed)) => {
                    g.version = g.version.max(rec.version);
                    g.push_record(Arc::new(Encoded::new(rec)), consumed as u64);
                    pos += consumed;
                }
                Err(e) => return Ok((g, Some(((raw.len() - pos) as u64, e)))),
            }
        }
        Ok((g, None))
    }

    /// Recovers a group log from NVM after a crash or reboot: reopens the
    /// ring, re-decodes every queued record, and rebuilds the index cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the header or a queued record fails its
    /// CRC (the log is persisted before being acknowledged, so valid state
    /// never has a hole in the middle).
    pub fn recover(
        nvm: &mut NvmRegion,
        group: GroupId,
        base: u64,
        len: u64,
        flush_threshold: usize,
    ) -> Result<Self, StoreError> {
        match Self::scan(nvm, group, base, len, flush_threshold)? {
            (g, None) => Ok(g),
            (_, Some((_, e))) => Err(e),
        }
    }

    /// Recovers like [`GroupLog::recover`], but a record that fails its CRC
    /// mid-scan is treated as a torn tail: the scan stops there, the ring
    /// head is truncated to the last valid record, and the number of
    /// discarded bytes is returned alongside the log.
    ///
    /// A torn record was by construction never acknowledged (the log is
    /// persisted before the ack), so dropping it is safe; recovering the
    /// intact prefix preserves every acknowledged write.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] only if the ring *header* is damaged — then
    /// nothing can be salvaged.
    pub fn recover_truncating(
        nvm: &mut NvmRegion,
        group: GroupId,
        base: u64,
        len: u64,
        flush_threshold: usize,
    ) -> Result<(Self, u64), StoreError> {
        let (mut g, torn) = Self::scan(nvm, group, base, len, flush_threshold)?;
        let discarded = torn.map_or(0, |(bytes, _)| bytes);
        if discarded > 0 {
            let valid = g.ring.used() - discarded;
            g.ring.truncate_head(nvm, valid)?;
        }
        Ok((g, discarded))
    }

    /// Fault injection: tears the tail of the newest record in place (flips
    /// the bits of its second half in NVM), simulating a crash mid-append.
    /// Returns `false` if the log is empty. The in-memory state is left
    /// untouched — callers model a crash by dropping it and re-running
    /// recovery.
    ///
    /// # Errors
    ///
    /// Propagates NVM access errors.
    pub fn tear_tail(&self, nvm: &mut NvmRegion) -> Result<bool, StoreError> {
        let Some(newest) = self.records.back() else {
            return Ok(false);
        };
        self.ring.corrupt_suffix(nvm, newest.encoded_len / 2)?;
        Ok(true)
    }

    /// Fault injection: flips one bit of the `nth` queued NVM byte (modulo
    /// the queued length), modelling silent bit rot in a committed log
    /// record. The in-memory mirror stays clean, so the damage is latent
    /// until a crash forces recovery to re-read NVM — exactly how real NVM
    /// rot behaves. Returns `false` when nothing is queued.
    ///
    /// # Errors
    ///
    /// Propagates NVM access errors.
    pub fn rot_bit(&self, nvm: &mut NvmRegion, nth: u64, bit: u8) -> Result<bool, StoreError> {
        self.ring.corrupt_bit(nvm, nth, bit)
    }

    /// The group this log belongs to.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Base offset of the log's ring within its NVM region.
    pub fn nvm_base(&self) -> u64 {
        self.ring.base()
    }

    /// Total NVM region length reserved for the log (header plus data).
    pub fn nvm_region_len(&self) -> u64 {
        self.ring.region_len()
    }

    /// Pending (unflushed) records.
    pub fn pending(&self) -> usize {
        self.records.len()
    }

    /// Current group version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// NVM bytes currently held by this log.
    pub fn nvm_used(&self) -> u64 {
        self.ring.used()
    }

    /// Indexes `record` and queues it at the back of the mirror.
    fn push_record(&mut self, record: Arc<Encoded<LogRecord>>, encoded_len: u64) {
        let LogRecord { version, seq, .. } = **record;
        let mut oids = SmallVec::new();
        for op in record.txn.ops.iter() {
            let (oid, kind, offset, data) = match op {
                Op::Write { oid, offset, data } => {
                    (*oid, IndexKind::Write, *offset, Some(data.clone()))
                }
                Op::WriteV { oid, offset, data } => {
                    let flat = data.clone().into_payload();
                    (*oid, IndexKind::Write, *offset, Some(flat))
                }
                Op::SetXattr { oid, .. } => (*oid, IndexKind::Xattr, 0, None),
                Op::Create { oid, .. } => (*oid, IndexKind::Create, 0, None),
                Op::Delete { oid } => (*oid, IndexKind::Delete, 0, None),
                Op::MetaPut { .. } | Op::MetaDelete { .. } => continue,
            };
            if !oids.contains(&oid.raw()) {
                oids.push(oid.raw());
            }
            self.index.entry(oid.raw()).or_default().push(IndexEntry {
                kind,
                version,
                seq,
                offset,
                data,
            });
        }
        self.records.push_back(Pending {
            record,
            encoded_len,
            oids,
        });
    }

    /// Whether [`GroupLog::append`] of `txn` would find room in the ring.
    /// Exact (a record's length is a sum of field sizes), so a caller can
    /// make room first instead of keeping a copy of `txn` for a retry.
    pub fn fits(&self, txn: &Transaction) -> bool {
        encoded_len(txn) <= self.ring.available()
    }

    /// Appends a transaction to the log (the priority thread's W1+W2).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when NVM is full — the caller must flush
    /// synchronously and retry (the paper's degenerate case);
    /// [`GroupLog::fits`] tells beforehand.
    pub fn append(
        &mut self,
        nvm: &mut NvmRegion,
        txn: Transaction,
    ) -> Result<AppendOutcome, StoreError> {
        debug_assert_eq!(txn.group, self.group, "transaction routed to wrong group");
        let version = self.version + 1;
        let seq = txn.seq;
        let record = Arc::new(Encoded::new(LogRecord { version, seq, txn }));
        let view = Record::new(record.clone());
        let nvm_bytes = view.len();
        self.ring.append(nvm, &view)?;
        self.version = version;
        self.push_record(record, nvm_bytes);
        Ok(AppendOutcome {
            needs_flush: self.records.len() >= self.flush_threshold,
            nvm_bytes,
        })
    }

    /// Classifies a read (the paper's R1/R2/R3 decision).
    ///
    /// R1 requires a *single* logged write whose range covers the request
    /// and that is the newest operation on the object; anything more complex
    /// flushes first to preserve strong consistency.
    pub fn read_path(&self, oid: ObjectId, offset: u64, len: u64) -> ReadPath {
        let Some(entries) = self.index.get(&oid.raw()) else {
            return ReadPath::Store;
        };
        let mut writes = 0;
        let mut newest = None;
        for entry in entries {
            match (entry.kind, &entry.data) {
                // Pending deletes or creates change object existence/size:
                // always flush before reading.
                (IndexKind::Delete | IndexKind::Create, _) => return ReadPath::FlushThenStore,
                (IndexKind::Write, Some(data)) => {
                    writes += 1;
                    newest = Some((entry.offset, data));
                }
                // Xattr updates never affect data reads.
                _ => {}
            }
        }
        let Some((at, data)) = newest else {
            return ReadPath::Store; // only xattr updates pending
        };
        // The newest write must fully cover the request ("if the length of
        // the request is not larger than it of the log entry") and be the
        // only pending write — otherwise older pending writes below could
        // matter after a flush.
        let covers = at <= offset && offset + len <= at + data.len() as u64;
        if covers && writes == 1 {
            return ReadPath::FromLog(data.slice((offset - at) as usize, len as usize));
        }
        ReadPath::FlushThenStore
    }

    /// Releases the `n` oldest records: their index entries and their NVM
    /// space, with one tail advance (and one persisted header write) for
    /// the whole batch — group commit on the consume side.
    fn release_front(&mut self, nvm: &mut NvmRegion, n: usize) -> Result<(), StoreError> {
        if n == 0 {
            return Ok(());
        }
        let mut released = 0u64;
        for rec in self.records.drain(..n) {
            released += rec.encoded_len;
            // Records leave in log order, so a record's entries are the
            // oldest of each object it touches.
            let version = rec.record.version;
            for oid in &rec.oids {
                if let Some(entries) = self.index.get_mut(oid) {
                    let done = entries.iter().take_while(|e| e.version == version).count();
                    entries.drain(..done);
                    if entries.is_empty() {
                        self.index.remove(oid);
                    }
                }
            }
        }
        self.ring.consume(nvm, released)
    }

    /// Drains up to `max` oldest records for flushing to the backend store,
    /// releasing their index entries and NVM space before the caller has
    /// submitted them. A flush that must survive a store error takes
    /// [`GroupLog::begin_flush`] and releases with
    /// [`GroupLog::drain_through_version`] instead.
    ///
    /// # Errors
    ///
    /// Propagates NVM header-update errors.
    pub fn drain_for_flush(
        &mut self,
        nvm: &mut NvmRegion,
        max: usize,
    ) -> Result<Vec<Transaction>, StoreError> {
        let n = max.min(self.records.len());
        let txns = self
            .records
            .iter()
            .take(n)
            .map(|r| r.record.txn.clone())
            .collect();
        self.release_front(nvm, n)?;
        Ok(txns)
    }

    /// Opens a flush window: every pending transaction, shared, in log
    /// order, for the caller to submit to the store (the caller may also
    /// keep the records, or release them at once). The records stay
    /// queued, indexed and in NVM — reads are still served from the index
    /// and a crash still recovers them — until
    /// [`GroupLog::drain_through_version`] of the version observed now
    /// closes the window.
    pub fn begin_flush(&self) -> Vec<Transaction> {
        self.records.iter().map(|r| r.record.txn.clone()).collect()
    }

    /// Releases every record whose log version is at most `version`
    /// (records are version-ordered, oldest first) and returns how many. A
    /// flush completion uses this with the version observed when the batch
    /// was submitted, so records appended — or drained by another path —
    /// while the flush was in flight are never discarded by mistake; a
    /// count would be.
    ///
    /// # Errors
    ///
    /// Propagates NVM header-update errors.
    pub fn drain_through_version(
        &mut self,
        nvm: &mut NvmRegion,
        version: u64,
    ) -> Result<usize, StoreError> {
        let n = self
            .records
            .iter()
            .take_while(|r| r.record.version <= version)
            .count();
        self.release_front(nvm, n)?;
        Ok(n)
    }

    /// Every pending record (the answer to a pulling peer), in log order,
    /// its transaction shared with the mirror. Works inside a flush window.
    pub fn export_records(&self) -> Vec<LogRecord> {
        self.records
            .iter()
            .map(|rec| (*rec.record).clone())
            .collect()
    }

    /// Imports records from a peer into an empty log (replacement node
    /// synchronization, §IV-A-4 steps ⑥–⑦). Each imported record shares
    /// its transaction with the caller's, and the caller keeps its records
    /// to apply elsewhere if the import is refused.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidArgument`] if this log is not empty;
    /// [`StoreError::NoSpace`] if NVM cannot hold the records.
    pub fn import_records(
        &mut self,
        nvm: &mut NvmRegion,
        records: &[LogRecord],
    ) -> Result<(), StoreError> {
        if !self.records.is_empty() {
            return Err(StoreError::InvalidArgument(
                "importing into a non-empty operation log".into(),
            ));
        }
        // All-or-nothing batch append: one persisted header write covers the
        // whole import, and a NoSpace failure leaves the log untouched.
        let shared: Vec<Arc<Encoded<LogRecord>>> = records
            .iter()
            .map(|rec| Arc::new(Encoded::new(rec.clone())))
            .collect();
        let views: Vec<Record> = shared.iter().map(|rec| Record::new(rec.clone())).collect();
        self.ring.append_batch(nvm, &views)?;
        for (rec, view) in shared.into_iter().zip(&views) {
            self.version = self.version.max(rec.version);
            self.push_record(rec, view.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u64) -> ObjectId {
        ObjectId::new(GroupId(1), i)
    }

    fn write_txn(seq: u64, o: ObjectId, offset: u64, data: Vec<u8>) -> Transaction {
        Transaction::new(
            GroupId(1),
            seq,
            vec![Op::Write {
                oid: o,
                offset,
                data: data.into(),
            }],
        )
    }

    fn fresh() -> (NvmRegion, GroupLog) {
        let mut nvm = NvmRegion::new(1 << 20);
        let g = GroupLog::format(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        (nvm, g)
    }

    #[test]
    fn append_until_threshold_requests_flush() {
        let (mut nvm, mut g) = fresh();
        for seq in 0..15 {
            let out = g
                .append(&mut nvm, write_txn(seq, oid(seq), 0, vec![1; 64]))
                .unwrap();
            assert!(!out.needs_flush, "seq {seq}");
        }
        let out = g
            .append(&mut nvm, write_txn(15, oid(15), 0, vec![1; 64]))
            .unwrap();
        assert!(out.needs_flush);
        assert_eq!(g.pending(), 16);
    }

    #[test]
    fn read_served_from_log_when_covered() {
        let (mut nvm, mut g) = fresh();
        g.append(&mut nvm, write_txn(1, oid(7), 100, (0..50u8).collect()))
            .unwrap();
        match g.read_path(oid(7), 110, 20) {
            ReadPath::FromLog(data) => assert_eq!(data, (10..30u8).collect::<Vec<_>>()),
            other => panic!("expected FromLog, got {other:?}"),
        }
    }

    /// Nobody logs a vectored write today (pushes and backfill bypass the
    /// log), but one that is logged is the flat write in every respect: in
    /// the ring, in the index, and after recovery.
    #[test]
    fn a_vectored_write_is_logged_as_the_flat_write() {
        let data: Payload = (0..9000u32)
            .map(|i| (i / 5) as u8)
            .collect::<Vec<_>>()
            .into();
        let mut pieces = rablock_storage::Segments::new();
        for (at, len) in [(0, 4096), (4096, 100), (4196, 4804)] {
            pieces.push(data.slice(at, len));
        }
        let vectored = Op::WriteV {
            oid: oid(7),
            offset: 100,
            data: pieces,
        };
        let (mut nvm, mut g) = fresh();
        let out = g
            .append(&mut nvm, Transaction::new(GroupId(1), 1, vec![vectored]))
            .unwrap();
        let (mut flat_nvm, mut flat) = fresh();
        let flat_out = flat
            .append(&mut flat_nvm, write_txn(1, oid(7), 100, data.to_vec()))
            .unwrap();
        assert_eq!(out, flat_out, "the same bytes of NVM");
        let encoded = |log: &GroupLog| -> Vec<Vec<u8>> {
            log.export_records().iter().map(LogRecord::encode).collect()
        };
        assert_eq!(encoded(&g), encoded(&flat));
        match g.read_path(oid(7), 4000, 500) {
            ReadPath::FromLog(got) => assert_eq!(got, data[3900..4400].to_vec()),
            other => panic!("expected FromLog, got {other:?}"),
        }
        nvm.reboot();
        let recovered = GroupLog::recover(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        assert_eq!(recovered.export_records(), flat.export_records());
    }

    #[test]
    fn uncovered_read_flushes_first() {
        let (mut nvm, mut g) = fresh();
        g.append(&mut nvm, write_txn(1, oid(7), 100, vec![1; 50]))
            .unwrap();
        // Larger than the log entry (paper's R3).
        assert_eq!(g.read_path(oid(7), 100, 200), ReadPath::FlushThenStore);
        // Outside the entry.
        assert_eq!(g.read_path(oid(7), 0, 10), ReadPath::FlushThenStore);
    }

    #[test]
    fn read_of_untouched_object_goes_to_store() {
        let (mut nvm, mut g) = fresh();
        g.append(&mut nvm, write_txn(1, oid(7), 0, vec![1; 10]))
            .unwrap();
        assert_eq!(g.read_path(oid(8), 0, 10), ReadPath::Store);
    }

    #[test]
    fn multiple_pending_writes_force_flush_on_read() {
        let (mut nvm, mut g) = fresh();
        g.append(&mut nvm, write_txn(1, oid(7), 0, vec![1; 100]))
            .unwrap();
        g.append(&mut nvm, write_txn(2, oid(7), 50, vec![2; 100]))
            .unwrap();
        // Two entries for the object: the single-entry fast path refuses.
        assert_eq!(g.read_path(oid(7), 60, 10), ReadPath::FlushThenStore);
    }

    #[test]
    fn drain_releases_nvm_and_index() {
        let (mut nvm, mut g) = fresh();
        for seq in 0..8 {
            g.append(&mut nvm, write_txn(seq, oid(seq % 2), 0, vec![3; 128]))
                .unwrap();
        }
        let used_before = g.nvm_used();
        let txns = g.drain_for_flush(&mut nvm, 8).unwrap();
        assert_eq!(txns.len(), 8);
        assert_eq!(g.pending(), 0);
        assert!(g.nvm_used() < used_before);
        assert_eq!(g.read_path(oid(0), 0, 1), ReadPath::Store);
    }

    #[test]
    fn drain_is_fifo() {
        let (mut nvm, mut g) = fresh();
        for seq in 0..5 {
            g.append(&mut nvm, write_txn(seq, oid(seq), 0, vec![seq as u8; 16]))
                .unwrap();
        }
        let txns = g.drain_for_flush(&mut nvm, 3).unwrap();
        let seqs: Vec<u64> = txns.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(g.pending(), 2);
    }

    #[test]
    fn recovery_rebuilds_log_and_index() {
        let mut nvm = NvmRegion::new(1 << 20);
        let mut g = GroupLog::format(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        for seq in 0..6 {
            g.append(
                &mut nvm,
                write_txn(seq, oid(seq % 3), seq * 10, vec![seq as u8; 40]),
            )
            .unwrap();
        }
        g.drain_for_flush(&mut nvm, 2).unwrap();
        let exported = g.export_records();
        nvm.reboot();
        let g2 = GroupLog::recover(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        assert_eq!(g2.pending(), 4);
        assert_eq!(g2.export_records(), exported);
        assert_eq!(g2.version(), g.version());
        // Index works after recovery: oid(0) has exactly one pending write
        // left (seq 3 at offset 30; seq 0 was drained before the crash).
        match g2.read_path(oid(0), 30, 40) {
            ReadPath::FromLog(d) => assert_eq!(d, vec![3u8; 40]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn torn_tail_rejected_by_strict_recovery() {
        let mut nvm = NvmRegion::new(1 << 20);
        let mut g = GroupLog::format(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        for seq in 0..4 {
            g.append(&mut nvm, write_txn(seq, oid(seq), 0, vec![seq as u8; 64]))
                .unwrap();
        }
        assert!(g.tear_tail(&mut nvm).unwrap());
        nvm.reboot();
        // Strict recovery sees the CRC mismatch and refuses the whole log.
        assert!(matches!(
            GroupLog::recover(&mut nvm, GroupId(1), 0, 1 << 20, 16),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_tail_truncated_by_lossy_recovery() {
        let mut nvm = NvmRegion::new(1 << 20);
        let mut g = GroupLog::format(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        for seq in 0..4 {
            g.append(&mut nvm, write_txn(seq, oid(seq), 0, vec![seq as u8; 64]))
                .unwrap();
        }
        assert!(g.tear_tail(&mut nvm).unwrap());
        nvm.reboot();
        let (g2, discarded) =
            GroupLog::recover_truncating(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        assert!(discarded > 0, "the torn record is discarded");
        assert_eq!(g2.pending(), 3, "the intact prefix survives");
        for seq in 0..3u64 {
            match g2.read_path(oid(seq), 0, 64) {
                ReadPath::FromLog(d) => assert_eq!(d, vec![seq as u8; 64]),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The truncated ring accepts fresh appends and re-recovers cleanly.
        let mut g2 = g2;
        g2.append(&mut nvm, write_txn(9, oid(9), 0, vec![9u8; 64]))
            .unwrap();
        nvm.reboot();
        let (g3, d3) = GroupLog::recover_truncating(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
        assert_eq!(d3, 0);
        assert_eq!(g3.pending(), 4);
    }

    #[test]
    fn empty_log_tear_is_a_noop() {
        let (mut nvm, g) = fresh();
        assert!(!g.tear_tail(&mut nvm).unwrap());
    }

    #[test]
    fn nvm_exhaustion_surfaces_no_space() {
        let mut nvm = NvmRegion::new(4096);
        let mut g = GroupLog::format(&mut nvm, GroupId(1), 0, 4096, 1000).unwrap();
        let mut filled = 0;
        loop {
            match g.append(&mut nvm, write_txn(filled, oid(0), 0, vec![0; 256])) {
                Ok(_) => filled += 1,
                Err(StoreError::NoSpace) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(filled > 5, "filled {filled} records first");
        // Draining makes room again.
        g.drain_for_flush(&mut nvm, 2).unwrap();
        g.append(&mut nvm, write_txn(999, oid(0), 0, vec![0; 256]))
            .unwrap();
    }

    fn block_txn(seq: u64) -> Transaction {
        let data: Vec<u8> = (0..4096).map(|i| (i as u64 * seq) as u8).collect();
        write_txn(seq, oid(seq), 8192, data)
    }

    #[test]
    fn fits_tells_exactly_whether_append_finds_room() {
        let mut nvm = NvmRegion::new(8192);
        let mut g = GroupLog::format(&mut nvm, GroupId(1), 0, 8192, 1000).unwrap();
        let mut seq = 0;
        for len in [
            700, 0, 511, 512, 1500, 3000, 90, 2000, 1, 400, 300, 200, 100,
        ] {
            seq += 1;
            let txn = write_txn(seq, oid(0), 0, vec![7; len]);
            let fits = g.fits(&txn);
            let got = g.append(&mut nvm, txn);
            assert_eq!(got.is_ok(), fits, "payload of {len} bytes");
            if !fits {
                assert_eq!(got, Err(StoreError::NoSpace));
                g.drain_for_flush(&mut nvm, 1).unwrap();
            }
        }
        assert!(
            g.pending() > 0 && g.pending() < 13,
            "both outcomes were met"
        );
    }

    #[test]
    fn flush_window_keeps_submitted_records_until_it_closes() {
        let (mut nvm, mut g) = fresh();
        let first: Vec<Transaction> = (1..=5).map(block_txn).collect();
        for txn in &first {
            g.append(&mut nvm, txn.clone()).unwrap();
        }
        let through = g.version();
        // Opening the window shares the transactions; nothing moves.
        assert_eq!(g.begin_flush(), first);
        assert_eq!(g.pending(), 5);
        let exported = g.export_records();
        let txns: Vec<Transaction> = exported.iter().map(|r| r.txn.clone()).collect();
        assert_eq!(txns, first, "still the mirror's");
        assert_eq!(exported[4].version, through);
        for (back, txn) in txns.iter().zip(&first) {
            let (Op::Write { data: back, .. }, Op::Write { data, .. }) =
                (&back.ops[0], &txn.ops[0])
            else {
                unreachable!()
            };
            assert!(std::ptr::eq(back.as_ptr(), data.as_ptr()), "by reference");
        }
        match g.read_path(oid(3), 8192 + 100, 50) {
            ReadPath::FromLog(data) => {
                let Op::Write { data: written, .. } = &first[2].ops[0] else {
                    unreachable!()
                };
                assert!(std::ptr::eq(data.as_ptr(), written[100..].as_ptr()));
            }
            other => panic!("a submitted write still answers reads, got {other:?}"),
        }
        // Appends inside the window queue up behind the submitted records.
        let later: Vec<Transaction> = (6..=8).map(block_txn).collect();
        for txn in &later {
            g.append(&mut nvm, txn.clone()).unwrap();
        }
        let all: Vec<Transaction> = first.iter().chain(&later).cloned().collect();
        let whole = g.export_records();
        assert_eq!(whole.iter().map(|r| r.txn.clone()).collect::<Vec<_>>(), all);
        // A crash inside the window loses nothing: NVM holds all eight.
        let mut crashed = nvm.clone();
        crashed.reboot();
        let recovered = GroupLog::recover(&mut crashed, GroupId(1), 0, 1 << 20, 16).unwrap();
        assert_eq!(recovered.export_records(), whole);
        // Closing the window releases the submitted records and only them.
        assert_eq!(g.drain_through_version(&mut nvm, through).unwrap(), 5);
        assert_eq!(g.pending(), 3);
        assert_eq!(g.read_path(oid(3), 8192, 1), ReadPath::Store);
        assert_eq!(g.drain_for_flush(&mut nvm, usize::MAX).unwrap(), later);
        assert_eq!(g.nvm_used(), 0);
    }

    #[test]
    fn full_ring_drain_inside_a_window_returns_submitted_records_too() {
        let (mut nvm, mut g) = fresh();
        let txns: Vec<Transaction> = (1..=6).map(block_txn).collect();
        for txn in &txns[..4] {
            g.append(&mut nvm, txn.clone()).unwrap();
        }
        let through = g.version();
        g.begin_flush();
        for txn in &txns[4..] {
            g.append(&mut nvm, txn.clone()).unwrap();
        }
        // The synchronous-flush fallback drains everything, in log order;
        // the late completion of the window then finds nothing of its own.
        assert_eq!(g.drain_for_flush(&mut nvm, usize::MAX).unwrap(), txns);
        assert_eq!(g.drain_through_version(&mut nvm, through).unwrap(), 0);
    }

    #[test]
    fn rot_under_any_queued_record_is_latent_until_a_reboot() {
        let txns: Vec<Transaction> = (1..=4).map(block_txn).collect();
        // The second record, inside the window, or the fourth, after it.
        for rotted in [1u64, 3] {
            let (mut nvm, mut g) = fresh();
            for txn in &txns[..3] {
                g.append(&mut nvm, txn.clone()).unwrap();
            }
            assert_eq!(g.begin_flush(), txns[..3]);
            g.append(&mut nvm, txns[3].clone()).unwrap();
            let record = g.nvm_used() / 4;
            assert!(g
                .rot_bit(&mut nvm, rotted * record + record / 2, 3)
                .unwrap());
            assert_eq!(g.begin_flush(), txns);
            let exported: Vec<Transaction> =
                g.export_records().into_iter().map(|r| r.txn).collect();
            assert_eq!(exported, txns);
            let mut crashed = nvm.clone();
            assert_eq!(g.drain_for_flush(&mut nvm, usize::MAX).unwrap(), txns);
            // A reboot reads the ring, and cuts at the rotted record.
            crashed.reboot();
            let (g2, discarded) =
                GroupLog::recover_truncating(&mut crashed, GroupId(1), 0, 1 << 20, 16).unwrap();
            assert_eq!(discarded, (4 - rotted) * record);
            let kept: Vec<Transaction> = g2.export_records().into_iter().map(|r| r.txn).collect();
            assert_eq!(kept, txns[..rotted as usize]);
        }
    }

    /// Encodings of log records made on this thread so far.
    fn encodes() -> usize {
        crate::entry::ENCODES.with(std::cell::Cell::get)
    }

    /// The queued records' bytes, as `LogRecord::encode` gives them.
    fn queued_encodings(g: &GroupLog) -> Vec<u8> {
        g.records.iter().flat_map(|p| p.record.encode()).collect()
    }

    #[test]
    fn the_ring_encodes_a_record_only_when_its_bytes_are_read_and_then_once() {
        // A ring of about fifteen 4 KiB records, lapped many times over.
        let len = 64 << 10;
        let mut nvm = NvmRegion::new(len);
        let mut g = GroupLog::format(&mut nvm, GroupId(1), 0, len, 16).unwrap();
        let before = encodes();
        let mut seq = 0;
        for round in 0..60 {
            for _ in 0..7 {
                seq += 1;
                g.append(&mut nvm, block_txn(seq)).unwrap();
            }
            if round % 3 == 0 {
                let through = g.version();
                assert_eq!(g.begin_flush().len(), g.pending());
                g.export_records();
                g.drain_through_version(&mut nvm, through).unwrap();
            } else {
                g.drain_for_flush(&mut nvm, 5).unwrap();
            }
        }
        assert!(nvm.bytes_written() > 20 * len, "the ring went round");
        assert_eq!(encodes(), before, "appends and drains encode nothing");
        // Reading the ring encodes each queued record once, and keeps it.
        let queued = g.pending();
        assert!(queued > 2);
        let expected = queued_encodings(&g);
        assert_eq!(g.ring.queued_bytes(&mut nvm).unwrap(), expected);
        assert_eq!(encodes(), before + queued);
        assert_eq!(g.ring.queued_bytes(&mut nvm).unwrap(), expected);
        assert_eq!(encodes(), before + queued, "each encoding kept");
        // Tearing the tail or rotting a bit reads the record it damages,
        // encoding it once; the rest of its bytes are that encoding.
        for tear in [true, false] {
            let (mut nvm, mut g) = fresh();
            for seq in 1..=4 {
                g.append(&mut nvm, block_txn(seq)).unwrap();
            }
            let before = encodes();
            let mut expected = queued_encodings(&g);
            let record = expected.len() / 4;
            if tear {
                assert!(g.tear_tail(&mut nvm).unwrap());
                let newest = &mut expected[3 * record..];
                newest[record - record / 2..]
                    .iter_mut()
                    .for_each(|b| *b ^= 0xFF);
            } else {
                let nth = 2 * record + record / 3;
                assert!(g.rot_bit(&mut nvm, nth as u64, 6).unwrap());
                expected[nth] ^= 1 << 6;
            }
            assert_eq!(encodes(), before + 1, "the damaged record, once");
            assert_eq!(g.ring.queued_bytes(&mut nvm).unwrap(), expected);
            assert_eq!(encodes(), before + 4, "then the three others");
        }
    }

    #[test]
    fn damage_inside_a_by_reference_payload_is_caught_and_never_reaches_the_writer() {
        for tear in [false, true] {
            let (mut nvm, mut g) = fresh();
            let txns: Vec<Transaction> = (1..=4).map(block_txn).collect();
            let before: Vec<Vec<u8>> = txns
                .iter()
                .map(|t| match &t.ops[0] {
                    Op::Write { data, .. } => data.to_vec(),
                    _ => unreachable!(),
                })
                .collect();
            for txn in &txns {
                g.append(&mut nvm, txn.clone()).unwrap();
            }
            let record = g.nvm_used() / 4;
            let survivors = if tear {
                // The second half of the newest record: all payload.
                assert!(g.tear_tail(&mut nvm).unwrap());
                3
            } else {
                // One bit in the middle of the third record's payload.
                assert!(g.rot_bit(&mut nvm, 2 * record + record / 2, 5).unwrap());
                2
            };
            for (txn, then) in txns.iter().zip(&before) {
                let Op::Write { data, .. } = &txn.ops[0] else {
                    unreachable!()
                };
                assert_eq!(data, then, "the writer's buffer is not the log's to damage");
            }
            match g.read_path(oid(4), 8192, 4096) {
                ReadPath::FromLog(data) => assert_eq!(data, before[3]),
                other => panic!("the mirror stays clean, got {other:?}"),
            }
            nvm.reboot();
            assert!(matches!(
                GroupLog::recover(&mut nvm, GroupId(1), 0, 1 << 20, 16),
                Err(StoreError::Corrupt(_))
            ));
            let (g2, discarded) =
                GroupLog::recover_truncating(&mut nvm, GroupId(1), 0, 1 << 20, 16).unwrap();
            assert_eq!(discarded, (4 - survivors) * record);
            let kept: Vec<Transaction> = g2.export_records().into_iter().map(|r| r.txn).collect();
            assert_eq!(kept, txns[..survivors as usize]);
        }
    }

    #[test]
    fn peer_import_replicates_state() {
        let (mut nvm_a, mut a) = fresh();
        for seq in 0..5 {
            a.append(&mut nvm_a, write_txn(seq, oid(seq), 0, vec![9; 64]))
                .unwrap();
        }
        let mut nvm_b = NvmRegion::new(1 << 20);
        let mut b = GroupLog::format(&mut nvm_b, GroupId(1), 0, 1 << 20, 16).unwrap();
        let exported = a.export_records();
        b.import_records(&mut nvm_b, &exported).unwrap();
        assert_eq!(b.pending(), 5);
        assert_eq!(b.export_records(), exported);
        assert!(
            b.import_records(&mut nvm_b, &exported).is_err(),
            "non-empty import rejected"
        );
    }
}
