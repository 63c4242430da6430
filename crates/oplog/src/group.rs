//! Per-logical-group operation log + index cache.
//!
//! The two data structures of §IV-A: the *operation log* stores incoming
//! operations sequentially (a producer/consumer buffer between priority and
//! non-priority threads), and the *index cache* tracks the recent writes per
//! object id so reads can be answered with strong consistency. Index entries
//! are never overwritten — each one tracks one operation in the log
//! (paper: "We do not overwrite them").

use std::collections::{HashMap, VecDeque};

use rablock_storage::{GroupId, NvmRegion, ObjectId, Op, Payload, StoreError, Transaction};

use crate::entry::LogRecord;
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
    /// Length of the write (0 for non-write ops).
    pub len: u64,
    /// Index of the op inside the logged transaction.
    pub op_index: usize,
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

/// The operation log and index cache of one logical group.
#[derive(Debug, Clone)]
pub struct GroupLog {
    group: GroupId,
    ring: NvmRing,
    /// Decoded mirror of the ring: `(record, encoded_len)` in log order.
    /// A deque so the flush path's FIFO drain is O(1) per record.
    records: VecDeque<(LogRecord, u64)>,
    /// Recent operations per object (never overwritten, only appended).
    index: HashMap<u64, Vec<IndexEntry>>,
    /// Flush once this many records are pending (paper default: 16).
    pub flush_threshold: usize,
    /// Group version, bumped per append (§IV-C-7: kept in the log).
    version: u64,
    /// The record being framed; kept so appends do not allocate.
    scratch: Vec<u8>,
}

impl GroupLog {
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
        Ok(GroupLog {
            group,
            ring: NvmRing::format(nvm, base, len)?,
            records: VecDeque::new(),
            index: HashMap::new(),
            flush_threshold,
            version: 0,
            scratch: Vec::new(),
        })
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
        let ring = NvmRing::open(nvm, base, len)?;
        let raw = ring.queued_bytes(nvm)?;
        let mut g = GroupLog {
            group,
            ring,
            records: VecDeque::new(),
            index: HashMap::new(),
            flush_threshold,
            version: 0,
            scratch: Vec::new(),
        };
        let mut pos = 0usize;
        while pos < raw.len() {
            let (rec, consumed) = LogRecord::decode(&raw[pos..])?;
            g.version = g.version.max(rec.version);
            g.index_record(&rec);
            g.records.push_back((rec, consumed as u64));
            pos += consumed;
        }
        Ok(g)
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
        let mut ring = NvmRing::open(nvm, base, len)?;
        let raw = ring.queued_bytes(nvm)?;
        let mut g = GroupLog {
            group,
            ring: ring.clone(),
            records: VecDeque::new(),
            index: HashMap::new(),
            flush_threshold,
            version: 0,
            scratch: Vec::new(),
        };
        let mut pos = 0usize;
        while pos < raw.len() {
            match LogRecord::decode(&raw[pos..]) {
                Ok((rec, consumed)) => {
                    g.version = g.version.max(rec.version);
                    g.index_record(&rec);
                    g.records.push_back((rec, consumed as u64));
                    pos += consumed;
                }
                Err(_) => break, // torn tail: keep the valid prefix
            }
        }
        let discarded = (raw.len() - pos) as u64;
        if discarded > 0 {
            ring.truncate_head(nvm, pos as u64)?;
            g.ring = ring;
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
        let Some((_, encoded_len)) = self.records.back() else {
            return Ok(false);
        };
        self.ring.corrupt_suffix(nvm, encoded_len / 2)?;
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

    fn index_record(&mut self, rec: &LogRecord) {
        for (op_index, op) in rec.txn.ops.iter().enumerate() {
            let (oid, kind, offset, len) = match op {
                Op::Write { oid, offset, data } => {
                    (*oid, IndexKind::Write, *offset, data.len() as u64)
                }
                Op::SetXattr { oid, .. } => (*oid, IndexKind::Xattr, 0, 0),
                Op::Create { oid, .. } => (*oid, IndexKind::Create, 0, 0),
                Op::Delete { oid } => (*oid, IndexKind::Delete, 0, 0),
                Op::MetaPut { .. } | Op::MetaDelete { .. } => continue,
            };
            self.index.entry(oid.raw()).or_default().push(IndexEntry {
                kind,
                version: rec.version,
                seq: rec.seq,
                offset,
                len,
                op_index,
            });
        }
    }

    /// Appends a transaction to the log (the priority thread's W1+W2).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when NVM is full — the caller must flush
    /// synchronously and retry (the paper's degenerate case).
    pub fn append(
        &mut self,
        nvm: &mut NvmRegion,
        txn: Transaction,
    ) -> Result<AppendOutcome, StoreError> {
        debug_assert_eq!(txn.group, self.group, "transaction routed to wrong group");
        self.version += 1;
        let rec = LogRecord {
            version: self.version,
            seq: txn.seq,
            txn,
        };
        rec.encode_into(&mut self.scratch);
        let nvm_bytes = self.scratch.len() as u64;
        if let Err(e) = self.ring.append(nvm, &self.scratch) {
            self.version -= 1;
            return Err(e);
        }
        self.index_record(&rec);
        self.records.push_back((rec, nvm_bytes));
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
        if entries.is_empty() {
            return ReadPath::Store;
        }
        // Pending deletes or creates change object existence/size: always
        // flush before reading. Xattr updates never affect data reads.
        if entries
            .iter()
            .any(|e| matches!(e.kind, IndexKind::Delete | IndexKind::Create))
        {
            return ReadPath::FlushThenStore;
        }
        let writes: Vec<&IndexEntry> = entries
            .iter()
            .filter(|e| e.kind == IndexKind::Write)
            .collect();
        let Some(newest) = writes.last() else {
            return ReadPath::Store; // only xattr updates pending
        };
        // The newest write must fully cover the request ("if the length of
        // the request is not larger than it of the log entry") and be the
        // only pending write — otherwise older pending writes below could
        // matter after a flush.
        let covers = newest.offset <= offset && offset + len <= newest.offset + newest.len;
        if covers && writes.len() == 1 {
            let (rec, _) = self
                .records
                .iter()
                .find(|(r, _)| r.seq == newest.seq)
                .expect("index entry references live record");
            if let Op::Write {
                offset: woff, data, ..
            } = &rec.txn.ops[newest.op_index]
            {
                let from = (offset - woff) as usize;
                return ReadPath::FromLog(data.slice(from, len as usize));
            }
        }
        ReadPath::FlushThenStore
    }

    /// Drains up to `max` oldest records for flushing to the backend store
    /// (the non-priority thread's batch). Index entries and NVM space are
    /// released; the paper then deletes the corresponding store state.
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
        self.drain_front(nvm, n)
    }

    /// Drains every record whose log version is at most `version` (records
    /// are version-ordered, oldest first). A flush completion uses this
    /// with the version observed when the batch was exported, so records
    /// appended — or drained by another path — while the flush was in
    /// flight are never discarded by mistake; a count would be.
    ///
    /// # Errors
    ///
    /// Propagates NVM header-update errors.
    pub fn drain_through_version(
        &mut self,
        nvm: &mut NvmRegion,
        version: u64,
    ) -> Result<Vec<Transaction>, StoreError> {
        let n = self
            .records
            .iter()
            .take_while(|(r, _)| r.version <= version)
            .count();
        self.drain_front(nvm, n)
    }

    fn drain_front(
        &mut self,
        nvm: &mut NvmRegion,
        n: usize,
    ) -> Result<Vec<Transaction>, StoreError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(n);
        let mut drained = 0u64;
        for _ in 0..n {
            let (rec, encoded_len) = self.records.pop_front().expect("n <= records.len()");
            drained += encoded_len;
            for op in &rec.txn.ops {
                let oid = match op {
                    Op::Write { oid, .. }
                    | Op::Create { oid, .. }
                    | Op::Delete { oid }
                    | Op::SetXattr { oid, .. } => *oid,
                    _ => continue,
                };
                if let Some(entries) = self.index.get_mut(&oid.raw()) {
                    entries.retain(|e| e.seq != rec.seq);
                    if entries.is_empty() {
                        self.index.remove(&oid.raw());
                    }
                }
            }
            out.push(rec.txn);
        }
        // One tail advance (and one persisted header write) for the whole
        // batch — group commit on the consume side.
        self.ring.consume(nvm, drained)?;
        Ok(out)
    }

    /// Exports every pending record (peer recovery, §IV-A-4 step ⑤).
    pub fn export_records(&self) -> Vec<LogRecord> {
        self.records.iter().map(|(r, _)| r.clone()).collect()
    }

    /// Imports records from a peer into an empty log (replacement node
    /// synchronization, §IV-A-4 steps ⑥–⑦).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidArgument`] if this log is not empty;
    /// [`StoreError::NoSpace`] if NVM cannot hold the records.
    pub fn import_records(
        &mut self,
        nvm: &mut NvmRegion,
        records: Vec<LogRecord>,
    ) -> Result<(), StoreError> {
        if !self.records.is_empty() {
            return Err(StoreError::InvalidArgument(
                "importing into a non-empty operation log".into(),
            ));
        }
        // All-or-nothing batch append: one persisted header write covers the
        // whole import, and a NoSpace failure leaves the log untouched.
        let encoded: Vec<Vec<u8>> = records.iter().map(LogRecord::encode).collect();
        self.ring.append_batch(nvm, &encoded)?;
        for (rec, raw) in records.into_iter().zip(encoded) {
            self.version = self.version.max(rec.version);
            self.index_record(&rec);
            self.records.push_back((rec, raw.len() as u64));
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

    #[test]
    fn peer_import_replicates_state() {
        let (mut nvm_a, mut a) = fresh();
        for seq in 0..5 {
            a.append(&mut nvm_a, write_txn(seq, oid(seq), 0, vec![9; 64]))
                .unwrap();
        }
        let mut nvm_b = NvmRegion::new(1 << 20);
        let mut b = GroupLog::format(&mut nvm_b, GroupId(1), 0, 1 << 20, 16).unwrap();
        b.import_records(&mut nvm_b, a.export_records()).unwrap();
        assert_eq!(b.pending(), 5);
        assert_eq!(b.export_records(), a.export_records());
        assert!(
            b.import_records(&mut nvm_b, a.export_records()).is_err(),
            "non-empty import rejected"
        );
    }
}
