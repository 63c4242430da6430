//! History invariant checking for fault-injection runs.
//!
//! [`HistoryChecker`] records every acked write and every completed read,
//! per object block, and asserts two safety properties across arbitrary
//! fault schedules:
//!
//! * **No acked write is lost** — once a write is acknowledged, every later
//!   read of that block returns its data (until a newer write supersedes it).
//! * **Read-your-writes** — a read never returns data from a write that was
//!   neither acknowledged nor still in flight at read completion, and never
//!   returns torn (mixed-fill) data.
//!
//! The checker assumes the workload discipline the drivers' verification
//! workloads follow: writes fill a whole `(object, offset, len)` block with
//! one byte value, and each block has at most one writer at a time (blocks
//! are partitioned across client connections). Under that discipline the
//! legal values of a block at any instant are exactly: the last acked fill,
//! or the fill of a still-pending (issued, unacked) write. A block of a
//! prefilled object (see [`HistoryChecker::prefilled`]) starts as zeros, so
//! until a write to it is acked zeros are legal too.
//!
//! Violations panic with a precise description, so a failing seeded chaos
//! run is its own reproducer.

use std::collections::{HashMap, HashSet};

use crate::msg::{ClientId, OpId};
use rablock_storage::ObjectId;

/// One block's verification state.
#[derive(Debug, Default, Clone)]
struct BlockState {
    /// Fill byte of the newest acknowledged write, if any.
    last_acked: Option<u8>,
    /// Issued-but-unacked writes: `(client, op, fill)`.
    pending: Vec<(ClientId, OpId, u8)>,
}

/// Block key: `(object, offset, len)`.
type BlockKey = (u64, u64, u64);

/// Records acked writes and completed reads; panics on a safety violation.
#[derive(Debug, Default, Clone)]
pub struct HistoryChecker {
    blocks: HashMap<BlockKey, BlockState>,
    /// Issued writes by `(client, op)`, for ack resolution.
    ops: HashMap<(u32, u64), BlockKey>,
    /// Raw ids of the objects the run prefilled with zeros.
    prefilled: HashSet<u64>,
    /// Completed reads checked so far.
    reads_checked: u64,
    /// Writes acked so far.
    writes_acked: u64,
}

impl HistoryChecker {
    /// A fresh checker with no recorded history.
    pub fn new() -> Self {
        HistoryChecker::default()
    }

    fn key(oid: ObjectId, offset: u64, len: u64) -> BlockKey {
        (oid.raw(), offset, len)
    }

    /// Records that `oid` was created zero-filled before the run: each of its
    /// blocks holds zeros until a write to it is acked.
    pub fn prefilled(&mut self, oid: ObjectId) {
        self.prefilled.insert(oid.raw());
    }

    /// Records that `client` issued write `op` filling the block with `fill`.
    pub fn write_issued(
        &mut self,
        client: ClientId,
        op: OpId,
        oid: ObjectId,
        offset: u64,
        len: u64,
        fill: u8,
    ) {
        let key = Self::key(oid, offset, len);
        self.ops.insert((client.0, op.0), key);
        let block = self.blocks.entry(key).or_default();
        block
            .pending
            .retain(|(c, o, _)| !(*c == client && *o == op));
        block.pending.push((client, op, fill));
    }

    /// Records that write `op` from `client` was acknowledged. Idempotent:
    /// a duplicate ack (retried op) leaves state unchanged.
    pub fn write_acked(&mut self, client: ClientId, op: OpId) {
        let Some(key) = self.ops.get(&(client.0, op.0)).copied() else {
            return; // not a tracked write (read op, or duplicate after cleanup)
        };
        let block = self.blocks.get_mut(&key).expect("issued write has a block");
        if let Some(pos) = block
            .pending
            .iter()
            .position(|(c, o, _)| *c == client && *o == op)
        {
            let (_, _, fill) = block.pending.remove(pos);
            block.last_acked = Some(fill);
            self.writes_acked += 1;
        }
    }

    /// Checks a completed read of the block against the recorded history.
    ///
    /// # Panics
    ///
    /// Panics if the data is torn (not a single fill byte) or the fill value
    /// does not correspond to the last acked write, a still-pending write,
    /// or, before any write to it is acked, the block's initial zeros.
    pub fn read_checked(&mut self, oid: ObjectId, offset: u64, len: u64, data: &[u8]) {
        self.reads_checked += 1;
        assert_eq!(
            data.len() as u64,
            len,
            "short read of {oid:?} [{offset}, +{len}): got {} bytes",
            data.len()
        );
        let fill = data.first().copied().unwrap_or(0);
        assert!(
            data.iter().all(|&b| b == fill),
            "torn read of {oid:?} [{offset}, +{len}): mixed fill bytes"
        );
        let block = self.blocks.get(&Self::key(oid, offset, len));
        let initial = fill == 0 && self.prefilled.contains(&oid.raw());
        let legal = match block {
            // Never written: any fill would be suspect, but drivers only
            // read written blocks; an untracked block accepts zeros.
            None => fill == 0,
            Some(b) if b.last_acked.is_none() && initial => true,
            Some(b) => b.last_acked == Some(fill) || b.pending.iter().any(|(_, _, f)| *f == fill),
        };
        assert!(
            legal,
            "history violation reading {oid:?} [{offset}, +{len}): saw fill {fill:#x}, \
             last acked {:?}, pending {:?} — an acked write was lost or a stale \
             value resurfaced",
            block.and_then(|b| b.last_acked),
            block.map(|b| b.pending.iter().map(|(_, _, f)| *f).collect::<Vec<_>>()),
        );
    }

    /// Number of reads validated so far.
    pub fn reads_checked(&self) -> u64 {
        self.reads_checked
    }

    /// Number of write acks recorded so far.
    pub fn writes_acked(&self) -> u64 {
        self.writes_acked
    }
}

/// One replica's copy of one object, as the quiesce check compares it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectCopy {
    /// Digest of the bytes the replica serves; `None` when it cannot serve
    /// them.
    pub content: Option<u64>,
    /// The persisted `(size, checksum-vector digest)`, read from metadata
    /// alone; `None` when the backend keeps no checksums or the replica does
    /// not track the object.
    pub csum: Option<(u64, u64)>,
}

/// One replica's listing: a display label plus `(raw object id, copy)`
/// pairs.
pub type ReplicaListing = (String, Vec<(u64, ObjectCopy)>);

/// Compares per-replica listings and describes every object whose copies
/// differ, by content or by persisted checksum metadata. The first listing
/// is the reference; an object a listing does not name counts as a copy
/// with neither value. Returns one description per differing copy, in
/// object order; empty means the replicas are byte-identical (under a
/// collision-resistant digest) and persist the same checksums.
///
/// The two halves see different faults: bit rot under a correct checksum
/// vector leaves the metadata equal (the checksums still describe the
/// bytes written) and shows only in the content digest, which re-reads
/// the data, as deep scrub does.
pub fn diff_replica_digests(replicas: &[ReplicaListing]) -> Vec<String> {
    let mut out = Vec::new();
    let Some((ref_label, _)) = replicas.first() else {
        return out;
    };
    let maps: Vec<HashMap<u64, ObjectCopy>> = replicas
        .iter()
        .map(|(_, entries)| entries.iter().copied().collect())
        .collect();
    let mut oids: Vec<u64> = maps.iter().flat_map(|m| m.keys().copied()).collect();
    oids.sort_unstable();
    oids.dedup();
    for oid in oids {
        let reference = maps[0].get(&oid).copied().unwrap_or_default();
        for ((label, _), map) in replicas.iter().zip(&maps).skip(1) {
            let got = map.get(&oid).copied().unwrap_or_default();
            if got != reference {
                out.push(format!(
                    "object {oid:#x}: {label} has {got:?}, {ref_label} has {reference:?}"
                ));
            }
        }
    }
    out
}

/// Relative capacity imbalance across a set of OSD fill levels: the largest
/// deviation from the mean fill, as a fraction of the mean
/// (`(max_fill - mean) / mean`). Returns 0.0 when the set is empty or holds
/// no bytes at all (an empty cluster is perfectly balanced).
///
/// Pass the fill of *placement-eligible* OSDs only — drained and removed
/// OSDs legitimately hold stale bytes while their groups hand off.
pub fn capacity_imbalance(fills: &[u64]) -> f64 {
    let total: u64 = fills.iter().sum();
    match fills.iter().max() {
        Some(&max) if total > 0 => {
            let mean = total as f64 / fills.len() as f64;
            (max as f64 - mean) / mean
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::GroupId;

    fn oid() -> ObjectId {
        ObjectId::new(GroupId(3), 7)
    }

    #[test]
    fn acked_write_then_matching_read_passes() {
        let mut h = HistoryChecker::new();
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.write_acked(ClientId(0), OpId(1));
        h.read_checked(oid(), 0, 4, &[0xAA; 4]);
        assert_eq!(h.reads_checked(), 1);
        assert_eq!(h.writes_acked(), 1);
    }

    #[test]
    fn pending_write_value_is_legal() {
        let mut h = HistoryChecker::new();
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.write_acked(ClientId(0), OpId(1));
        h.write_issued(ClientId(0), OpId(2), oid(), 0, 4, 0xBB);
        // Both old-acked and new-pending values are linearizable outcomes.
        h.read_checked(oid(), 0, 4, &[0xAA; 4]);
        h.read_checked(oid(), 0, 4, &[0xBB; 4]);
    }

    /// A prefilled block holds zeros until a write to it is acked: a read
    /// racing the first write may see them, one after the ack may not.
    #[test]
    fn a_prefilled_block_reads_zeros_until_a_write_is_acked() {
        let mut h = HistoryChecker::new();
        h.prefilled(oid());
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.read_checked(oid(), 0, 4, &[0; 4]);
        h.read_checked(oid(), 0, 4, &[0xAA; 4]);
        let other = ObjectId::new(GroupId(3), 8);
        h.write_issued(ClientId(0), OpId(2), other, 0, 4, 0xBB);
        let unfilled = std::panic::catch_unwind(move || h.read_checked(other, 0, 4, &[0; 4]));
        assert!(
            unfilled.is_err(),
            "zeros of an object the run never prefilled"
        );
    }

    #[test]
    #[should_panic(expected = "history violation")]
    fn a_prefilled_block_with_an_acked_write_never_reads_zeros() {
        let mut h = HistoryChecker::new();
        h.prefilled(oid());
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.write_acked(ClientId(0), OpId(1));
        h.read_checked(oid(), 0, 4, &[0; 4]);
    }

    #[test]
    fn duplicate_ack_is_idempotent() {
        let mut h = HistoryChecker::new();
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.write_acked(ClientId(0), OpId(1));
        h.write_acked(ClientId(0), OpId(1));
        assert_eq!(h.writes_acked(), 1);
    }

    #[test]
    #[should_panic(expected = "history violation")]
    fn lost_acked_write_detected() {
        let mut h = HistoryChecker::new();
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.write_acked(ClientId(0), OpId(1));
        h.write_issued(ClientId(0), OpId(2), oid(), 0, 4, 0xBB);
        h.write_acked(ClientId(0), OpId(2));
        // 0xAA was superseded by an acked 0xBB: seeing it again is a loss.
        h.read_checked(oid(), 0, 4, &[0xAA; 4]);
    }

    #[test]
    #[should_panic(expected = "torn read")]
    fn torn_read_detected() {
        let mut h = HistoryChecker::new();
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0xAA);
        h.write_acked(ClientId(0), OpId(1));
        h.read_checked(oid(), 0, 4, &[0xAA, 0xAA, 0xBB, 0xAA]);
    }

    type Entry = (u64, Option<u64>, Option<(u64, u64)>);

    /// A listing of `(oid, content digest, persisted checksums)` copies.
    fn listing(label: &str, copies: &[Entry]) -> ReplicaListing {
        let copy = |&(oid, content, csum): &Entry| (oid, ObjectCopy { content, csum });
        (label.to_string(), copies.iter().map(copy).collect())
    }

    #[test]
    fn identical_replica_digests_diff_clean() {
        let replicas = vec![
            listing("osd0", &[(1, Some(10), None), (2, Some(20), None)]),
            listing("osd1", &[(2, Some(20), None), (1, Some(10), None)]),
        ];
        assert!(diff_replica_digests(&replicas).is_empty());
    }

    #[test]
    fn divergent_and_missing_objects_are_described() {
        let replicas = vec![
            listing("osd0", &[(1, Some(10), None), (2, Some(20), None)]),
            listing("osd1", &[(1, Some(11), None)]),
        ];
        let diffs = diff_replica_digests(&replicas);
        // Object 1 differs, object 2 is absent on osd1.
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("object 0x1"), "{diffs:?}");
        assert!(diffs[1].contains("object 0x2"), "{diffs:?}");
    }

    #[test]
    fn unreadable_on_both_sides_is_not_divergence() {
        let unreadable = [(1, None, None)];
        let replicas = vec![listing("osd0", &unreadable), listing("osd1", &unreadable)];
        assert!(diff_replica_digests(&replicas).is_empty());
    }

    #[test]
    fn digest_consistency_flags_size_and_digest_drift() {
        let persisted = [
            (1, Some(7), Some((4096, 10))),
            (2, Some(7), Some((8192, 20))),
        ];
        let replicas = vec![listing("osd0", &persisted), listing("osd1", &persisted)];
        assert!(diff_replica_digests(&replicas).is_empty());
        // Equal content, drifted metadata: one description per object.
        let drifted = [
            (1, Some(7), Some((8192, 10))),
            (2, Some(7), Some((8192, 21))),
        ];
        let replicas = vec![listing("osd0", &persisted), listing("osd1", &drifted)];
        let diffs = diff_replica_digests(&replicas);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        let replicas = vec![listing("osd0", &persisted[..1]), listing("osd1", &[])];
        assert_eq!(diff_replica_digests(&replicas).len(), 1);
    }

    #[test]
    fn capacity_imbalance_measures_max_deviation_from_mean() {
        assert_eq!(capacity_imbalance(&[]), 0.0);
        assert_eq!(capacity_imbalance(&[0, 0, 0]), 0.0);
        assert_eq!(capacity_imbalance(&[100, 100, 100]), 0.0);
        // Mean 100, max 150 → 50% over mean.
        let im = capacity_imbalance(&[50, 100, 150]);
        assert!((im - 0.5).abs() < 1e-9, "{im}");
    }

    #[test]
    fn same_op_id_on_different_clients_do_not_collide() {
        let mut h = HistoryChecker::new();
        let other = ObjectId::new(GroupId(3), 8);
        h.write_issued(ClientId(0), OpId(1), oid(), 0, 4, 0x11);
        h.write_issued(ClientId(1), OpId(1), other, 0, 4, 0x22);
        h.write_acked(ClientId(0), OpId(1));
        h.read_checked(oid(), 0, 4, &[0x11; 4]);
        // Client 1's write is still pending on its own block.
        h.read_checked(other, 0, 4, &[0x22; 4]);
    }
}
