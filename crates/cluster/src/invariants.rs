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
//! or the fill of a still-pending (issued, unacked) write.
//!
//! Violations panic with a precise description, so a failing seeded chaos
//! run is its own reproducer.

use std::collections::HashMap;

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
    /// does not correspond to the last acked write or a still-pending write.
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
        let legal = match block {
            // Never written: any fill would be suspect, but drivers only
            // read written blocks; an untracked block accepts zeros.
            None => fill == 0,
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

/// One replica's object listing for divergence checking: a display label
/// plus `(raw object id, content digest)` pairs, `None` digest meaning the
/// replica could not serve the object.
pub type ReplicaListing = (String, Vec<(u64, Option<u64>)>);

/// Compares per-replica `(object, digest)` listings and describes every
/// object whose content differs between replicas. Each listing is a
/// `(label, entries)` pair; a `None` digest means the replica could not
/// serve the object at all. The first listing is the reference. Returns
/// one description per divergent object; empty means byte-identical
/// replicas (under a collision-resistant digest).
///
/// Post-quiesce recovery checks use this: after faults stop and recovery
/// converges, every acting-set member must produce identical listings.
pub fn diff_replica_digests(replicas: &[ReplicaListing]) -> Vec<String> {
    diff_listings(
        replicas,
        |&entry| entry,
        |oid, label, got, ref_label, reference| {
            format!("object {oid:#x}: {label} has {got:?}, {ref_label} has {reference:?}")
        },
    )
}

/// The diff both replica checks share: every object any listing names, in
/// id order, each replica's value (`None` when it lacks the object or
/// cannot serve it) against the first listing's, one `describe(oid, label,
/// got, ref_label, reference)` per disagreement.
fn diff_listings<E, T: Copy + PartialEq>(
    replicas: &[(String, Vec<E>)],
    value: impl Fn(&E) -> (u64, Option<T>),
    describe: impl Fn(u64, &str, Option<T>, &str, Option<T>) -> String,
) -> Vec<String> {
    let mut out = Vec::new();
    let Some((ref_label, _)) = replicas.first() else {
        return out;
    };
    let maps: Vec<HashMap<u64, Option<T>>> = replicas
        .iter()
        .map(|(_, entries)| entries.iter().map(&value).collect())
        .collect();
    let mut oids: Vec<u64> = maps.iter().flat_map(|m| m.keys().copied()).collect();
    oids.sort_unstable();
    oids.dedup();
    for oid in oids {
        let reference = maps[0].get(&oid).copied().flatten();
        for ((label, _), map) in replicas.iter().zip(&maps).skip(1) {
            let got = map.get(&oid).copied().flatten();
            if got != reference {
                out.push(describe(oid, label, got, ref_label, reference));
            }
        }
    }
    out
}

/// One replica's persistent-checksum listing for consistency checking: a
/// display label plus `(raw object id, size, checksum-vector digest)`
/// triples as reported by the backend's light-scrub metadata (no data
/// blocks are read to produce one).
pub type DigestListing = (String, Vec<(u64, u64, u64)>);

/// Replica digest consistency: every acting-set member must persist the
/// same `(size, checksum-vector digest)` for every object of the group.
/// Returns one description per disagreeing object; empty means the
/// persistent checksum metadata is identical across replicas.
///
/// This is the *metadata* companion to [`diff_replica_digests`]: it
/// compares what the checksums say the content is, without reading any
/// data, so it is cheap enough to assert at quiesce in every chaos and
/// churn property test. Note the deliberate blind spot: bit rot under a
/// correct checksum vector is invisible here (the checksums still describe
/// the originally-written bytes) — that is exactly the gap deep scrub
/// closes by re-reading data.
pub fn replica_digest_consistency(replicas: &[DigestListing]) -> Vec<String> {
    let value = |&(oid, size, digest): &(u64, u64, u64)| (oid, Some((size, digest)));
    diff_listings(replicas, value, |oid, label, got, ref_label, reference| {
        format!(
            "object {oid:#x}: {label} persists (size, csum digest) {got:?}, \
             {ref_label} persists {reference:?}"
        )
    })
}

/// Relative capacity imbalance across a set of OSD fill levels: the largest
/// deviation from the mean fill, as a fraction of the mean
/// (`(max_fill - mean) / mean`). Returns 0.0 when the set is empty or holds
/// no bytes at all (an empty cluster is perfectly balanced).
///
/// Pass the fill of *placement-eligible* OSDs only — drained and removed
/// OSDs legitimately hold stale bytes while their groups hand off.
pub fn capacity_imbalance(fills: &[u64]) -> f64 {
    match (mean_fill(fills), fills.iter().max()) {
        (Some(mean), Some(&max)) => (max as f64 - mean) / mean,
        _ => 0.0,
    }
}

/// The mean fill, `None` when the set holds no bytes at all.
fn mean_fill(fills: &[u64]) -> Option<f64> {
    let total: u64 = fills.iter().sum();
    (total > 0).then(|| total as f64 / fills.len() as f64)
}

/// Asserts the capacity-imbalance invariant after quiesce: no OSD may
/// exceed the mean fill by more than `tolerance` (e.g. 1.0 = 100% over
/// mean). Returns one description per violation; empty means balanced.
pub fn check_capacity_imbalance(fills: &[u64], tolerance: f64) -> Vec<String> {
    let Some(mean) = mean_fill(fills) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, &fill) in fills.iter().enumerate() {
        let dev = (fill as f64 - mean) / mean;
        if dev > tolerance {
            out.push(format!(
                "osd index {i}: fill {fill} exceeds mean {mean:.0} by {:.0}% \
                 (tolerance {:.0}%)",
                dev * 100.0,
                tolerance * 100.0
            ));
        }
    }
    out
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

    #[test]
    fn identical_replica_digests_diff_clean() {
        let replicas = vec![
            ("osd0".to_string(), vec![(1, Some(10)), (2, Some(20))]),
            ("osd1".to_string(), vec![(2, Some(20)), (1, Some(10))]),
        ];
        assert!(diff_replica_digests(&replicas).is_empty());
    }

    #[test]
    fn divergent_and_missing_objects_are_described() {
        let replicas = vec![
            ("osd0".to_string(), vec![(1, Some(10)), (2, Some(20))]),
            ("osd1".to_string(), vec![(1, Some(11))]),
        ];
        let diffs = diff_replica_digests(&replicas);
        // Object 1 differs, object 2 is absent on osd1.
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("object 0x1"), "{diffs:?}");
        assert!(diffs[1].contains("object 0x2"), "{diffs:?}");
    }

    #[test]
    fn unreadable_on_both_sides_is_not_divergence() {
        let replicas = vec![
            ("osd0".to_string(), vec![(1, None)]),
            ("osd1".to_string(), vec![(1, None)]),
        ];
        assert!(diff_replica_digests(&replicas).is_empty());
    }

    #[test]
    fn digest_consistency_flags_size_and_digest_drift() {
        let replicas = vec![
            ("osd0".to_string(), vec![(1, 4096, 10), (2, 8192, 20)]),
            ("osd1".to_string(), vec![(1, 4096, 10), (2, 8192, 20)]),
        ];
        assert!(replica_digest_consistency(&replicas).is_empty());
        let replicas = vec![
            ("osd0".to_string(), vec![(1, 4096, 10), (2, 8192, 20)]),
            ("osd1".to_string(), vec![(1, 8192, 10), (2, 8192, 21)]),
        ];
        let diffs = replica_digest_consistency(&replicas);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        let replicas = vec![
            ("osd0".to_string(), vec![(1, 4096, 10)]),
            ("osd1".to_string(), Vec::new()),
        ];
        assert_eq!(replica_digest_consistency(&replicas).len(), 1);
    }

    #[test]
    fn capacity_imbalance_measures_max_deviation_from_mean() {
        assert_eq!(capacity_imbalance(&[]), 0.0);
        assert_eq!(capacity_imbalance(&[0, 0, 0]), 0.0);
        assert_eq!(capacity_imbalance(&[100, 100, 100]), 0.0);
        // Mean 100, max 150 → 50% over mean.
        let im = capacity_imbalance(&[50, 100, 150]);
        assert!((im - 0.5).abs() < 1e-9, "{im}");
        assert!(check_capacity_imbalance(&[50, 100, 150], 0.6).is_empty());
        let violations = check_capacity_imbalance(&[50, 100, 150], 0.4);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("osd index 2"), "{violations:?}");
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
