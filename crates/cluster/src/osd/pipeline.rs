//! The top half: what a priority thread does with a client request. A write
//! is admitted exactly once (the dedup windows), given a sequence number,
//! replicated, and either logged to NVM and acked (decoupled, Fig. 3-b) or
//! persisted to the backend first (coupled, Fig. 3-a); a read is answered
//! from the operation log when it can be and handed to the bottom half
//! (`flush.rs`) when it cannot.

use std::collections::VecDeque;
use std::sync::Arc;

use rablock_oplog::ReadPath;
use rablock_storage::{FxHashMap, GroupId, Op, StoreError, Transaction};

use super::flush::{DeferredRead, StoreCtx};
use super::{Osd, OsdEffect, DEDUP_WINDOW};
use crate::msg::{ClientId, ClientReply, OpId, PeerMsg};
use crate::placement::ActingSet;

/// The pg-log key of a write, `pglog.{group}.{seq}`, built without the `fmt`
/// machinery: every write takes one on every replica. The bytes are what
/// `format!` gave, since the LSM backend writes the key to its WAL.
pub(super) fn pglog_key(group: GroupId, seq: u64) -> Vec<u8> {
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

/// The backend transaction for a client mutation. A write carries the
/// metadata records Ceph attaches to every request (`object_info_t` xattr,
/// pg-log entry) — the "many key-value writes" of §V-B. Built once per
/// write: the replicas' messages, the op log, the store and retransmits all
/// share its ops.
fn client_txn(group: GroupId, seq: u64, mutation: Op) -> Transaction {
    let ops: Arc<[Op]> = match mutation {
        Op::Write { oid, .. } => Arc::new([
            mutation,
            Op::SetXattr {
                oid,
                key: "oi".into(),
                value: vec![0xA5; 64],
            },
            Op::MetaPut {
                key: pglog_key(group, seq),
                value: vec![0x5A; 180],
            },
        ]),
        create => Arc::new([create]),
    };
    Transaction { group, seq, ops }
}

/// The last [`DEDUP_WINDOW`] ids remembered, duplicates included: the deque
/// keeps them in eviction order, the counts answer membership in O(1).
#[derive(Default)]
pub(super) struct DedupWindow {
    order: VecDeque<u64>,
    counts: FxHashMap<u64, u32>,
}

impl DedupWindow {
    /// Pushes `id`, forgetting the oldest first at the bound so the deque
    /// never outgrows (and never doubles past) it.
    pub(super) fn remember(&mut self, id: u64) {
        while self.order.len() >= DEDUP_WINDOW {
            let old = self.order.pop_front().expect("at the bound");
            let n = self
                .counts
                .get_mut(&old)
                .expect("every id in order is counted");
            *n -= 1;
            if *n == 0 {
                self.counts.remove(&old);
            }
        }
        self.order.push_back(id);
        *self.counts.entry(id).or_default() += 1;
    }

    pub(super) fn contains(&self, id: u64) -> bool {
        self.counts.contains_key(&id)
    }

    /// Forgets every occurrence of `id`.
    pub(super) fn forget(&mut self, id: u64) {
        if self.counts.remove(&id).is_some() {
            self.order.retain(|&x| x != id);
        }
    }
}

pub(super) struct WriteOp {
    pub(super) client: ClientId,
    pub(super) op: OpId,
    pub(super) group: GroupId,
    /// The replicated transaction, kept so the primary itself can retransmit
    /// to laggard replicas (a client retry, the heartbeat timer). Its ops
    /// are the slice the replicas' messages and the op log hold.
    pub(super) txn: Transaction,
    pub(super) waiting_acks: ActingSet,
    pub(super) local_done: bool,
    /// Heartbeat ticks this op has been waiting on replica acks.
    pub(super) ticks: u32,
}

/// The top half's volatile state: writes in flight at this primary and the
/// two duplicate-suppression windows.
#[derive(Default)]
pub(super) struct TopHalf {
    /// In-flight primary writes by replication sequence.
    pub(super) inflight: FxHashMap<u64, WriteOp>,
    /// `(client, op) -> seq` for in-flight writes, so a client retry can be
    /// matched to its original operation instead of being applied again.
    pub(super) inflight_ops: FxHashMap<(ClientId, OpId), u64>,
    /// Recently completed write ops per client: a retry of one of these
    /// re-acks immediately.
    pub(super) completed: FxHashMap<ClientId, DedupWindow>,
    /// Recently applied replication seqs per group: a duplicate
    /// `Repop` re-acks without re-applying.
    pub(super) replica_applied: FxHashMap<GroupId, DedupWindow>,
}

impl Osd {
    /// The client op behind an in-flight primary write `seq`, if any.
    /// Read-only probe for the tracing layer.
    pub fn inflight_client_op(&self, seq: u64) -> Option<(ClientId, OpId)> {
        self.top.inflight.get(&seq).map(|w| (w.client, w.op))
    }

    /// Admits a client `Write` or `Create` (as the `Op` it asks for): a
    /// completed op is re-acked, an op still replicating is retransmitted,
    /// anything else gets the next sequence number and enters the pipeline.
    pub(super) fn on_client_mutation(
        &mut self,
        from: ClientId,
        op: OpId,
        group: GroupId,
        mutation: Op,
    ) {
        let completed = self.top.completed.get(&from);
        if completed.is_some_and(|w| w.contains(op.0)) {
            self.reply_done(from, op);
            return;
        }
        if let Some(&seq) = self.top.inflight_ops.get(&(from, op)) {
            // Retry of an op still replicating: the original peer message
            // may have been lost, so retransmit its transaction to laggard
            // replicas only.
            self.retransmit_pending(seq);
            return;
        }
        if self.below_write_quorum(group, from, op) {
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        let txn = client_txn(group, seq, mutation);
        self.note_txn(&txn);
        self.pg_log_note(group, seq, &txn);
        let w = WriteOp {
            client: from,
            op,
            group,
            txn,
            waiting_acks: self.replicas_of(group),
            local_done: false,
            ticks: 0,
        };
        for &r in &w.waiting_acks {
            let txn = w.txn.clone();
            self.send(r, PeerMsg::Repop { group, seq, txn });
        }
        self.top.inflight_ops.insert((from, op), seq);
        if self.cfg.mode.decoupled() {
            self.write_decoupled(seq, w);
        } else {
            self.write_coupled(seq, w);
        }
    }

    /// The `min_size` quorum gate (Ceph semantics): mutations are refused
    /// with a retryable [`StoreError::Degraded`] while too few acting-set
    /// members are up to accept the write safely. Never panics — losing
    /// nodes degrades service instead of crashing placement.
    fn below_write_quorum(&mut self, group: GroupId, from: ClientId, op: OpId) -> bool {
        if self.map.acting_set(group).len() >= self.map.min_size {
            return false;
        }
        let error = StoreError::Degraded;
        self.reply(from, ClientReply::Error { op, error });
        true
    }

    /// Stock write path: replicate and persist before acking (Fig. 3-a).
    fn write_coupled(&mut self, seq: u64, mut w: WriteOp) {
        let (from, op, txn) = (w.client, w.op, w.txn.clone());
        w.local_done = self.cfg.mode.null_transaction() || self.cfg.mode.null_store();
        let local_done = w.local_done;
        self.top.inflight.insert(seq, w);
        if local_done {
            self.try_complete_write(seq);
            return;
        }
        if self.cfg.mode.prioritized() {
            // PTC: the priority thread never does storage processing; hand
            // the transaction to a non-priority thread (§IV-B).
            self.defer_submit(txn, StoreCtx::WriteLocal { seq });
            return;
        }
        if let Err(error) = self.backend.submit(txn) {
            self.top.inflight.remove(&seq);
            self.top.inflight_ops.remove(&(from, op));
            self.reply(from, ClientReply::Error { op, error });
            return;
        }
        self.store_io(StoreCtx::WriteLocal { seq }, true);
        self.kick_maintenance();
    }

    /// Decoupled write path (Fig. 3-b): log to NVM, replicate, ack; flush
    /// later in batches.
    fn write_decoupled(&mut self, seq: u64, mut w: WriteOp) {
        let (bytes, stall) = self.log_append_with_fallback(w.group, w.txn.clone());
        self.fx.push(OsdEffect::NvmWritten { bytes });
        w.local_done = stall.is_none();
        if let Some(token) = stall {
            // Synchronous-flush backpressure: the ack waits until the
            // forced flush is durable.
            let ctx = StoreCtx::WriteLocal { seq };
            self.bottom.pending_store.insert(token, ctx);
        }
        let group = w.group;
        self.top.inflight.insert(seq, w);
        self.wake_flush_if_due(group);
        self.try_complete_write(seq);
    }

    /// Appends to the group log; when NVM is full, forces a synchronous
    /// flush first (the paper's degenerate full-NVM case: "flushing needs
    /// to be synchronously done before handling I/O operations"). Returns
    /// the NVM bytes written plus, on a stall, the store token the caller
    /// must wait on before acknowledging — that wait is the backpressure
    /// that keeps a log-ahead system device-bound under sustained load.
    pub(super) fn log_append_with_fallback(
        &mut self,
        group: GroupId,
        txn: Transaction,
    ) -> (u64, Option<u64>) {
        // Oversized writes bypass the log entirely: a record that cannot
        // fit the ring is persisted synchronously to the backend (real
        // journals cap entry sizes the same way).
        let estimated = txn.user_bytes() + 2048;
        if estimated + 64 >= self.cfg.ring_bytes {
            self.backend.submit(txn).expect("oversized bypass submit");
            let token = self.store_io(StoreCtx::Background, true);
            self.kick_maintenance();
            return (0, Some(token));
        }
        // Take the log out to satisfy the borrow checker across the flush path.
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
            stall_token = Some(self.store_io(StoreCtx::Background, true));
        }
        let bytes = log
            .append(&mut self.nvm, txn)
            .unwrap_or_else(|e| panic!("{}: unexpected op-log error: {e}", self.id))
            .nvm_bytes;
        self.logs.insert(group, log);
        (bytes, stall_token)
    }

    pub(super) fn on_client_read(&mut self, dr: DeferredRead) {
        let (from, op) = (dr.client, dr.op);
        if self.cfg.mode.null_transaction() {
            // No storage processing: answer immediately (Ideal / RTC-v3).
            let data = vec![0; dr.len as usize].into();
            self.reply(from, ClientReply::Data { op, data });
            return;
        }
        if self.cfg.mode.decoupled() {
            let group = dr.oid.group();
            let path = self.logs.get(&group).map_or(ReadPath::Store, |log| {
                log.read_path(dr.oid, dr.offset, dr.len)
            });
            match path {
                ReadPath::FromLog(data) => self.reply(from, ClientReply::Data { op, data }),
                // The backend may still miss data the backfill will bring;
                // park the read until it arrives.
                ReadPath::Store if self.peering.awaiting_backfill.contains(&group) => {
                    self.rt(group).waiting_reads.push(dr)
                }
                ReadPath::Store => self.defer_read(dr),
                ReadPath::FlushThenStore => {
                    self.rt(group).waiting_reads.push(dr);
                    if !self.rt(group).flushing {
                        self.fx.push(OsdEffect::WakeFlush { group });
                    }
                }
            }
        } else if self.cfg.mode.prioritized() {
            // PTC: store reads happen on non-priority threads too.
            self.defer_read(dr);
        } else {
            // Stock thread-pool / RTC modes: read the backend inline.
            self.read_store_now(dr);
        }
    }

    pub(super) fn try_complete_write(&mut self, seq: u64) {
        let done = self
            .top
            .inflight
            .get(&seq)
            .is_some_and(|w| w.local_done && w.waiting_acks.is_empty());
        if done {
            let w = self.top.inflight.remove(&seq).expect("checked above");
            self.top.inflight_ops.remove(&(w.client, w.op));
            let window = self.top.completed.entry(w.client).or_default();
            window.remember(w.op.0);
            self.reply_done(w.client, w.op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{OsdInput, PipelineMode};
    use super::*;
    use proptest::prelude::*;

    fn repops(fx: &[OsdEffect]) -> Vec<&Transaction> {
        fx.iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: PeerMsg::Repop { txn, .. },
                    ..
                } => Some(txn),
                _ => None,
            })
            .collect()
    }

    /// A DOP primary builds a write's transaction once: the replica's
    /// `Repop`, the record in its own op log and its in-flight `WriteOp`
    /// hold one slice of ops, and a client retry retransmits that slice
    /// instead of building another.
    #[test]
    fn a_dop_write_holds_one_slice_of_ops_in_repop_log_and_write_op() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        let write = |o: &mut Osd| {
            o.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(1, oid_in(g, 1)),
            })
        };
        let fx = write(&mut o);
        let [repop] = repops(&fx)[..] else {
            panic!("one replica, one Repop")
        };
        assert_eq!(
            repop.ops.len(),
            3,
            "write, object_info_t xattr, pg-log entry"
        );
        let logged = o.logs[&g].export_records();
        let [record] = &logged[..] else {
            panic!("one logged record")
        };
        assert!(Arc::ptr_eq(&repop.ops, &record.txn.ops), "the log copied");
        let w = &o.top.inflight[&repop.seq];
        assert!(Arc::ptr_eq(&repop.ops, &w.txn.ops), "the WriteOp copied");

        let fx = write(&mut o);
        let [retransmit] = repops(&fx)[..] else {
            panic!("the retry retransmits to the replica")
        };
        assert!(Arc::ptr_eq(&retransmit.ops, &repop.ops), "rebuilt");
        assert_eq!(o.logs[&g].pending(), 1, "the retry was not logged again");
    }

    /// After four times the bound the window holds exactly the newest
    /// `DEDUP_WINDOW` ids, oldest first, duplicates included, and its deque
    /// never grew past the bound.
    #[test]
    fn the_dedup_window_keeps_the_newest_ids_within_its_bound() {
        let mut window = DedupWindow::default();
        // Every id twice in a row, so duplicates straddle the eviction edge.
        let ids: Vec<u64> = (0..4 * DEDUP_WINDOW as u64).map(|i| i / 2).collect();
        for &id in &ids {
            window.remember(id);
            assert!(window.order.capacity() <= DEDUP_WINDOW);
        }
        let newest = &ids[ids.len() - DEDUP_WINDOW..];
        assert!(window.order.iter().eq(newest));
        for id in 0..2 * DEDUP_WINDOW as u64 {
            assert_eq!(window.contains(id), newest.contains(&id), "id {id}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The window answers exactly what the plain deque it replaced did:
        /// a bounded FIFO of ids (pushed, then trimmed to the bound),
        /// duplicates kept, `contains` a scan and `forget` a `retain`; and
        /// its deque never grows past the bound.
        #[test]
        fn dedup_window_matches_the_plain_deque(
            steps in proptest::collection::vec((0u8..8, 0u64..200), 1..600),
        ) {
            let mut window = DedupWindow::default();
            let mut model: VecDeque<u64> = VecDeque::new();
            for (op, id) in steps {
                match op {
                    0 => {
                        window.forget(id);
                        model.retain(|&x| x != id);
                    }
                    1 | 2 => prop_assert_eq!(window.contains(id), model.contains(&id)),
                    _ => {
                        window.remember(id);
                        model.push_back(id);
                        while model.len() > DEDUP_WINDOW {
                            model.pop_front();
                        }
                    }
                }
                prop_assert_eq!(&window.order, &model);
                prop_assert!(window.order.capacity() <= DEDUP_WINDOW);
                for probe in 0..200 {
                    prop_assert_eq!(window.contains(probe), model.contains(&probe));
                }
            }
        }
    }
}
