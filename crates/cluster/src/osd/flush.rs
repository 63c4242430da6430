//! The bottom half: what non-priority threads do behind the ack. Batch
//! flushes of a group's operation log into the backend (§IV-A-3), the store
//! submits and reads the top half deferred, completion of every device I/O
//! the driver replayed (`StoreDurable`), and backend maintenance.

use rablock_storage::{FxHashMap, GroupId, ObjectId, Payload, StoreError, TraceKind, Transaction};

use super::{Osd, OsdEffect};
use crate::msg::{ClientId, ClientReply, OpId};
use crate::placement::OsdId;

/// What a pending store token is serving, as seen by the tracing layer.
///
/// A read-only classification of the OSD's internal store-completion
/// context; the driver uses it to map device completions back to the client
/// op they serve.
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

pub(super) enum StoreCtx {
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
    },
    /// Background I/O nobody waits for.
    Background,
}

pub(super) struct DeferredSubmit {
    txn: Transaction,
    ctx: StoreCtx,
}

/// A client read on its way to the backend store.
pub(super) struct DeferredRead {
    pub(super) client: ClientId,
    pub(super) op: OpId,
    pub(super) oid: ObjectId,
    pub(super) offset: u64,
    pub(super) len: u64,
}

#[derive(Default)]
pub(super) struct GroupRuntime {
    pub(super) flushing: bool,
    /// Reads waiting for the in-flight flush to become durable.
    pub(super) waiting_reads: Vec<DeferredRead>,
}

/// The bottom half's volatile state: everything keyed by a token the driver
/// will hand back, and the per-group flush windows.
#[derive(Default)]
pub(super) struct BottomHalf {
    pub(super) group_rt: FxHashMap<GroupId, GroupRuntime>,
    /// What each `StoreIo` token the driver holds is serving.
    pub(super) pending_store: FxHashMap<u64, StoreCtx>,
    pub(super) deferred_reads: FxHashMap<u64, DeferredRead>,
    pub(super) deferred_submits: FxHashMap<u64, DeferredSubmit>,
    maint_scheduled: bool,
}

impl Osd {
    /// Groups with pending log entries, sorted (timeout-flush sweeps).
    pub fn pending_groups(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self
            .logs
            .iter()
            .filter(|(g, l)| {
                l.pending() > 0 && !self.bottom.group_rt.get(g).is_some_and(|r| r.flushing)
            })
            .map(|(g, _)| *g)
            .collect();
        v.sort();
        v
    }

    /// Classifies what a store `token` the driver holds is serving: a
    /// pending device I/O, a deferred read or a deferred submit (tokens come
    /// from one counter, so at most one of them). Read-only probe for the
    /// tracing layer; never mutates OSD state.
    pub fn token_op(&self, token: u64) -> Option<StoreTokenOp> {
        let b = &self.bottom;
        if let Some(&DeferredRead { client, op, .. }) = b.deferred_reads.get(&token) {
            return Some(StoreTokenOp::Read { client, op });
        }
        let submit = b.deferred_submits.get(&token).map(|d| &d.ctx);
        Some(match *b.pending_store.get(&token).or(submit)? {
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

    /// Applies every pending log record to the backend without draining the
    /// log, so backend reads observe the newest bytes. Used before recovery
    /// pushes (the pushed content must be authoritative) and by post-quiesce
    /// replica-equality checks. Re-applying a record is idempotent — the log
    /// always holds the newest bytes for the ranges it covers.
    pub fn sync_backend_with_log(&mut self) {
        let mut groups: Vec<GroupId> = self.logs.keys().copied().collect();
        groups.sort();
        for group in groups {
            let _ = self.sync_group_log(group);
        }
    }

    /// Re-applies the group's pending (NVM-durable, unflushed) log records
    /// to the backend so a direct backend read observes every acked write.
    /// The records stay pending — re-applying them again later is
    /// idempotent — so a flush window open over them is left as it was.
    pub(super) fn sync_group_log(&mut self, group: GroupId) -> Result<(), StoreError> {
        self.submit_pending(group)?;
        let _ = self.backend.take_trace();
        Ok(())
    }

    /// The one way from the op log to the store: submits every pending
    /// record of `group` in log order and returns the log version it
    /// submitted through. It releases nothing and takes no trace: each
    /// caller releases (`drain_through_version` of that version) and
    /// charges the device I/O its own way. On a store error every record
    /// stays pending; applying one again is idempotent.
    pub(super) fn submit_pending(&mut self, group: GroupId) -> Result<u64, StoreError> {
        let Some(log) = self.logs.get(&group) else {
            return Ok(0);
        };
        for txn in log.begin_flush() {
            self.backend.submit(txn)?;
        }
        Ok(log.version())
    }

    /// [`Osd::submit_pending`], then the release of what it submitted.
    pub(super) fn drain_pending(&mut self, group: GroupId) -> Result<usize, StoreError> {
        let through = self.submit_pending(group)?;
        match self.logs.get_mut(&group) {
            Some(log) => log.drain_through_version(&mut self.nvm, through),
            None => Ok(0),
        }
    }

    pub(super) fn rt(&mut self, group: GroupId) -> &mut GroupRuntime {
        self.bottom.group_rt.entry(group).or_default()
    }

    /// Hands a store submit to a non-priority thread.
    pub(super) fn defer_submit(&mut self, txn: Transaction, ctx: StoreCtx) {
        let token = self.token();
        let deferred = DeferredSubmit { txn, ctx };
        self.bottom.deferred_submits.insert(token, deferred);
        self.fx.push(OsdEffect::WakeSubmit { token });
    }

    /// Hands a store read to a non-priority thread.
    pub(super) fn defer_read(&mut self, dr: DeferredRead) {
        let token = self.token();
        self.bottom.deferred_reads.insert(token, dr);
        self.fx.push(OsdEffect::WakeRead { token });
    }

    /// Wakes a flusher once the group's log has reached its threshold,
    /// unless a flush window is already open.
    pub(super) fn wake_flush_if_due(&mut self, group: GroupId) {
        let log = self.logs.get(&group);
        let due = log.is_some_and(|log| log.pending() >= log.flush_threshold);
        if due && !self.rt(group).flushing {
            self.fx.push(OsdEffect::WakeFlush { group });
        }
    }

    pub(super) fn read_store_now(&mut self, dr: DeferredRead) {
        let (client, op) = (dr.client, dr.op);
        match self.backend.read_segments(dr.oid, dr.offset, dr.len) {
            Ok(data) => {
                let data = data.into_payload();
                let trace = self.backend.take_trace();
                if trace.iter().any(|t| matches!(t.kind, TraceKind::Read)) {
                    self.store_io_of(trace, StoreCtx::Read { client, op, data }, true);
                } else {
                    self.reply(client, ClientReply::Data { op, data });
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
                    self.request_object_fetch(dr.oid.group(), dr.oid);
                }
                self.reply(client, ClientReply::Error { op, error });
            }
        }
    }

    /// Serves the reads that were parked behind the group's flush window.
    fn serve_waiting_reads(&mut self, group: GroupId) {
        let waiting = std::mem::take(&mut self.rt(group).waiting_reads);
        for dr in waiting {
            self.read_store_now(dr);
        }
    }

    pub(super) fn on_store_durable(&mut self, token: u64) {
        if let Some(ctx) = self.bottom.pending_store.remove(&token) {
            self.stored(ctx);
        }
    }

    /// What `ctx` waited for is done: its store I/O is durable, or the mode
    /// had nothing to wait for.
    pub(super) fn stored(&mut self, ctx: StoreCtx) {
        match ctx {
            StoreCtx::WriteLocal { seq } => {
                if let Some(w) = self.top.inflight.get_mut(&seq) {
                    w.local_done = true;
                }
                self.try_complete_write(seq);
            }
            StoreCtx::ReplicaPersist {
                primary,
                group,
                seq,
            } => self.rep_ack(primary, group, seq),
            StoreCtx::Read { client, op, data } => {
                self.reply(client, ClientReply::Data { op, data })
            }
            StoreCtx::Flush {
                group,
                through_version,
            } => {
                if let Some(log) = self.logs.get_mut(&group) {
                    // Only an out-of-range NVM header write fails a release.
                    let _ = log.drain_through_version(&mut self.nvm, through_version);
                }
                self.rt(group).flushing = false;
                self.serve_waiting_reads(group);
                // Re-arm if the log refilled while flushing.
                self.wake_flush_if_due(group);
            }
            StoreCtx::Background => {}
        }
    }

    /// The log or the store refused the write `ctx` persists: its client
    /// gets a retryable error at a primary, its primary a `RepNack` at a
    /// replica.
    pub(super) fn refused(&mut self, ctx: StoreCtx, error: StoreError) {
        match ctx {
            StoreCtx::WriteLocal { seq } => self.fail_write(seq, error),
            StoreCtx::ReplicaPersist {
                primary,
                group,
                seq,
            } => self.nack_failed_apply(primary, group, seq, error),
            StoreCtx::Read { .. } | StoreCtx::Flush { .. } | StoreCtx::Background => {}
        }
    }

    pub(super) fn on_flush_group(&mut self, group: GroupId) {
        if self.rt(group).flushing {
            return;
        }
        if self.peering.joining(group) {
            // Flushing now could later be clobbered by the pulled objects;
            // hold off: the pull's reply re-arms the flush.
            return;
        }
        let Some(log) = self.logs.get(&group) else {
            return;
        };
        if log.pending() == 0 {
            // Nothing to flush; still serve any queued reads.
            self.serve_waiting_reads(group);
            return;
        }
        // Submit the batch to the backend; the log entries are drained only
        // once the store writes are durable (§IV-A-3: remove after flush).
        let through_version = match self.submit_pending(group) {
            Ok(version) => version,
            Err(error) => {
                // A refused flush opens no window: the records stay pending
                // and in NVM (acked data is still served from the log),
                // parked reads get the error, and the next sweep retries.
                for dr in std::mem::take(&mut self.rt(group).waiting_reads) {
                    let error = error.clone();
                    self.reply(dr.client, ClientReply::Error { op: dr.op, error });
                }
                return;
            }
        };
        let ctx = StoreCtx::Flush {
            group,
            through_version,
        };
        self.store_io(ctx, true);
        self.rt(group).flushing = true;
        self.kick_maintenance();
    }

    pub(super) fn on_submit_deferred(&mut self, token: u64) {
        if let Some(DeferredSubmit { txn, ctx }) = self.bottom.deferred_submits.remove(&token) {
            self.submit_now(txn, ctx);
        }
    }

    /// Submits `txn` to the backend on this thread; `ctx` is answered once
    /// its device I/O is durable, or refused at once.
    pub(super) fn submit_now(&mut self, txn: Transaction, ctx: StoreCtx) {
        if let Err(error) = self.backend.submit(txn) {
            return self.refused(ctx, error);
        }
        self.store_io(ctx, true);
        self.kick_maintenance();
    }

    pub(super) fn on_read_from_store(&mut self, token: u64) {
        if let Some(dr) = self.bottom.deferred_reads.remove(&token) {
            self.read_store_now(dr);
        }
    }

    pub(super) fn kick_maintenance(&mut self) {
        if !self.bottom.maint_scheduled && self.backend.needs_maintenance() {
            self.bottom.maint_scheduled = true;
            self.fx.push(OsdEffect::WakeMaintenance);
        }
    }

    pub(super) fn on_maint_step(&mut self) {
        self.bottom.maint_scheduled = false;
        if !self.backend.needs_maintenance() {
            return;
        }
        let report = self.backend.maintenance();
        self.store_io(StoreCtx::Background, false);
        let more = self.backend.needs_maintenance();
        self.fx.push(OsdEffect::Maintained {
            bytes: report.bytes_read + report.bytes_written,
            more,
        });
        if more {
            self.bottom.maint_scheduled = true;
            self.fx.push(OsdEffect::WakeMaintenance);
        }
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{GroupId, ObjectId, Payload, StoreError, Transaction};

    use super::super::testkit::*;
    use super::super::{Osd, OsdConfig, OsdEffect, OsdInput, PipelineMode};
    use crate::msg::{ClientId, ClientReply, ClientReq, OpId, PeerMsg};
    use crate::placement::OsdId;

    fn client(req: ClientReq) -> OsdInput {
        let from = ClientId(1);
        OsdInput::Client { from, req }
    }

    fn read(op: u64, oid: ObjectId) -> OsdInput {
        let (op, offset, len) = (OpId(op), 0, 4096);
        client(ClientReq::Read {
            op,
            oid,
            offset,
            len,
        })
    }

    fn reply_to(fx: &[OsdEffect], want: OpId) -> Option<&ClientReply> {
        fx.iter().find_map(|e| match e {
            OsdEffect::Reply { msg, .. } if msg.op() == want => Some(msg),
            _ => None,
        })
    }

    fn refused(reply: Option<&ClientReply>) -> bool {
        let no_space = StoreError::NoSpace;
        matches!(reply, Some(ClientReply::Error { error, .. }) if *error == no_space)
    }

    /// A DOP primary on a device too small for a 12 MiB object, with a
    /// create of one logged in `g`: flushing that record is what the store
    /// refuses.
    fn refusing_store(flush_threshold: usize) -> (Osd, GroupId) {
        let small = OsdConfig {
            device_bytes: 8 << 20,
            ..cfg(PipelineMode::Dop, flush_threshold)
        };
        let mut o = Osd::new(OsdId(0), small, map());
        let g = a_group_with_primary(&o);
        let (op, oid, size) = (OpId(100), oid_in(g, 100), 12 << 20);
        o.handle(client(ClientReq::Create { op, oid, size }));
        (o, g)
    }

    /// A flush the store refuses used to abort the OSD (`flush submit`).
    /// It opens no window: the records stay pending and in NVM, an acked
    /// block is still served from the log, a read parked on the flush gets
    /// a retryable error, and the next sweep finds the group again.
    #[test]
    fn a_flush_the_store_refuses_keeps_its_records_and_does_not_panic() {
        let (mut o, g) = refusing_store(16);
        let acked = oid_in(g, 1);
        o.handle(client(write_req(1, acked)));
        let replica = o.map().acting_set(g)[1];
        let msg = PeerMsg::RepAck {
            group: g,
            seq: 2,
            from: replica,
        };
        let fx = o.handle(OsdInput::Peer { from: replica, msg });
        let done = reply_to(&fx, OpId(1));
        assert!(matches!(done, Some(ClientReply::Done { .. })), "{fx:?}");
        let pending = o.log_pending(g);
        assert_eq!(pending, 2);

        // The created object's read must flush first: it parks.
        let fx = o.handle(read(3, oid_in(g, 100)));
        let wake = |e: &OsdEffect| matches!(e, OsdEffect::WakeFlush { group } if *group == g);
        assert!(fx.iter().any(wake), "{fx:?}");
        let fx = o.handle(OsdInput::FlushGroup { group: g });
        assert!(refused(reply_to(&fx, OpId(3))), "{fx:?}");
        assert!(tokens_of(&fx).is_empty(), "no flush window: {fx:?}");
        assert_eq!(o.log_pending(g), pending);
        assert_eq!(o.pending_groups(), vec![g], "the sweep tries again");

        let fx = o.handle(read(4, acked));
        let Some(ClientReply::Data { data, .. }) = reply_to(&fx, OpId(4)) else {
            panic!("the acked block is served from the log: {fx:?}");
        };
        assert_eq!(*data, Payload::from(vec![7u8; 4096]));
    }

    /// A write whose NVM-full drain the store refuses used to abort the OSD
    /// (`flush submit`). The write fails back to its client instead, leaves
    /// the pg_log, and its retry is admitted again rather than re-acked.
    #[test]
    fn a_write_whose_nvm_full_drain_fails_gets_a_retryable_error() {
        let (mut o, g) = refusing_store(usize::MAX);
        let mut refusal = None;
        for i in 1..200 {
            let before = o.log_pending(g);
            let fx = o.handle(client(write_req(i, oid_in(g, i))));
            if let Some(reply) = reply_to(&fx, OpId(i)) {
                refusal = Some((i, reply.clone(), before));
                break;
            }
        }
        let (i, reply, before) = refusal.expect("the ring fills");
        assert!(refused(Some(&reply)), "{reply:?}");
        assert_eq!(o.nvm_full_stalls, 1);
        assert_eq!(o.log_pending(g), before, "the records stay pending");
        assert_eq!(o.pg_latest(g, oid_in(g, i)), (0, 0), "un-noted");
        let fx = o.handle(client(write_req(i, oid_in(g, i))));
        assert!(refused(reply_to(&fx, OpId(i))), "{fx:?}");
    }

    /// An NVM region with room for one ring refuses a write to a second
    /// group, without aborting the OSD, through `persist`'s one failure
    /// path: a retryable error to the client at a primary, a `RepNack` at a
    /// replica.
    #[test]
    fn a_write_to_a_group_nvm_has_no_ring_for_is_refused() {
        let base = cfg(PipelineMode::Dop, 16);
        let one_ring = OsdConfig {
            nvm_bytes: base.ring_bytes,
            ..base
        };
        let mut o = Osd::new(OsdId(0), one_ring, map());
        let led = (0..8).map(GroupId).filter(|&g| o.map().primary(g) == o.id);
        let led: Vec<GroupId> = led.collect();
        let fx = o.handle(client(write_req(1, oid_in(led[0], 1))));
        assert!(fx.iter().any(|e| matches!(e, OsdEffect::NvmWritten { .. })));
        let fx = o.handle(client(write_req(2, oid_in(led[1], 1))));
        assert!(refused(reply_to(&fx, OpId(2))), "{fx:?}");
        assert_eq!(o.log_pending(led[1]), 0);

        let other = (0..8).map(GroupId).find(|&g| o.map().primary(g) != o.id);
        let g = other.expect("a group led by the other OSD");
        let (primary, txn) = (o.map().primary(g), Transaction::new(g, 5, Vec::new()));
        let msg = PeerMsg::Repop {
            group: g,
            seq: 5,
            txn,
        };
        let fx = o.handle(OsdInput::Peer { from: primary, msg });
        let nack = |e: &OsdEffect| {
            let no_space = StoreError::NoSpace;
            matches!(e, OsdEffect::SendPeer { to, msg: PeerMsg::RepNack { seq: 5, error, .. } }
                if *to == primary && *error == no_space)
        };
        assert!(fx.iter().any(nack), "{fx:?}");
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
}
