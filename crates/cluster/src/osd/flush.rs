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

    fn classify(&self, ctx: &StoreCtx) -> StoreTokenOp {
        match *ctx {
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
        }
    }

    /// Classifies what a pending store-completion `token` is serving.
    /// Read-only probe for the tracing layer; never mutates OSD state.
    pub fn store_token_op(&self, token: u64) -> Option<StoreTokenOp> {
        let ctx = self.bottom.pending_store.get(&token)?;
        Some(self.classify(ctx))
    }

    /// The client op behind a deferred store read `token`, if any.
    /// Read-only probe for the tracing layer.
    pub fn deferred_read_op(&self, token: u64) -> Option<(ClientId, OpId)> {
        self.bottom
            .deferred_reads
            .get(&token)
            .map(|d| (d.client, d.op))
    }

    /// Classifies the op behind a deferred store submit `token`, if any.
    /// Read-only probe for the tracing layer.
    pub fn deferred_submit_op(&self, token: u64) -> Option<StoreTokenOp> {
        let d = self.bottom.deferred_submits.get(&token)?;
        Some(self.classify(&d.ctx))
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

    /// Re-applies the group's pending (NVM-durable, unflushed) log records
    /// to the backend so a direct backend read observes every acked write.
    /// The records stay pending — re-applying them again later is
    /// idempotent — so a flush window open over them is left as it was.
    pub(super) fn sync_group_log(&mut self, group: GroupId) {
        if self.logs.get(&group).is_some_and(|l| l.pending() > 0) {
            for rec in self.logs[&group].export_records() {
                self.backend.submit(rec.txn).expect("log re-apply for read");
            }
            let _ = self.backend.take_trace();
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
        let log = self.log_for(group);
        let due = log.pending() >= log.flush_threshold;
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
        let Some(ctx) = self.bottom.pending_store.remove(&token) else {
            return;
        };
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
                self.log_for(group);
                let log = self.logs.get_mut(&group).expect("ensured");
                log.drain_through_version(&mut self.nvm, through_version)
                    .expect("drain flushed records");
                self.rt(group).flushing = false;
                self.serve_waiting_reads(group);
                // Re-arm if the log refilled while flushing.
                self.wake_flush_if_due(group);
            }
            StoreCtx::Background => {}
        }
    }

    pub(super) fn on_flush_group(&mut self, group: GroupId) {
        if self.rt(group).flushing {
            return;
        }
        if self.peering.awaiting_backfill.contains(&group) {
            // Flushing now could later be clobbered by the in-flight
            // backfill; hold off — the backfill's arrival re-arms the flush.
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
        let through_version = log.version();
        for txn in log.begin_flush() {
            self.backend.submit(txn).expect("flush submit");
        }
        let ctx = StoreCtx::Flush {
            group,
            through_version,
        };
        self.store_io(ctx, true);
        self.rt(group).flushing = true;
        self.kick_maintenance();
    }

    pub(super) fn on_submit_deferred(&mut self, token: u64) {
        let Some(DeferredSubmit { txn, ctx }) = self.bottom.deferred_submits.remove(&token) else {
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
                    self.nack_failed_apply(primary, group, seq, error);
                }
                StoreCtx::WriteLocal { seq } => {
                    // Primary-side apply failure: fail the op back to the
                    // client instead of leaving it in flight forever.
                    if let Some(w) = self.top.inflight.remove(&seq) {
                        self.top.inflight_ops.remove(&(w.client, w.op));
                        self.pg_log_unnote(w.group, seq);
                        self.reply(w.client, ClientReply::Error { op: w.op, error });
                    }
                }
                _ => {}
            }
            return;
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
