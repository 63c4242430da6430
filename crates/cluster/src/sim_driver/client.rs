//! The client side: closed- or open-loop connections issuing the workload,
//! recording latency when replies arrive, and retrying on a timer.

use rablock_sim::{Ctx, LatSummary, SimDuration, SimTime, ThreadId};
use rablock_storage::{FxHashMap, Payload, StoreError};

use super::tracing::TraceOp;
use super::world::{Ev, World};
use super::{ConnWorkload, WorkItem};
use crate::costs::CLIENT;
use crate::msg::{ClientId, ClientReply, ClientReq, OpId};

#[derive(Clone, Debug, Default)]
pub(super) struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    fn record(&mut self, d: SimDuration) {
        if self.samples.len() < 4_000_000 {
            self.samples.push(d.as_nanos());
        }
    }

    pub(super) fn summary(&self) -> LatSummary {
        LatSummary::from_samples(&self.samples)
    }
}

/// One outstanding client operation.
pub(super) struct Pending {
    is_write: bool,
    issued: SimTime,
    /// Attempt number of the most recent transmission (1-based). A timeout
    /// event only acts when its attempt matches, so stale timers are inert.
    attempt: u32,
    /// The request itself, kept when retries or history checking need it.
    req: Option<ClientReq>,
    /// Checksum-mismatch replies seen for this op. A non-zero count makes
    /// the retransmission rotate the read through the acting set instead of
    /// re-hitting the primary's rotten copy (redirect-on-corruption).
    csum_redirects: u32,
}

pub(super) struct ConnState {
    pub(super) id: ClientId,
    pub(super) thread: ThreadId,
    pub(super) workload: Box<dyn ConnWorkload>,
    pub(super) outstanding: FxHashMap<u64, Pending>,
    pub(super) next_op: u64,
    pub(super) exhausted: bool,
}

impl World {
    /// One shared allocation per distinct `(fill, len)` payload pattern.
    fn intern_payload(&mut self, fill: u8, len: u64) -> Payload {
        self.payload_cache
            .entry((fill, len))
            .or_insert_with(|| vec![fill; len as usize].into())
            .clone()
    }

    pub(super) fn issue_client_ops(&mut self, ctx: &mut Ctx<'_, Ev>, conn: usize) {
        let (pacing, retry) = (self.topo.cfg.pacing, self.topo.cfg.retry);
        loop {
            let c = &mut self.conns[conn];
            let budget = match pacing {
                Some(_) => 1,
                None => self
                    .topo
                    .cfg
                    .queue_depth
                    .saturating_sub(c.outstanding.len()),
            };
            if budget == 0 || c.exhausted {
                return;
            }
            let Some(item) = c.workload.next(ctx.rng()) else {
                c.exhausted = true;
                return;
            };
            let (id, thread, op) = (c.id, c.thread, OpId(c.next_op));
            c.next_op += 1;
            let req = match item {
                WorkItem::Write {
                    oid,
                    offset,
                    len,
                    fill,
                } => {
                    let data = self.intern_payload(fill, len);
                    if let Some(checker) = self.checker.as_mut() {
                        let fill = data.first().copied().unwrap_or(0);
                        checker.write_issued(id, op, oid, offset, data.len() as u64, fill);
                    }
                    ClientReq::Write {
                        op,
                        oid,
                        offset,
                        data,
                    }
                }
                WorkItem::Read { oid, offset, len } => ClientReq::Read {
                    op,
                    oid,
                    offset,
                    len,
                },
            };
            let is_write = matches!(req, ClientReq::Write { .. });
            let keep_req = retry.is_some() || self.checker.is_some();
            let pending = Pending {
                is_write,
                issued: ctx.now(),
                attempt: 1,
                req: keep_req.then(|| req.clone()),
                csum_redirects: 0,
            };
            self.conns[conn].outstanding.insert(op.0, pending);
            let id = Self::tid_of(id, op);
            self.trace_log(ctx.now(), TraceOp::Begin { id, is_write });
            if let Some(r) = retry {
                let (op, attempt) = (op.0, 1);
                let ev = Ev::ClientTimeout { conn, op, attempt };
                ctx.send_after(thread, ev, SimDuration::nanos(r.timeout_nanos));
            }
            self.send_client_req(ctx, conn, req, SimDuration::ZERO, 0);
            if let Some(pace) = pacing {
                ctx.send_after(thread, Ev::ClientKick { conn }, pace);
                return;
            }
        }
    }

    pub(super) fn on_client_done(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        conn: usize,
        reply: ClientReply,
    ) {
        ctx.spend(CLIENT, SimDuration::micros(1));
        let op = reply.op().0;
        // A reply for an op that is no longer outstanding is a
        // duplicate (retried op acked twice, or a reply that arrived
        // after the retry budget gave up): ignore it entirely
        // instead of recording it a second time.
        let Some(p) = self.conns[conn].outstanding.remove(&op) else {
            return;
        };
        let id = self.conns[conn].id;
        let tid = Self::tid_of(id, OpId(op));
        match &reply {
            ClientReply::Error { error, .. } => {
                if matches!(error, StoreError::Degraded | StoreError::ChecksumMismatch)
                    && self.topo.cfg.retry.is_some()
                {
                    // Retryable rejection: put the op back; its already-armed
                    // timeout retransmits with backoff until quorum returns / a
                    // clean replica answers (or the budget runs out and
                    // surfaces the error). A checksum mismatch additionally
                    // bumps the redirect cursor so the retry reads from the
                    // next acting-set member while the rotten copy read-repairs
                    // itself in the background.
                    let mut p = p;
                    if matches!(error, StoreError::ChecksumMismatch) {
                        p.csum_redirects += 1;
                    }
                    self.conns[conn].outstanding.insert(op, p);
                    return;
                }
                if self.topo.cfg.faults.is_empty() && self.topo.cfg.retry.is_none() {
                    panic!("client observed error: {error}");
                }
                self.client_errors += 1;
                // Failed op: the replay drops the trace without
                // folding it into the attribution histograms.
                self.trace_log(ctx.now(), TraceOp::Abandon(tid));
            }
            ok => {
                let lat = ctx.now().duration_since(p.issued);
                if p.is_write {
                    self.write_lat.record(lat);
                    self.writes_done += 1;
                } else {
                    self.read_lat.record(lat);
                    self.reads_done += 1;
                }
                self.trace_log(ctx.now(), TraceOp::Finish(tid));
                if let Some(checker) = self.checker.as_mut() {
                    match (ok, &p.req) {
                        (ClientReply::Done { .. }, _) if p.is_write => {
                            checker.write_acked(id, OpId(op));
                        }
                        (
                            ClientReply::Data { data, .. },
                            Some(ClientReq::Read {
                                oid, offset, len, ..
                            }),
                        ) => {
                            checker.read_checked(*oid, *offset, *len, data);
                        }
                        _ => {}
                    }
                }
            }
        }
        if self.topo.cfg.pacing.is_none() {
            self.issue_client_ops(ctx, conn);
        }
    }

    pub(super) fn on_client_timeout(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        conn: usize,
        op: u64,
        attempt: u32,
    ) {
        let Some(r) = self.topo.cfg.retry else {
            return;
        };
        let tid = Self::tid_of(ClientId(conn as u32), OpId(op));
        // Only the timer of the *current* attempt may act; a reply
        // or a newer retransmission makes older timers inert.
        match self.conns[conn].outstanding.get_mut(&op) {
            Some(p) if p.attempt == attempt => {
                if r.should_retry(attempt) {
                    p.attempt += 1;
                } else {
                    // Budget exhausted: surface the failure.
                    self.conns[conn].outstanding.remove(&op);
                    self.client_errors += 1;
                    self.trace_log(ctx.now(), TraceOp::Abandon(tid));
                    if self.topo.cfg.pacing.is_none() {
                        self.issue_client_ops(ctx, conn);
                    }
                    return;
                }
            }
            _ => return,
        }
        let p = &self.conns[conn].outstanding[&op];
        let redirect = p.csum_redirects;
        let req = p.req.clone().expect("retrying client stores the request");
        self.trace_log(ctx.now(), TraceOp::Retry(tid));
        let jitter = ctx.rng().unit_f64();
        let backoff = SimDuration::nanos(r.backoff_nanos(attempt, jitter));
        // Retransmit after the backoff (re-routed by the map as of
        // now — a published failover redirects the retry), then arm
        // the next attempt's timer.
        self.send_client_req(ctx, conn, req, backoff, redirect);
        let thread = self.conns[conn].thread;
        let attempt = attempt + 1;
        let ev = Ev::ClientTimeout { conn, op, attempt };
        ctx.send_after(thread, ev, backoff + SimDuration::nanos(r.timeout_nanos));
    }
}
