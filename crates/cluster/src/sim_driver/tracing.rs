//! Per-op span tracing. Purely observational: trace refs are derived from
//! message content the handlers already carry (client id + op id pack into
//! a `TraceId`; replication sub-operations keep their `(primary, seq)` wire
//! key as a symbolic ref that the post-run replay joins back to the parent
//! op). No wire format changes, no extra events, no RNG draws — with
//! `World::trace == None` every helper is a cheap no-op, which is what keeps
//! fingerprints byte-identical tracing on or off.

use std::collections::HashMap;

use rablock_sim::{
    chrome_trace_json, Component, Ctx, Recorder, SimDuration, SimTime, TraceId, Track,
};

use super::world::{Ev, World};
use super::ClusterSim;
use crate::msg::{ClientId, ClientReq, OpId, PeerMsg};
use crate::osd::{OsdInput, StoreTokenOp};
use crate::placement::OsdId;

/// Identity of a traced op as known *locally* to one shard.
///
/// The client-side shard knows the real [`TraceId`] (connection + op). A
/// replica shard only knows the replication key `(primary_osd, seq)` its
/// message carried — the key→id join lives on the primary's shard and is
/// resolved at replay time, never across shards at simulation time.
#[derive(Copy, Clone, Debug)]
pub(super) enum TraceRef {
    Tid(TraceId),
    Rep(u32, u64),
}

/// One recorder call, logged shard-locally and replayed after the run.
#[derive(Debug)]
pub(super) enum TraceOp {
    Begin {
        id: TraceId,
        is_write: bool,
    },
    /// The op, the span's name, its track, start and duration, and the
    /// latency component it is attributed to.
    Span(
        TraceRef,
        &'static str,
        Track,
        SimTime,
        SimDuration,
        Component,
    ),
    Retry(TraceId),
    RegisterRep {
        primary: u32,
        seq: u64,
        id: TraceRef,
    },
    Finish(TraceId),
    Abandon(TraceId),
}

/// Per-shard tracing state. Tracing is purely observational, so shards log
/// recorder calls instead of sharing a recorder: each entry is stamped with the
/// simulated instant it was emitted, and [`ClusterSim::replay_recorder`] merges
/// the logs in `(time, shard, index)` order — a total order that is identical
/// for any worker count — and replays them into one [`Recorder`]. Cross-shard
/// joins (replication key → trace id) resolve during replay: registration on
/// the primary precedes any replica-side use by at least one network lookahead
/// of simulated time, so the merge order is always registration-first.
#[derive(Default)]
pub(super) struct PartTrace {
    log: Vec<(SimTime, TraceOp)>,
    /// `(osd, token)` → (trace ref, submit time) for in-flight store I/O —
    /// submitted and completed on the same shard.
    io_trace: HashMap<(usize, u64), (TraceRef, SimTime)>,
    /// NVM nanoseconds charged by effects of the item being handled
    /// (split out of the service span).
    pub(super) pending_nvm: u64,
}

impl PartTrace {
    /// The current item's wait in its thread's queue, if it waited.
    fn queue_span(&mut self, ctx: &Ctx<'_, Ev>, id: TraceRef, track: Track) {
        let (now, queued) = (ctx.now(), ctx.queued_for());
        if !queued.is_zero() {
            let start = SimTime::from_nanos(now.nanos().saturating_sub(queued.as_nanos()));
            let queue = TraceOp::Span(id, "queue", track, start, queued, Component::Queue);
            self.log.push((now, queue));
        }
    }
}

impl World {
    /// Trace id of a client op: connections map 1:1 to `ClientId`.
    pub(super) fn tid_of(client: ClientId, op: OpId) -> TraceId {
        TraceId::from_conn_op(client.0, op.0)
    }

    /// Appends one op to this part's trace log (no-op when tracing is off).
    pub(super) fn trace_log(&mut self, at: SimTime, op: TraceOp) {
        if let Some(tr) = self.trace.as_mut() {
            tr.log.push((at, op));
        }
    }

    /// The trace ref a replicated-write sub-message belongs to.
    /// `Repop` is keyed by the *sender* (the primary);
    /// acks are keyed by the *receiver* (also the primary). Replay
    /// resolves the key; an unregistered key simply drops the span, the
    /// same way the old inline lookup returned `None`.
    pub(super) fn trace_of_peer_msg(
        &self,
        primary_osd: u32,
        from: OsdId,
        msg: &PeerMsg,
    ) -> Option<TraceRef> {
        self.trace.as_ref()?;
        match msg {
            PeerMsg::Repop { seq, .. } => Some(TraceRef::Rep(from.0, *seq)),
            PeerMsg::RepAck { seq, .. } | PeerMsg::RepNack { seq, .. } => {
                Some(TraceRef::Rep(primary_osd, *seq))
            }
            _ => None,
        }
    }

    /// Classifies a store token back to the client op it serves.
    fn trace_of_store_op(&self, op: StoreTokenOp) -> Option<TraceRef> {
        self.trace.as_ref()?;
        match op {
            StoreTokenOp::PrimaryWrite { client, op } | StoreTokenOp::Read { client, op } => {
                Some(TraceRef::Tid(Self::tid_of(client, op)))
            }
            StoreTokenOp::ReplicaPersist { primary, seq } => Some(TraceRef::Rep(primary.0, seq)),
            StoreTokenOp::Flush | StoreTokenOp::Background => None,
        }
    }

    /// Trace ref of the op behind a store token (a pending device I/O, a
    /// deferred read or a deferred submit), if any.
    fn trace_of_token(&self, osd: usize, token: u64) -> Option<TraceRef> {
        self.osd(osd)
            .token_op(token)
            .and_then(|op| self.trace_of_store_op(op))
    }

    /// Resolves the trace ref an OSD input belongs to, *before* the input
    /// is handled (the lookups consult OSD state the handler consumes).
    pub(super) fn trace_of_input(&self, osd: usize, input: &OsdInput) -> Option<TraceRef> {
        self.trace.as_ref()?;
        match input {
            OsdInput::Client { from, req } => Some(TraceRef::Tid(Self::tid_of(*from, req.op()))),
            OsdInput::Peer { from, msg } => self.trace_of_peer_msg(self.osd(osd).id.0, *from, msg),
            OsdInput::StoreDurable { token }
            | OsdInput::ReadFromStore { token }
            | OsdInput::SubmitDeferred { token } => self.trace_of_token(osd, *token),
            _ => None,
        }
    }

    /// Span label for the stage an input runs in (mirrors `charge_input`).
    pub(super) fn input_span_name(&self, input: &OsdInput) -> &'static str {
        match input {
            OsdInput::Client { req, .. } => match req {
                ClientReq::Read { .. } => "rp.read",
                _ => "rp.primary",
            },
            OsdInput::Peer { msg, .. } => match msg {
                PeerMsg::Repop { .. } if self.topo.cfg.osd.mode.decoupled() => "rp.replica_nvm",
                PeerMsg::Repop { .. } => "rp.replica",
                PeerMsg::RepAck { .. } | PeerMsg::RepNack { .. } => "rp.ack",
                _ => "tp.recovery",
            },
            OsdInput::StoreDurable { .. } => "tp.complete",
            OsdInput::ReadFromStore { .. } => "os.read",
            OsdInput::SubmitDeferred { .. } => "os.submit",
            OsdInput::FlushGroup { .. } => "os.flush",
            _ => "osd",
        }
    }

    /// The fixed NVM-append CPU `charge_input` folds into this input, in
    /// nanoseconds (attributed to `Component::Nvm`, not `Service`).
    pub(super) fn nvm_charge_of(&self, input: &OsdInput) -> u64 {
        match input {
            OsdInput::Client { req, .. }
                if matches!(req, ClientReq::Write { .. } | ClientReq::Create { .. })
                    && self.topo.cfg.osd.mode.decoupled() =>
            {
                self.topo.cfg.costs.nvm_append.as_nanos()
            }
            OsdInput::Peer {
                msg: PeerMsg::Repop { .. },
                ..
            } if self.topo.cfg.osd.mode.decoupled() => self.topo.cfg.costs.nvm_append.as_nanos(),
            _ => 0,
        }
    }

    /// Records the queue-wait / stage-service / NVM spans for one handled
    /// OSD input. Called after the handler ran, so `ctx.spent_so_far()`
    /// covers the item's full CPU charge.
    pub(super) fn trace_osd_work(
        &mut self,
        ctx: &Ctx<'_, Ev>,
        osd: usize,
        id: TraceRef,
        name: &'static str,
        nvm_static_ns: u64,
    ) {
        let Some(tr) = self.trace.as_mut() else {
            return;
        };
        let now = ctx.now();
        let track = Track::Osd(osd as u32);
        tr.queue_span(ctx, id, track);
        let nvm_ns = nvm_static_ns + std::mem::take(&mut tr.pending_nvm);
        let service = ctx.spent_so_far().as_nanos().saturating_sub(nvm_ns);
        let service = SimDuration::nanos(service);
        let work = TraceOp::Span(id, name, track, now, service, Component::Service);
        tr.log.push((now, work));
        if nvm_ns > 0 {
            let nvm = SimDuration::nanos(nvm_ns);
            let append = TraceOp::Span(id, "nvm.append", track, now, nvm, Component::Nvm);
            tr.log.push((now, append));
        }
    }

    /// Records queue-wait plus messenger CPU for a relay-thread hop.
    pub(super) fn trace_relay_work(
        &mut self,
        ctx: &Ctx<'_, Ev>,
        osd: usize,
        id: TraceRef,
        name: &'static str,
    ) {
        let Some(tr) = self.trace.as_mut() else {
            return;
        };
        let now = ctx.now();
        let track = Track::Osd(osd as u32);
        tr.queue_span(ctx, id, track);
        let work = TraceOp::Span(id, name, track, now, ctx.spent_so_far(), Component::Service);
        tr.log.push((now, work));
    }

    /// Joins an outgoing `Repop` to its parent op so the
    /// replay can resolve replica-side and ack-side refs. The sender's
    /// part logs the registration at send time; any consumer of the key
    /// runs at least one network lookahead later in simulated time, so
    /// the replay merge always sees the registration first.
    pub(super) fn trace_register_rep(
        &mut self,
        ctx: &Ctx<'_, Ev>,
        osd: usize,
        msg: &PeerMsg,
        cur: Option<TraceRef>,
    ) {
        // `cur` is only ever set with tracing on.
        if let (Some(id), PeerMsg::Repop { seq, .. }) = (cur, msg) {
            let (primary, seq) = (self.osd(osd).id.0, *seq);
            self.trace_log(ctx.now(), TraceOp::RegisterRep { primary, seq, id });
        }
    }

    /// Opens the device-queue span of a waited-for store token: closed by
    /// the last `IoDone` for the token. The estimate charges device time
    /// from the moment the submitting item's CPU is spent (I/O overlaps any
    /// later CPU in the same item).
    pub(super) fn trace_io_submitted(&mut self, ctx: &Ctx<'_, Ev>, osd: usize, token: u64) {
        if self.trace.is_none() {
            return;
        }
        if let Some(id) = self.trace_of_token(osd, token) {
            let at = SimTime::from_nanos(ctx.now().nanos() + ctx.spent_so_far().as_nanos());
            if let Some(tr) = self.trace.as_mut() {
                tr.io_trace.insert((osd, token), (id, at));
            }
        }
    }

    /// Closes the device-queue span (submit → last completion) and returns
    /// the op the token served.
    pub(super) fn trace_io_done(
        &mut self,
        now: SimTime,
        osd: usize,
        token: u64,
    ) -> Option<TraceRef> {
        let tr = self.trace.as_mut()?;
        tr.pending_nvm = 0;
        let (id, submitted) = tr.io_trace.remove(&(osd, token))?;
        let dur = now.saturating_since(submitted);
        let track = Track::Osd(osd as u32);
        let device = TraceOp::Span(id, "device", track, submitted, dur, Component::Device);
        tr.log.push((now, device));
        Some(id)
    }
}

impl ClusterSim {
    /// Chrome trace-event JSON (Perfetto-loadable) of the slow-op ring plus the
    /// telemetry counter tracks; `None` when tracing is off. Each span carries
    /// the shard (domain) that executed it, and the export includes a
    /// shard-topology process so Perfetto shows which OSDs ran on which shard.
    pub fn trace_chrome_json(&self) -> Option<String> {
        let rec = self.replay_recorder()?;
        let shard_of_osd: Vec<u32> = (0..self.osd_count)
            .map(|i| self.part_of_osd(i) as u32)
            .collect();
        Some(chrome_trace_json(
            &rec.report().slow_ops,
            Some(&self.timeseries),
            Some(&shard_of_osd),
        ))
    }

    /// Replays the per-part trace logs into one [`Recorder`].
    ///
    /// Each part logs `(time, op)` pairs while its domain executes; the replay
    /// merges them in `(time, part, log-index)` order — a total order that
    /// depends only on the partition (fixed at construction), never on the
    /// worker count. Replica-side spans reference their op by `(primary, seq)`
    /// and are resolved against the registrations the primaries logged, which
    /// always precede them in merged order because cross-domain messages travel
    /// at least one lookahead window apart. `None` when tracing is off.
    pub(super) fn replay_recorder(&self) -> Option<Recorder> {
        self.parts[0].trace.as_ref()?;
        let mut entries: Vec<(SimTime, usize, usize, &TraceOp)> = Vec::new();
        for (pi, part) in self.parts.iter().enumerate() {
            if let Some(tr) = part.trace.as_deref() {
                for (idx, (at, op)) in tr.log.iter().enumerate() {
                    entries.push((*at, pi, idx, op));
                }
            }
        }
        entries.sort_by_key(|&(at, pi, idx, _)| (at, pi, idx));
        let mut rec = Recorder::new(self.topo.cfg.slow_op_ring);
        let mut rep: HashMap<(u32, u64), TraceId> = HashMap::new();
        let resolve = |rep: &HashMap<(u32, u64), TraceId>, r: TraceRef| match r {
            TraceRef::Tid(id) => Some(id),
            TraceRef::Rep(p, s) => rep.get(&(p, s)).copied(),
        };
        let mut pending_reset = self.trace_reset_at;
        for (at, _, _, op) in entries {
            // Drop warmup aggregates once the measured phase starts
            // (warmup's run_until horizon is inclusive, so entries at
            // exactly t0 still belong to warmup).
            if pending_reset.is_some_and(|t0| at > t0) {
                rec.reset_window();
                pending_reset = None;
            }
            match *op {
                TraceOp::Begin { id, is_write } => rec.begin(id, is_write, at),
                TraceOp::Span(id, name, track, start, dur, comp) => {
                    if let Some(id) = resolve(&rep, id) {
                        rec.span(id, name, track, start, dur, comp);
                    }
                }
                TraceOp::Retry(id) => rec.retry(id),
                TraceOp::RegisterRep { primary, seq, id } => {
                    if let Some(id) = resolve(&rep, id) {
                        if rep.insert((primary, seq), id).is_none() {
                            rec.note_rep_key(id, primary, seq);
                        }
                    }
                }
                TraceOp::Finish(id) => {
                    if let Some(fin) = rec.finish(id, at) {
                        for k in fin.rep_keys {
                            rep.remove(&k);
                        }
                    }
                }
                TraceOp::Abandon(id) => {
                    if let Some(keys) = rec.abandon(id) {
                        for k in keys {
                            rep.remove(&k);
                        }
                    }
                }
            }
        }
        Some(rec)
    }
}
