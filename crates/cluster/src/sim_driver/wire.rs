//! The wire: every message that crosses a link, in either twin of each
//! direction. A relay mode (`Original`, `Cos`) passes each message through
//! a messenger thread on both ends; the other modes send from the thread
//! that produced the message and deliver to the thread that handles it —
//! except that under PTC a non-priority thread still hands its sends to a
//! priority thread (§IV-B). Whichever way, one function per direction does
//! the same things in the same order: spend the send CPU, ask the fault plan
//! for the message's fate (the RNG draw), charge the link, trace, schedule
//! the duplicate if there is one, deliver.

use rablock_sim::{Component, Ctx, SimDuration, SimTime, ThreadId, Track};
use rablock_storage::{GroupId, StoreError};

use super::tracing::{TraceOp, TraceRef};
use super::world::{Ev, World};
use super::MON_NODE;
use crate::costs::{CLIENT, MP};
use crate::msg::{ClientId, ClientReply, ClientReq, MonMsg, PeerMsg};
use crate::osd::{OsdInput, Threading};
use crate::placement::OsdId;

impl World {
    /// Pseudo-node index of the client side in partition queries (one past
    /// the last storage node; also the index of the clients' shared link).
    fn client_node(&self) -> usize {
        self.topo.cfg.nodes as usize
    }

    /// One message of `bytes` leaves this part's node for node `dst`: the fault
    /// plan decides its fate, then it takes its turn on the egress link. `None`
    /// when the message is dropped, otherwise the delay until it arrives and,
    /// when a duplicate must also be delivered, how long after the original.
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        dst: usize,
        bytes: u64,
    ) -> Option<(SimDuration, Option<SimDuration>)> {
        let now = ctx.now();
        let (mut extra, mut dup) = (SimDuration::ZERO, None);
        let faults = &self.topo.cfg.faults;
        if !faults.is_empty() {
            let f = faults.message_fate(self.node, self.node, dst, now, ctx.rng());
            if f.dropped {
                return None;
            }
            (extra, dup) = (f.extra_delay, f.duplicated.then_some(f.dup_gap));
        }
        let arrive = self.link.transfer(now, bytes);
        Some((arrive.duration_since(now) + extra, dup))
    }

    /// Transmits `req` from `conn` toward the group's current primary,
    /// paying client CPU, link transfer and the plan's message fates.
    /// `hold` delays the transmission itself (retry backoff). A dropped
    /// message simply never arrives — the op stays outstanding until its
    /// retry timer fires (or forever, without a retry policy).
    pub(super) fn send_client_req(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        conn: usize,
        req: ClientReq,
        hold: SimDuration,
        redirect: u32,
    ) {
        let group = req.oid().group();
        // Reads that bounced off a rotten replica rotate through the acting
        // set (redirect > 0) instead of re-reading the same damaged copy;
        // writes and first transmissions always target the primary.
        let target = if redirect > 0 && matches!(req, ClientReq::Read { .. }) {
            let set = self.map.acting_set(group);
            (!set.is_empty()).then(|| set[redirect as usize % set.len()])
        } else {
            self.map.try_primary(group)
        };
        let Some(primary) = target else {
            // Every OSD that could serve the group is down or weighted out:
            // a send can race a map change, so this must not panic. Surface
            // a retryable Degraded error — with a retry policy the op is
            // re-queued until a survivor map arrives, without one it is
            // accounted as a client error.
            let reply = ClientReply::Error {
                op: req.op(),
                error: StoreError::Degraded,
            };
            let thread = self.conns[conn].thread;
            ctx.send_after(
                thread,
                Ev::ClientDone { conn, reply },
                hold + SimDuration::micros(1),
            );
            return;
        };
        let osd = primary.0 as usize;
        let bytes = req.wire_bytes();
        ctx.spend(CLIENT, SimDuration::micros(2));
        let Some((delay, dup)) = self.transmit(ctx, self.topo.threads[osd].node, bytes) else {
            return;
        };
        let delay = delay + hold;
        let from = self.conns[conn].id;
        if self.trace.is_some() {
            let now = ctx.now();
            let id = TraceRef::Tid(Self::tid_of(from, req.op()));
            let track = Track::Client(from.0);
            if !hold.is_zero() {
                // Retry backoff: the op sits on the client before the
                // retransmission leaves.
                self.trace_log(
                    now,
                    TraceOp::Span(id, "retry.backoff", track, now, hold, Component::Retry),
                );
            }
            let leaves = SimTime::from_nanos(now.nanos() + hold.as_nanos());
            let flight = delay.saturating_sub(hold);
            self.trace_log(
                now,
                TraceOp::Span(id, "net.request", track, leaves, flight, Component::Network),
            );
        }
        let via = (self.topo.threading == Threading::Pool).then_some(conn as u64);
        if let Some(gap) = dup {
            let req = req.clone();
            let (t, ev) = self.arrival(osd, OsdInput::Client { from, req }, bytes, via);
            ctx.send_after(t, ev, delay + gap);
        }
        let (t, ev) = self.arrival(osd, OsdInput::Client { from, req }, bytes, via);
        ctx.send_after(t, ev, delay);
    }

    /// Where a client request or peer message lands at `osd`: on one of its
    /// messenger threads (picked by the hint in `via`) when it left through
    /// one, else on the lane that handles it, with the receive CPU attached.
    fn arrival(&self, osd: usize, input: OsdInput, bytes: u64, via: Option<u64>) -> (ThreadId, Ev) {
        match via {
            Some(hint) => {
                let t = self.frontend_thread(osd, hint);
                (t, Ev::MsgrIn { osd, input, bytes })
            }
            None => (self.lane(osd, &input), Ev::osd_in(osd, input, Some(bytes))),
        }
    }

    /// The thread an input for `osd` that arrives from outside is handled on:
    /// the logic thread of its group — so replication acks return to the
    /// thread that owns the operation — except that under PTC background
    /// traffic (peering, pushes, backfill, scrub) rides the low-priority
    /// flusher threads, so foreground IOPS degrade gracefully.
    pub(super) fn lane(&self, osd: usize, input: &OsdInput) -> ThreadId {
        let (group, background) = match input {
            OsdInput::Client { req, .. } => (req.oid().group(), false),
            OsdInput::Peer { msg, .. } => (msg.group(), msg.is_recovery()),
            OsdInput::ScrubStart { group, .. } => (*group, true),
            _ => (GroupId(0), false), // map updates
        };
        if background && self.topo.threading == Threading::Prioritized {
            self.flusher_thread(osd, group.0 as u64)
        } else {
            self.logic_thread(osd, group)
        }
    }

    /// (Messenger thread) the receive hop of a relayed client request or
    /// peer message: pay the receive CPU here, then hand the input to the
    /// thread that handles it.
    pub(super) fn on_msgr_in(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        osd: usize,
        input: OsdInput,
        bytes: u64,
    ) {
        ctx.spend(MP, self.topo.cfg.costs.recv(bytes, self.topo.lean));
        if let Some(id) = self.trace_of_input(osd, &input) {
            self.trace_relay_work(ctx, osd, id, "mp.recv");
        }
        let t = self.lane(osd, &input);
        ctx.send(t, Ev::osd_in(osd, input, None));
    }

    /// Sends `msg` from `osd` to its peer `to`; `relayed` when a messenger
    /// (or, off-priority, a priority) thread sends on the producer's behalf.
    pub(super) fn send_peer(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        osd: usize,
        to: OsdId,
        msg: PeerMsg,
        relayed: bool,
    ) {
        let bytes = msg.wire_bytes();
        ctx.spend(MP, self.topo.cfg.costs.send(bytes, self.topo.lean));
        let dest = to.0 as usize;
        let Some((delay, dup)) = self.transmit(ctx, self.topo.threads[dest].node, bytes) else {
            return;
        };
        let from = self.osd(osd).id;
        // Outgoing direction: replication ops key on the sender (this OSD),
        // acks on the receiver (`to`).
        if let Some(id) = self.trace_of_peer_msg(to.0, from, &msg) {
            if relayed {
                self.trace_relay_work(ctx, osd, id, "mp.send");
            }
            let (now, track) = (ctx.now(), Track::Osd(to.0));
            self.trace_log(
                now,
                TraceOp::Span(id, "net.peer", track, now, delay, Component::Network),
            );
        }
        let via = relayed.then_some(from.0 as u64);
        if let Some(gap) = dup {
            let msg = msg.clone();
            let (t, ev) = self.arrival(dest, OsdInput::Peer { from, msg }, bytes, via);
            ctx.send_after(t, ev, delay + gap);
        }
        let (t, ev) = self.arrival(dest, OsdInput::Peer { from, msg }, bytes, via);
        ctx.send_after(t, ev, delay);
    }

    /// Sends `reply` from `osd` to the client connection `to`; `relayed` as
    /// for [`World::send_peer`].
    pub(super) fn send_reply(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        osd: usize,
        to: ClientId,
        reply: ClientReply,
        relayed: bool,
    ) {
        let bytes = reply.wire_bytes();
        ctx.spend(MP, self.topo.cfg.costs.send(bytes, self.topo.lean));
        let Some((delay, dup)) = self.transmit(ctx, self.client_node(), bytes) else {
            return;
        };
        if self.trace.is_some() {
            let id = TraceRef::Tid(Self::tid_of(to, reply.op()));
            if relayed {
                self.trace_relay_work(ctx, osd, id, "mp.send");
            }
            let (now, track) = (ctx.now(), Track::Client(to.0));
            self.trace_log(
                now,
                TraceOp::Span(id, "net.reply", track, now, delay, Component::Network),
            );
        }
        let conn = to.0 as usize;
        let ct = self.topo.conn_threads[conn];
        if let Some(gap) = dup {
            let reply = reply.clone();
            ctx.send_after(ct, Ev::ClientDone { conn, reply }, delay + gap);
        }
        ctx.send_after(ct, Ev::ClientDone { conn, reply }, delay);
    }

    /// Sends `osd`'s liveness beacon to the monitor. Heartbeats cross the
    /// node's egress link and can be cut off from the monitor by a
    /// [`MON_NODE`] partition.
    pub(super) fn send_heartbeat(&mut self, ctx: &mut Ctx<'_, Ev>, osd: usize) {
        let beacon = MonMsg::Heartbeat {
            osd: self.osd(osd).id,
        };
        let bytes = beacon.wire_bytes();
        ctx.spend(MP, self.topo.cfg.costs.send(bytes, self.topo.lean));
        if let Some((delay, dup)) = self.transmit(ctx, MON_NODE, bytes) {
            let mt = self.topo.conn_threads[0];
            ctx.send_after(mt, Ev::MonHeartbeat { osd }, delay);
            if let Some(gap) = dup {
                ctx.send_after(mt, Ev::MonHeartbeat { osd }, delay + gap);
            }
        }
    }
}
