//! The simulated world: the event vocabulary, the handler state of one
//! engine domain, and what happens when an OSD runs — an input is charged
//! its stage CPU, handled by the state machine, and its effects turned back
//! into events, device I/O and messages.

use std::sync::Arc;

use rablock_sim::{Ctx, FaultEvent, Handler, IoRequest, Link, SimDuration, ThreadId};
use rablock_storage::{FxHashMap, GroupId, Payload, TraceIo, TraceKind};

use super::client::{ConnState, LatencyRecorder};
use super::topology::Topology;
use super::tracing::{PartTrace, TraceRef};
use crate::costs::{MP, MT, OS, RP, TP};
use crate::invariants::HistoryChecker;
use crate::msg::{ClientId, ClientReply, ClientReq, PeerMsg};
use crate::osd::{Osd, OsdEffect, OsdInput};
use crate::placement::{Monitor, OsdId, OsdMap};

/// Simulation events.
pub(super) enum Ev {
    /// (Client thread) issue more work on a connection.
    ClientKick { conn: usize },
    /// (Client thread) a reply arrived for a connection.
    ClientDone { conn: usize, reply: ClientReply },
    /// (Messenger thread) relay an inbound client request or peer message
    /// of `bytes` on the wire (Original/Cos, and sends that left through a
    /// priority thread under PTC).
    MsgrIn {
        osd: usize,
        input: OsdInput,
        bytes: u64,
    },
    /// (Messenger thread) relay an outbound reply (Original/Cos).
    MsgrReplyOut {
        osd: usize,
        to: ClientId,
        reply: ClientReply,
    },
    /// (Messenger thread) relay an outbound peer message (Original/Cos).
    MsgrPeerOut { osd: usize, to: OsdId, msg: PeerMsg },
    /// (Logic thread) process an OSD input; `charge_mp` if the messenger
    /// work happens in the same item (non-relay modes).
    OsdIn {
        osd: usize,
        input: OsdInput,
        charge_mp: Option<u64>,
    },
    /// (Any) one device I/O of a store token completed.
    IoDone { osd: usize, token: u64 },
    /// (Flusher thread) periodic timeout flush of pending groups.
    FlushSweep { osd: usize },
    /// (Maintenance thread) drip-feed one background I/O to the device —
    /// models the compaction I/O throttling every real LSM applies so
    /// background bursts do not jam the foreground queue.
    BgIo {
        osd: usize,
        ios: Vec<TraceIo>,
        pos: usize,
    },
    /// (The target OSD's maintenance thread) a timed fault from the plan: a
    /// process crash or restart, a gray-failure window edge, or media rot.
    /// Nobody else is told of a crash: detection happens through missed
    /// heartbeats (§IV-A-4 step ② is the monitor's own conclusion, not an
    /// oracle's). `seed` drives a rot strike's self-contained target stream
    /// (never the scheduler RNG), so every shard count rots the same bits.
    Fault { fault: FaultEvent, seed: u64 },
    /// (Frontend thread) an OSD's heartbeat timer fired.
    HeartbeatTick { osd: usize },
    /// (Monitor thread) a heartbeat beacon arrived at the monitor.
    MonHeartbeat { osd: usize },
    /// (Monitor thread) the monitor's periodic liveness sweep.
    MonSweep,
    /// (Client thread) the retry timer for an outstanding op fired.
    ClientTimeout { conn: usize, op: u64, attempt: u32 },
    /// (Driver thread) a scheduled admin map mutation (grow/drain/reweight)
    /// reaches the monitor. Index into the config's churn plan.
    Churn { idx: usize },
    /// (Driver thread) periodic scrub sweep: ask every group's live primary
    /// to start a scrub round.
    ScrubSweep { round: u64 },
}

impl Ev {
    /// (Logic thread) `input` for `osd`; `charge_mp` carries the message's
    /// wire bytes when no messenger thread paid the receive CPU.
    pub(super) fn osd_in(osd: usize, input: OsdInput, charge_mp: Option<u64>) -> Ev {
        Ev::OsdIn {
            osd,
            input,
            charge_mp,
        }
    }
}

#[derive(Default)]
pub(super) struct RtcGate {
    busy: bool,
    deferred: std::collections::VecDeque<Ev>,
}

/// The handler state of one engine domain: part 0 = clients + monitor +
/// driver, part `1 + n` = storage node `n`. The engine routes every event to
/// the part owning its target thread, so each part only ever touches the
/// state it owns.
pub(super) struct World {
    /// This part's node index in fault-plan queries: storage node `n`, or
    /// the client pseudo-node (one past the last storage node) for part 0.
    pub(super) node: usize,
    /// The immutable wiring, shared by all parts.
    pub(super) topo: Arc<Topology>,
    /// This part's view of the cluster map. Part 0 (the monitor's part)
    /// installs new epochs directly; storage parts converge through the
    /// `MapUpdate` inputs the monitor broadcasts (monotone by epoch).
    pub(super) map: OsdMap,
    /// The OSDs this part owns, by id from `first_osd` (its node's
    /// contiguous range; none for part 0).
    pub(super) osds: Vec<Osd>,
    /// Global id of `osds[0]`.
    pub(super) first_osd: usize,
    /// Part 0 only (client events execute there); empty elsewhere.
    pub(super) conns: Vec<ConnState>,
    /// This part's egress link: the node's, or the clients' shared one.
    pub(super) link: Link,
    pub(super) io_wait: FxHashMap<(usize, u64), usize>,
    /// Per owned OSD (indexed like `osds`): failed, so its events are
    /// dropped.
    pub(super) dead: Vec<bool>,
    /// Run-to-completion gating: a busy RTC thread defers new client
    /// requests until the in-flight operation replies (paper §III-B).
    pub(super) rtc_gate: FxHashMap<ThreadId, RtcGate>,
    pub(super) write_lat: LatencyRecorder,
    pub(super) read_lat: LatencyRecorder,
    pub(super) writes_done: u64,
    pub(super) reads_done: u64,
    /// The monitor: authoritative map plus heartbeat bookkeeping. Real on
    /// part 0, an inert placeholder elsewhere.
    pub(super) monitor: Monitor,
    /// Per owned OSD: the pending torn-tail flag of a crash, applied at
    /// restart.
    pub(super) crash_torn: Vec<bool>,
    /// Safety-invariant checker, when armed.
    pub(super) checker: Option<HistoryChecker>,
    pub(super) client_errors: u64,
    /// Reusable effect buffer: `Osd::handle_into` appends here and
    /// `apply_effects` drains it, so the per-event `Vec` allocation the
    /// old `handle()` return paid is gone from the hot loop.
    pub(super) fx_scratch: Vec<OsdEffect>,
    /// Interned write payloads keyed by `(fill, len)`. Workload generators
    /// produce constant-fill buffers, so identical ops can share one
    /// allocation (a `Payload` clone is a refcount bump) instead of paying
    /// a fresh memset + copy per issued write.
    pub(super) payload_cache: FxHashMap<(u8, u64), Payload>,
    /// Per-op span tracing; `None` when disabled (the common case).
    pub(super) trace: Option<Box<PartTrace>>,
}

impl World {
    /// The index in `osds` of OSD `i`, which must be owned by this part.
    pub(super) fn local(&self, i: usize) -> usize {
        match i.checked_sub(self.first_osd) {
            Some(at) if at < self.osds.len() => at,
            _ => panic!("OSD {i} not owned by this part (event routed to wrong domain)"),
        }
    }

    /// The given OSD, which must be owned by this part.
    pub(super) fn osd(&self, i: usize) -> &Osd {
        &self.osds[self.local(i)]
    }

    /// The given OSD, mutably; must be owned by this part.
    pub(super) fn osd_mut(&mut self, i: usize) -> &mut Osd {
        let at = self.local(i);
        &mut self.osds[at]
    }

    /// Whether OSD `i`, which must be owned by this part, has failed.
    pub(super) fn is_dead(&self, i: usize) -> bool {
        self.dead[self.local(i)]
    }

    /// Runs one OSD input through the reusable effect scratch buffer.
    /// `cur` is the trace ref the input belongs to (span attribution for
    /// the effects it emits); `None` when untraced or tracing is off.
    pub(super) fn handle_with_scratch(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
        input: OsdInput,
        cur: Option<TraceRef>,
    ) {
        // A batch flush is charged its store CPU per record, as the trace
        // is replayed.
        let flush_batch = matches!(input, OsdInput::FlushGroup { .. });
        let mut fx = std::mem::take(&mut self.fx_scratch);
        fx.clear();
        self.osd_mut(osd).handle_into(input, &mut fx);
        self.apply_effects(ctx, thread, osd, &mut fx, flush_batch, cur);
        self.fx_scratch = fx;
    }

    pub(super) fn frontend_thread(&self, osd: usize, conn_hint: u64) -> ThreadId {
        let t = &self.topo.threads[osd].msgr;
        t[(conn_hint as usize) % t.len()]
    }

    pub(super) fn logic_thread(&self, osd: usize, group: GroupId) -> ThreadId {
        let t = &self.topo.threads[osd].logic;
        t[group.0 as usize % t.len()]
    }

    pub(super) fn flusher_thread(&self, osd: usize, hint: u64) -> ThreadId {
        let t = &self.topo.threads[osd].flusher;
        if t.is_empty() {
            self.logic_thread(osd, GroupId(hint as u32 % self.topo.cfg.pg_count))
        } else {
            t[hint as usize % t.len()]
        }
    }

    /// Charges stage CPU for processing `input` on the current thread.
    pub(super) fn charge_input(
        &self,
        ctx: &mut Ctx<'_, Ev>,
        input: &OsdInput,
        charge_mp: Option<u64>,
    ) {
        let (c, mode) = (&self.topo.cfg.costs, self.topo.cfg.osd.mode);
        if let Some(bytes) = charge_mp {
            ctx.spend(MP, c.recv(bytes, self.topo.lean));
        }
        let os_submit = if mode.lsm_backend() {
            c.os_lsm_submit
        } else {
            c.os_cos_submit
        };
        match input {
            OsdInput::Client { req, .. } => match req {
                ClientReq::Write { .. } | ClientReq::Create { .. } => {
                    ctx.spend(RP, c.rp_primary);
                    if mode.null_transaction() {
                        // MP+RP only.
                    } else if mode.decoupled() {
                        ctx.spend(RP, c.nvm_append);
                    } else if mode.prioritized() {
                        // PTC: TP/OS charged when the non-priority thread
                        // runs the deferred submit.
                    } else {
                        ctx.spend(TP, c.tp);
                        if !mode.null_store() {
                            ctx.spend(OS, os_submit);
                        }
                    }
                }
                ClientReq::Read { .. } => {
                    if mode.null_transaction() {
                        // immediate reply
                    } else if mode.decoupled() {
                        ctx.spend(RP, c.log_read);
                    } else if mode.prioritized() {
                        ctx.spend(RP, c.wake);
                    } else {
                        ctx.spend(TP, c.tp);
                        ctx.spend(OS, c.os_read);
                    }
                }
            },
            OsdInput::Peer { msg, .. } => match msg {
                PeerMsg::Repop { .. } => {
                    ctx.spend(RP, c.rp_replica);
                    if mode.decoupled() {
                        ctx.spend(RP, c.nvm_append);
                    } else if !mode.null_transaction() && !mode.null_store() && !mode.prioritized()
                    {
                        ctx.spend(TP, c.tp);
                        ctx.spend(OS, os_submit);
                    }
                }
                PeerMsg::RepAck { .. } | PeerMsg::RepNack { .. } => ctx.spend(RP, c.tp_complete),
                // Peering, recovery and scrub traffic (`PeerMsg::is_recovery`).
                _ => ctx.spend(TP, c.tp),
            },
            OsdInput::StoreDurable { .. } => ctx.spend(TP, c.tp_complete),
            OsdInput::FlushGroup { .. } => {
                // Per-record costs are charged via the StoreIo trace below.
            }
            OsdInput::ReadFromStore { .. } => ctx.spend(OS, c.os_read),
            OsdInput::SubmitDeferred { .. } => {
                ctx.spend(TP, c.tp);
                ctx.spend(OS, os_submit);
            }
            OsdInput::ScrubStart { .. } => ctx.spend(TP, c.tp),
            OsdInput::MaintStep => {}
            OsdInput::HeartbeatTick => ctx.spend(RP, c.wake),
            OsdInput::MapUpdate(_) => ctx.spend(TP, c.tp),
        }
    }

    fn apply_effects(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
        effects: &mut Vec<OsdEffect>,
        flush_batch: bool,
        cur: Option<TraceRef>,
    ) {
        // §IV-B: under PTC a non-priority thread hands its sends to a priority
        // thread, as every thread of a relay mode hands them to a messenger.
        let via_frontend = self.topo.relay
            || self.topo.cfg.osd.mode.prioritized()
                && !self.topo.threads[osd].msgr.contains(&thread);
        for effect in effects.drain(..) {
            match effect {
                OsdEffect::SendPeer { to, msg } => {
                    // Register replication sub-ops while the originating
                    // op's trace ref is in hand (the relayed send re-resolves
                    // the ref when it leaves).
                    self.trace_register_rep(ctx, osd, &msg, cur);
                    if via_frontend {
                        let t = self.frontend_thread(osd, to.0 as u64);
                        ctx.send(t, Ev::MsgrPeerOut { osd, to, msg });
                    } else {
                        self.send_peer(ctx, osd, to, msg, false);
                    }
                }
                OsdEffect::Reply { to, msg } => {
                    if self.topo.cfg.osd.mode.run_to_completion() {
                        if let Some(gate) = self.rtc_gate.get_mut(&thread) {
                            gate.busy = false;
                            if let Some(ev) = gate.deferred.pop_front() {
                                ctx.send(thread, ev);
                            }
                        }
                    }
                    if via_frontend {
                        let t = self.frontend_thread(osd, to.0 as u64);
                        let reply = msg;
                        ctx.send(t, Ev::MsgrReplyOut { osd, to, reply });
                    } else {
                        self.send_reply(ctx, osd, to, msg, false);
                    }
                }
                OsdEffect::StoreIo { token, trace, wait } => {
                    if wait {
                        self.trace_io_submitted(ctx, osd, token);
                    }
                    let dev = self.topo.threads[osd].device;
                    if !wait {
                        // Background work (compaction, write-back): throttle
                        // the I/Os so they interleave with foreground ops,
                        // as RocksDB's rate limiter does.
                        let ios: Vec<_> = trace
                            .into_iter()
                            .filter(|io| !matches!(io.kind, TraceKind::Flush))
                            .collect();
                        if !ios.is_empty() {
                            ctx.send(thread, Ev::BgIo { osd, ios, pos: 0 });
                        }
                        continue;
                    }
                    let mut ios = 0usize;
                    for io in &trace {
                        let req = match io.kind {
                            TraceKind::Read => IoRequest::read(io.bytes),
                            TraceKind::Write => IoRequest::write(io.bytes),
                            TraceKind::Flush => continue,
                        };
                        ios += 1;
                        ctx.submit_io(dev, req, thread, Ev::IoDone { osd, token });
                        if flush_batch && io.kind == TraceKind::Write {
                            // Amortized per-record store CPU for batch flushes.
                            ctx.spend(OS, self.topo.cfg.costs.os_cos_submit);
                        }
                    }
                    if ios == 0 {
                        ctx.send(thread, Ev::IoDone { osd, token });
                        self.io_wait.insert((osd, token), 1);
                    } else {
                        self.io_wait.insert((osd, token), ios);
                    }
                }
                OsdEffect::NvmWritten { bytes } => {
                    let cost = self.topo.cfg.costs.nvm_per_byte * bytes;
                    ctx.spend(RP, cost);
                    if let Some(tr) = self.trace.as_mut() {
                        // Folded out of the item's service span into the
                        // Nvm component by `trace_osd_work`.
                        tr.pending_nvm += cost.as_nanos();
                    }
                }
                OsdEffect::WakeFlush { group } => {
                    self.wake(ctx, osd, group.0 as u64, OsdInput::FlushGroup { group })
                }
                OsdEffect::WakeRead { token } => {
                    self.wake(ctx, osd, token, OsdInput::ReadFromStore { token })
                }
                OsdEffect::WakeSubmit { token } => {
                    self.wake(ctx, osd, token, OsdInput::SubmitDeferred { token })
                }
                OsdEffect::WakeMaintenance => {
                    let t = self.topo.threads[osd].maint;
                    ctx.send(t, Ev::osd_in(osd, OsdInput::MaintStep, None));
                }
                OsdEffect::Heartbeat => self.send_heartbeat(ctx, osd),
                OsdEffect::Maintained { bytes, .. } => {
                    ctx.spend(MT, self.topo.cfg.costs.maintenance(bytes));
                }
            }
        }
    }

    /// Wakes one of `osd`'s non-priority threads (picked by `hint`) with
    /// `input`.
    fn wake(&self, ctx: &mut Ctx<'_, Ev>, osd: usize, hint: u64, input: OsdInput) {
        ctx.spend(RP, self.topo.cfg.costs.wake);
        let t = self.flusher_thread(osd, hint);
        ctx.send(t, Ev::osd_in(osd, input, None));
    }

    /// (Logic thread) one OSD input: gate it, charge it, handle it, trace it.
    fn on_osd_in(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
        input: OsdInput,
        charge_mp: Option<u64>,
    ) {
        // Track the monitor's broadcasts in this part's own map
        // view (monotone by epoch) — even for dead OSDs, since the
        // part-level view stands in for "what the network knows"
        // when a restarted OSD asks for the current map.
        if let OsdInput::MapUpdate(m) = &input {
            if m.epoch > self.map.epoch {
                self.map = m.clone();
            }
        }
        if self.is_dead(osd) {
            return; // failed OSDs process nothing
        }
        if self.topo.cfg.osd.mode.run_to_completion() && matches!(input, OsdInput::Client { .. }) {
            let gate = self.rtc_gate.entry(thread).or_default();
            if gate.busy {
                gate.deferred.push_back(Ev::osd_in(osd, input, charge_mp));
                return;
            }
            gate.busy = true;
        }
        let cur = self.trace_of_input(osd, &input);
        let span_name = self.input_span_name(&input);
        let nvm_static = if cur.is_some() {
            self.nvm_charge_of(&input)
        } else {
            0
        };
        if let Some(tr) = self.trace.as_mut() {
            tr.pending_nvm = 0;
        }
        self.charge_input(ctx, &input, charge_mp);
        self.handle_with_scratch(ctx, thread, osd, input, cur);
        if let Some(id) = cur {
            self.trace_osd_work(ctx, osd, id, span_name, nvm_static);
        }
    }

    /// (Any thread) one device I/O of a store token completed.
    fn on_io_done(&mut self, ctx: &mut Ctx<'_, Ev>, thread: ThreadId, osd: usize, token: u64) {
        if self.is_dead(osd) {
            return;
        }
        // Background (wait:false) I/Os also land here; only tracked
        // tokens owe a StoreDurable to the state machine.
        let Some(remaining) = self.io_wait.get_mut(&(osd, token)) else {
            return;
        };
        *remaining -= 1;
        if *remaining == 0 {
            self.io_wait.remove(&(osd, token));
            let cur = self.trace_io_done(ctx.now(), osd, token);
            let input = OsdInput::StoreDurable { token };
            self.charge_input(ctx, &input, None);
            self.handle_with_scratch(ctx, thread, osd, input, cur);
            if let Some(id) = cur {
                self.trace_osd_work(ctx, osd, id, "tp.complete", 0);
            }
        }
    }

    /// (Maintenance thread) drip-feeds one background I/O to the device.
    fn on_bg_io(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
        ios: Vec<TraceIo>,
        pos: usize,
    ) {
        if self.is_dead(osd) {
            return; // crashed: its queued background work evaporates
        }
        let dev = self.topo.threads[osd].device;
        let io = ios[pos];
        let req = match io.kind {
            TraceKind::Read => IoRequest::read(io.bytes),
            TraceKind::Write => IoRequest::write(io.bytes),
            TraceKind::Flush => unreachable!("filtered at enqueue"),
        };
        // Fire-and-forget: completion tokens 0 are ignored by IoDone.
        ctx.submit_io(dev, req, thread, Ev::IoDone { osd, token: 0 });
        // ~640 MB/s throttle for 64 KiB chunks.
        let delay = SimDuration::nanos(1 + io.bytes * 100_000 / (64 << 10));
        let pos = pos + 1;
        if pos < ios.len() {
            ctx.send_after(thread, Ev::BgIo { osd, ios, pos }, delay);
        }
    }

    /// (Flusher thread) the periodic timeout flush of pending groups.
    fn on_flush_sweep(&mut self, ctx: &mut Ctx<'_, Ev>, thread: ThreadId, osd: usize) {
        // Re-arm first so the sweep survives a crash window and
        // resumes once the OSD restarts.
        ctx.send_after(thread, Ev::FlushSweep { osd }, self.topo.cfg.flush_sweep);
        if self.is_dead(osd) {
            return;
        }
        let pending = self.osd(osd).pending_groups();
        for group in pending {
            let input = OsdInput::FlushGroup { group };
            self.handle_with_scratch(ctx, thread, osd, input, None);
        }
    }
}

impl Handler<Ev> for World {
    fn handle(&mut self, thread: ThreadId, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::ClientKick { conn } => self.issue_client_ops(ctx, conn),
            Ev::ClientDone { conn, reply } => self.on_client_done(ctx, conn, reply),
            Ev::ClientTimeout { conn, op, attempt } => {
                self.on_client_timeout(ctx, conn, op, attempt)
            }
            Ev::MsgrIn { osd, input, bytes } => self.on_msgr_in(ctx, osd, input, bytes),
            Ev::MsgrReplyOut { osd, to, reply } => self.send_reply(ctx, osd, to, reply, true),
            Ev::MsgrPeerOut { osd, to, msg } => self.send_peer(ctx, osd, to, msg, true),
            Ev::OsdIn {
                osd,
                input,
                charge_mp,
            } => self.on_osd_in(ctx, thread, osd, input, charge_mp),
            Ev::IoDone { osd, token } => self.on_io_done(ctx, thread, osd, token),
            Ev::BgIo { osd, ios, pos } => self.on_bg_io(ctx, thread, osd, ios, pos),
            Ev::FlushSweep { osd } => self.on_flush_sweep(ctx, thread, osd),
            Ev::Fault { fault, seed } => self.on_fault(ctx, fault, seed),
            Ev::HeartbeatTick { osd } => self.on_heartbeat_tick(ctx, thread, osd),
            Ev::MonHeartbeat { osd } => self.on_mon_heartbeat(ctx, osd),
            Ev::MonSweep => self.on_mon_sweep(ctx, thread),
            Ev::Churn { idx } => self.on_churn(ctx, idx),
            Ev::ScrubSweep { round } => self.on_scrub_sweep(ctx, thread, round),
        }
    }
}
