//! The control plane and the fault timeline: process crashes and restarts,
//! heartbeat ticks, the monitor's bookkeeping and map distribution, admin
//! weight churn, media rot, and the scrub scheduler's sweep.

use rablock_sim::{Ctx, FaultEvent, RotMedia, SimTime, ThreadId};
use rablock_storage::GroupId;

use super::world::{Ev, World};
use crate::msg::MonMsg;
use crate::osd::OsdInput;
use crate::placement::{OsdId, OsdMap};

impl World {
    /// Publishes a new map: the monitor part's routing view changes and every
    /// OSD receives a `MapUpdate` one network hop later. Map distribution is
    /// the monitor's control plane and is modelled as reliable (data-plane
    /// faults come from the plan's link faults on OSD/client traffic). Liveness
    /// is the *receiving* part's business: a dead OSD's `OsdIn` handler drops
    /// the update, so the monitor part never needs another part's `dead` flags.
    fn install_map(&mut self, ctx: &mut Ctx<'_, Ev>, map: OsdMap) {
        self.map = map;
        for peer in 0..self.topo.threads.len() {
            let input = OsdInput::MapUpdate(self.map.clone());
            let t = self.lane(peer, &input);
            ctx.send_after(t, Ev::osd_in(peer, input, None), self.topo.net_hold);
        }
    }

    /// Installs the map a monitor call produced, if it produced one.
    fn publish(&mut self, ctx: &mut Ctx<'_, Ev>, update: Option<MonMsg>) {
        if let Some(MonMsg::MapUpdate { map }) = update {
            self.install_map(ctx, map);
        }
    }

    /// (The target OSD's maintenance thread) a timed fault from the plan.
    pub(super) fn on_fault(&mut self, ctx: &mut Ctx<'_, Ev>, fault: FaultEvent, seed: u64) {
        match fault {
            FaultEvent::Crash { process, torn_tail } => self.on_crash(process, torn_tail),
            FaultEvent::Restart { process } => self.on_restart(ctx, process),
            FaultEvent::GraySet { device, multiplier } => {
                ctx.set_device_service_multiplier(device, multiplier)
            }
            // Media rot is physical: it lands whether or not the OSD process
            // is alive (a crashed OSD's SSD keeps decaying).
            FaultEvent::BitRot {
                process,
                object_lo,
                object_hi,
                flips,
                media,
            } => {
                let osd = self.osd_mut(process);
                match media {
                    RotMedia::CosData => osd.inject_data_rot(object_lo, object_hi, flips, seed),
                    RotMedia::NvmLog => osd.inject_nvm_rot(flips, seed),
                };
            }
        }
    }

    /// An OSD process dies. Process kill only: no oracle tells the monitor.
    /// Survivors and clients find out through missed heartbeats and
    /// timeouts. Pending device completions for the dead process are
    /// forgotten so a post-restart token cannot collide.
    fn on_crash(&mut self, osd: usize, torn_tail: bool) {
        let at = self.local(osd);
        self.dead[at] = true;
        self.crash_torn[at] = torn_tail;
        self.io_wait.retain(|&(o, _), _| o != osd);
    }

    /// A crashed OSD restarts from its durable state.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Ev>, osd: usize) {
        let at = self.local(osd);
        if !self.dead[at] {
            return;
        }
        self.dead[at] = false;
        let torn = std::mem::replace(&mut self.crash_torn[at], false);
        let _ = self.osd_mut(osd).restart_after_crash(torn);
        // Hand the restarted OSD the monitor's current view — it is
        // usually marked down in it, so the mark-up broadcast that
        // follows its first heartbeat triggers its log pull.
        let input = OsdInput::MapUpdate(self.map.clone());
        let t = self.lane(osd, &input);
        ctx.send(t, Ev::osd_in(osd, input, None));
    }

    /// (Frontend thread) an OSD's heartbeat timer fired.
    pub(super) fn on_heartbeat_tick(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
    ) {
        let Some(period) = self.topo.cfg.heartbeat_period else {
            return;
        };
        // Keep ticking even while dead, so a restarted OSD resumes
        // beaconing (and rejoins) without driver help.
        ctx.send_after(thread, Ev::HeartbeatTick { osd }, period);
        if self.is_dead(osd) {
            return;
        }
        self.charge_input(ctx, &OsdInput::HeartbeatTick, None);
        self.handle_with_scratch(ctx, thread, osd, OsdInput::HeartbeatTick, None);
    }

    /// (Monitor thread) a heartbeat beacon arrived at the monitor.
    pub(super) fn on_mon_heartbeat(&mut self, ctx: &mut Ctx<'_, Ev>, osd: usize) {
        let now = ctx.now().duration_since(SimTime::ZERO).as_nanos();
        let update = self.monitor.heartbeat(OsdId(osd as u32), now);
        self.publish(ctx, update);
    }

    /// (Monitor thread) the monitor's periodic liveness sweep.
    pub(super) fn on_mon_sweep(&mut self, ctx: &mut Ctx<'_, Ev>, thread: ThreadId) {
        let Some(period) = self.topo.cfg.heartbeat_period else {
            return;
        };
        ctx.send_after(thread, Ev::MonSweep, period);
        let now = ctx.now().duration_since(SimTime::ZERO).as_nanos();
        let update = self.monitor.check_liveness(now);
        self.publish(ctx, update);
    }

    /// (Driver thread) an administrator reweights an OSD at the monitor:
    /// grow (0 → w weaves a pre-provisioned spare in), drain (w → 0 hands
    /// its groups off while it stays up), or rebalance.
    pub(super) fn on_churn(&mut self, ctx: &mut Ctx<'_, Ev>, idx: usize) {
        let op = self.topo.cfg.churn[idx];
        let update = self.monitor.admin_set_weight(OsdId(op.osd), op.weight);
        self.publish(ctx, update);
    }

    /// (Driver thread) the periodic scrub sweep: ask every group's live
    /// primary to start a scrub round.
    pub(super) fn on_scrub_sweep(&mut self, ctx: &mut Ctx<'_, Ev>, thread: ThreadId, round: u64) {
        let Some(every) = self.topo.cfg.scrub_interval else {
            return;
        };
        ctx.send_after(thread, Ev::ScrubSweep { round: round + 1 }, every);
        let deep = self.topo.cfg.scrub_deep_every > 0
            && round % self.topo.cfg.scrub_deep_every == self.topo.cfg.scrub_deep_every - 1;
        for g in 0..self.topo.cfg.pg_count {
            let group = GroupId(g);
            let Some(p) = self.map.try_primary(group) else {
                continue;
            };
            let osd = p.0 as usize;
            // The request crosses the network (the driver part does not own
            // OSD liveness — a dead primary just drops it).
            let input = OsdInput::ScrubStart { group, deep };
            let t = self.lane(osd, &input);
            ctx.send_after(t, Ev::osd_in(osd, input, None), self.topo.net_hold);
        }
    }
}
