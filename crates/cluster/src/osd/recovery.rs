//! Recovery: moving whole objects to the peers that miss them. A push
//! (`PushObject`) carries an object's authoritative content and the
//! primary's newest log entry for it; the receiver applies it unless it
//! holds something newer, and acks (`PushAck`). Peering's missing sets,
//! scrub repairs and self-heal fetches all ride this one machinery, and all
//! of it draws on the one [`BackgroundBudget`].

use std::collections::BTreeSet;

use rablock_storage::{GroupId, ObjectId, Op, Segments, Transaction};

use super::digest::digest_segments;
use super::{Osd, OsdConfig};
use crate::msg::{PeerMsg, PgLogEntry};
use crate::placement::OsdId;

/// The transaction a recovery push or a backfill applies: the object at its
/// pushed size with `data`, the views the sender's store read, as its whole
/// content. A zero-length object (created, never written) is the bare
/// create — stores refuse an empty write.
pub(super) fn whole_object_txn(
    group: GroupId,
    seq: u64,
    oid: ObjectId,
    data: Segments,
) -> Transaction {
    let mut ops = vec![Op::Create {
        oid,
        size: data.len() as u64,
    }];
    if !data.is_empty() {
        ops.push(Op::WriteV {
            oid,
            offset: 0,
            data,
        });
    }
    Transaction::new(group, seq, ops)
}

/// One push in flight: `(group, peer, raw oid)`.
type PushKey = (GroupId, OsdId, u64);

/// The one allowance background work draws on. Recovery pushes and deep
/// scrubs together stay under `backfill_bytes_per_tick` object bytes per
/// heartbeat window; pushes also under `max_backfill_inflight` unacked
/// transfers. Work that does not fit is deferred, never dropped: it stays in
/// its round's missing set or in the scrub queue, and the heartbeat offers
/// it again into the next window, so rebalancing degrades gracefully
/// instead of starving client I/O. (One pool, first come first served; this
/// is where per-class reservations, weights and limits would go.)
pub(super) struct BackgroundBudget {
    max_inflight: usize,
    bytes_per_tick: u64,
    window: Window,
    /// Recovery pushes deferred so far.
    pub(super) queued: u64,
    /// Closed windows that deferred at least one push.
    pub(super) push_throttled_windows: u64,
    /// Closed windows that deferred a deep-scrub start.
    pub(super) scan_throttled_windows: u64,
}

/// What the current window has admitted. Dies with the process.
struct Window {
    /// Pushes sent and not yet acked.
    inflight: BTreeSet<PushKey>,
    bytes_left: u64,
    push_deferred: bool,
    scan_deferred: bool,
}

impl Window {
    fn full(bytes: u64) -> Self {
        Window {
            inflight: BTreeSet::new(),
            bytes_left: bytes,
            push_deferred: false,
            scan_deferred: false,
        }
    }
}

impl BackgroundBudget {
    pub(super) fn new(cfg: &OsdConfig) -> Self {
        BackgroundBudget {
            max_inflight: cfg.max_backfill_inflight,
            bytes_per_tick: cfg.backfill_bytes_per_tick,
            window: Window::full(cfg.backfill_bytes_per_tick),
            queued: 0,
            push_throttled_windows: 0,
            scan_throttled_windows: 0,
        }
    }

    /// Opens a full window without accounting the old one (crash-restart:
    /// the counters survive, what the window had admitted does not).
    pub(super) fn forget_window(&mut self) {
        self.window = Window::full(self.bytes_per_tick);
    }

    /// The heartbeat opens a new window: the one that closes is counted as
    /// throttled if it deferred anything, the bytes are replenished and
    /// unacked pushes may go out again.
    pub(super) fn new_window(&mut self) {
        self.push_throttled_windows += u64::from(self.window.push_deferred);
        self.scan_throttled_windows += u64::from(self.window.scan_deferred);
        self.forget_window();
    }

    /// A full budget always admits one, so nothing larger than a whole
    /// window's allowance can wedge forever; a partly spent one does not.
    fn fits(&self, bytes: u64) -> bool {
        bytes <= self.window.bytes_left || self.window.bytes_left >= self.bytes_per_tick
    }

    fn defer_push(&mut self) -> bool {
        self.queued += 1;
        self.window.push_deferred = true;
        false
    }

    /// First half of admitting a push, asked before the object is read
    /// (reading it syncs the group's log into the backend): `false` when
    /// the same push already went out this window — wait for the ack or the
    /// next window instead of duplicating the transfer — or, counted as
    /// deferred, when the in-flight cap is reached.
    pub(super) fn has_push_slot(&mut self, key: &PushKey) -> bool {
        if self.window.inflight.contains(key) {
            return false;
        }
        if self.window.inflight.len() >= self.max_inflight {
            return self.defer_push();
        }
        true
    }

    /// Second half: charges the object's bytes and takes the slot, or
    /// defers the push.
    pub(super) fn admit_push(&mut self, key: PushKey, bytes: u64) -> bool {
        if !self.fits(bytes) {
            return self.defer_push();
        }
        self.window.bytes_left = self.window.bytes_left.saturating_sub(bytes);
        self.window.inflight.insert(key);
        true
    }

    /// An ack frees the push's slot inside the window.
    pub(super) fn push_acked(&mut self, key: &PushKey) {
        self.window.inflight.remove(key);
    }

    /// Admits a deep scrub that will read `bytes`, or defers it.
    pub(super) fn admit_scan(&mut self, bytes: u64) -> bool {
        if !self.fits(bytes) {
            self.window.scan_deferred = true;
            return false;
        }
        self.window.bytes_left = self.window.bytes_left.saturating_sub(bytes);
        true
    }
}

impl Osd {
    /// Reads the authoritative content of `oid` for a recovery push.
    fn authoritative_object(&mut self, group: GroupId, oid: ObjectId) -> Option<Segments> {
        let len = *self.group_extents.get(&group)?.get(&oid)?;
        self.read_synced(oid, len)
    }

    /// Sends one recovery push for `oid` to `peer`: the full authoritative
    /// content plus the primary's newest log entry for the object, so the
    /// receiver can refuse stale pushes and verify the checksum.
    ///
    /// Pushes ride the backfill throttle: at most `max_backfill_inflight`
    /// unacked pushes and `backfill_bytes_per_tick` bytes per tick window.
    /// A throttled push is deferred — it stays in the round's missing set
    /// and the heartbeat-driven retry re-offers it next window.
    ///
    /// A sender still joining the group holds the push (its snapshot lacks
    /// what the peer took while it was away): not throttled, left where it
    /// was, re-offered by the heartbeat once its own pull has landed.
    pub(super) fn push_object_to(
        &mut self,
        group: GroupId,
        epoch: u64,
        peer: OsdId,
        oid: ObjectId,
        backfilling: bool,
    ) {
        if self.peering.joining(group) {
            return;
        }
        let key = (group, peer, oid.raw());
        if !self.budget.has_push_slot(&key) {
            return;
        }
        let Some(data) = self.authoritative_object(group, oid) else {
            // Nothing readable to push (extent unknown): drop the claim so
            // recovery can finish instead of retrying forever.
            if let Some(rec) = self.peering.rounds.get_mut(&group) {
                if let Some(m) = rec.missing.get_mut(&peer) {
                    m.remove(&oid.raw());
                }
            }
            return;
        };
        if !self.budget.admit_push(key, data.len() as u64) {
            return;
        }
        let entry = Box::new(self.newest_entry(group, oid));
        let content_digest = digest_segments(&data);
        self.recovery_pushes += 1;
        if backfilling {
            self.backfill_bytes += data.len() as u64;
        }
        let push = PeerMsg::PushObject {
            group,
            epoch,
            entry,
            data,
            content_digest,
        };
        self.send(peer, push);
    }

    /// Offers every push the group's round still misses into the current
    /// window.
    pub(super) fn push_missing(&mut self, group: GroupId) {
        let Some(rec) = self.peering.rounds.get(&group) else {
            return;
        };
        let epoch = rec.epoch;
        let missing = rec.missing.iter();
        let work: Vec<(OsdId, Vec<ObjectId>, bool)> = missing
            .map(|(p, m)| {
                let oids = m.values().copied().collect();
                (*p, oids, rec.backfill_peers.contains(p))
            })
            .collect();
        for (peer, oids, backfilling) in work {
            for oid in oids {
                self.push_object_to(group, epoch, peer, oid, backfilling);
            }
        }
    }

    fn push_ack(&mut self, to: OsdId, group: GroupId, epoch: u64, oid: ObjectId) {
        let from = self.id;
        let ack = PeerMsg::PushAck {
            group,
            epoch,
            oid,
            from,
        };
        self.send(to, ack);
    }

    pub(super) fn on_push_object(
        &mut self,
        from: OsdId,
        group: GroupId,
        epoch: u64,
        entry: PgLogEntry,
        data: Segments,
        content_digest: u64,
    ) {
        if digest_segments(&data) != content_digest {
            // Corrupted in flight; the primary re-pushes on its next
            // heartbeat because no ack will arrive.
            return;
        }
        if self.peering.joining(group) {
            // A full-state pull is in flight for this group; its responses
            // apply straight to the backend and would roll back anything this
            // push lands first. Stay silent — the primary re-pushes on its next
            // heartbeat, after the pull has settled.
            return;
        }
        let oid = entry.oid;
        let latest = self.pg_latest(group, oid);
        let pushed = (entry.epoch, entry.version);
        if latest != (0, 0) {
            if pushed == (0, 0) {
                // Synthesized backfill push against real logged history: our
                // entries postdate anything off the primary's log tail. Ack so
                // the primary stops counting us missing.
                self.push_ack(from, group, epoch, oid);
                return;
            }
            if latest > pushed {
                // We logged a write newer than this snapshot, so applying it
                // would roll that write back — but we can't blindly ack either:
                // holding newer entries doesn't prove we hold the *older* block
                // this push carries (the dropped write that made the primary
                // push may be exactly the one we're missing). If our bytes
                // already match the pushed content there is nothing to heal:
                // ack so the push loop ends — without this, a primary that lost
                // its log tail to a torn NVM write keeps pushing forever,
                // because its newest entry can never catch up to ours.
                // Otherwise stay silent; the heartbeat retry re-reads the
                // primary's content, and once the refreshed snapshot covers our
                // history it applies below.
                let matches = self
                    .authoritative_object(group, oid)
                    .is_some_and(|local| digest_segments(&local) == content_digest);
                if matches {
                    // Our copy reads clean and matches: any heal we
                    // were waiting on for it is moot.
                    self.note_object_healed(group, oid);
                    self.push_ack(from, group, epoch, oid);
                }
                return;
            }
            // latest <= pushed: the snapshot was read after every
            // write we hold, so applying it can only heal.
        }
        // Pending records for this group are no newer than the snapshot
        // (`latest <= pushed` above) and would otherwise flush over the
        // pushed bytes later — and a full-object push is far too large for
        // the NVM ring to ride behind them in log order. Drain them first,
        // then apply the push on top; if the store refuses, stay silent.
        if self.drain_pending(group).is_err() {
            return;
        }
        self.seq += 1;
        let txn = whole_object_txn(group, self.seq, oid, data);
        self.note_txn(&txn);
        if entry.version != 0 {
            // Adopt the pushed history so a later peering round sees this
            // object as up to date. Backfill pushes (version 0) carry no real
            // log entry and are deliberately not logged.
            self.peering.log_push(group, entry);
        }
        match self.backend.submit(txn) {
            Ok(()) => self.background_io(),
            Err(_) => {
                // Could not apply (e.g. no space): stay silent so the primary
                // keeps counting us missing and retries.
                self.pg_log_unnote(group, entry.version);
                return;
            }
        }
        // A full-object apply rewrites every block (and its checksums):
        // whatever heal was pending for this copy is complete.
        self.note_object_healed(group, oid);
        self.push_ack(from, group, epoch, oid);
    }

    pub(super) fn on_push_ack(&mut self, group: GroupId, epoch: u64, oid: ObjectId, peer: OsdId) {
        self.budget.push_acked(&(group, peer, oid.raw()));
        // Scrub repairs ride the same push machinery: an ack from a peer we
        // were repairing settles that copy.
        self.scrub_repair_acked(group, epoch, oid, peer);
        let done = match self.peering.rounds.get_mut(&group) {
            Some(rec) if rec.epoch == epoch => {
                if let Some(m) = rec.missing.get_mut(&peer) {
                    m.remove(&oid.raw());
                    if m.is_empty() {
                        rec.missing.remove(&peer);
                        rec.backfill_peers.remove(&peer);
                    }
                }
                rec.missing.is_empty()
            }
            _ => false,
        };
        if done {
            // Every peer acked its last push: the group is healed.
            self.peering.rounds.remove(&group);
        } else {
            // The ack freed a throttle slot: offer the group's remaining
            // missing work into it right away instead of waiting out the tick.
            self.push_missing(group);
        }
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{Payload, StoreError};

    use super::super::testkit::*;
    use super::super::{digest_bytes, OsdEffect, OsdInput, PgState, PipelineMode};
    use super::*;
    use crate::msg::{ClientId, ClientReply, ClientReq, OpId, ScrubEntry};
    use crate::placement::OsdMap;

    fn pushes_of(fx: &[OsdEffect]) -> Vec<ObjectId> {
        fx.iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: PeerMsg::PushObject { entry, .. },
                    ..
                } => Some(entry.oid),
                _ => None,
            })
            .collect()
    }

    /// A primary that is still joining a group (back from a restart, its
    /// pull in flight) holds every push of the group: a nacked write's, its
    /// round's missing objects (`push_missing` on the heartbeat), a scrub
    /// repair and a fetch's answer. Its snapshot would lack what the peer
    /// took while it was away. A held push is not a throttled one, and the
    /// first heartbeat after the pull's reply has applied pushes.
    #[test]
    fn a_joining_primary_holds_its_pushes_until_its_pull_lands() {
        let map3 = OsdMap::new(3, 1, 8, 2);
        // The primary has the smaller id, so a scrub tie votes for its copy.
        let g = (0..8)
            .map(GroupId)
            .find(|&g| map3.acting_set(g)[0] < map3.acting_set(g)[1])
            .expect("some group");
        let (primary, peer) = (map3.acting_set(g)[0], map3.acting_set(g)[1]);
        let mut prim = Osd::new(primary, cfg(PipelineMode::Dop, 16), map3);
        for i in 0..3 {
            let req = write_req(i + 1, oid_in(g, i));
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req,
            });
        }
        let deep = false;
        prim.handle(OsdInput::ScrubStart { group: g, deep });
        join_from(&mut prim, g, peer);
        let queued = prim.backfill_queued();
        let (epoch, from) = (prim.map().epoch, peer);
        let mut held = Vec::new();
        // The peer refuses the first write's repop: a nack round.
        let error = StoreError::NoSpace;
        let nack = PeerMsg::RepNack {
            group: g,
            seq: 1,
            from,
            error,
        };
        held.extend(prim.handle(OsdInput::Peer { from, msg: nack }));
        assert_eq!(prim.pg_state(g), PgState::Peering, "joining");
        // Its scrub map disagrees on object 1 and lacks the others.
        let (stamp_epoch, version) = prim.pg_latest(g, oid_in(g, 1));
        let entry = ScrubEntry {
            oid_raw: oid_in(g, 1).raw(),
            size: 4096,
            digest: 0xBAD,
            damaged: false,
            epoch: stamp_epoch,
            version,
        };
        let entries = vec![entry];
        let map = PeerMsg::ScrubMap {
            group: g,
            epoch,
            from,
            entries,
        };
        held.extend(prim.handle(OsdInput::Peer { from, msg: map }));
        assert!(prim.scrub_errors_found > 0, "the scrub wants repairs");
        let oid = oid_in(g, 0);
        let fetch = PeerMsg::ScrubFetch {
            group: g,
            epoch,
            oid,
            from,
        };
        held.extend(prim.handle(OsdInput::Peer { from, msg: fetch }));
        held.extend(prim.handle(OsdInput::HeartbeatTick));
        assert_eq!(pushes_of(&held), vec![], "{held:?}");
        assert_eq!(prim.backfill_queued(), queued, "held, not throttled");

        // The pull's reply lands and ends the join.
        let (objects, records) = (Vec::new(), Vec::new());
        let reply = PeerMsg::PullReply {
            group: g,
            objects,
            records,
        };
        let fx = prim.handle(OsdInput::Peer { from, msg: reply });
        assert_eq!(pushes_of(&fx), vec![], "no new wake-up path: {fx:?}");

        let fx = prim.handle(OsdInput::HeartbeatTick);
        let pushed: BTreeSet<ObjectId> = pushes_of(&fx).into_iter().collect();
        let all = (0..3).map(|i| oid_in(g, i)).collect();
        assert_eq!(pushed, all, "{fx:?}");
        assert_eq!(prim.backfill_queued(), queued);
    }

    /// The admission rules as `push_object_to`, `on_scrub_start` and the
    /// heartbeat arm wrote them inline before the budget was one value.
    #[test]
    fn background_budget_keeps_the_inline_rules() {
        let cfg = OsdConfig {
            max_backfill_inflight: 2,
            backfill_bytes_per_tick: 100,
            ..OsdConfig::default()
        };
        let key = |i: u64| (GroupId(0), OsdId(1), i);
        let throttled = |b: &BackgroundBudget| (b.push_throttled_windows, b.scan_throttled_windows);
        let mut b = BackgroundBudget::new(&cfg);

        // A full budget admits one object however large; the partly (here:
        // wholly) spent one defers whatever does not fit, and counts it.
        assert!(b.has_push_slot(&key(1)) && b.admit_push(key(1), 1_000));
        assert!(b.has_push_slot(&key(2)) && !b.admit_push(key(2), 1));
        assert_eq!(b.queued, 1);
        // A push already out this window waits for its ack: not a deferral.
        assert!(!b.has_push_slot(&key(1)));
        assert_eq!(b.queued, 1);
        // Scans draw on the same bytes, and are accounted on their own.
        assert!(!b.admit_scan(1));
        assert_eq!(throttled(&b), (0, 0), "accounted when the window closes");
        b.new_window();
        assert_eq!(throttled(&b), (1, 1), "one per deferring window");

        // The new window is full again and has forgotten what was in flight.
        assert!(b.has_push_slot(&key(1)) && b.admit_push(key(1), 60));
        assert!(b.admit_scan(40), "what is left fits exactly");
        assert!(b.has_push_slot(&key(2)) && !b.admit_push(key(2), 1));
        assert_eq!(b.queued, 2);
        b.new_window();
        assert_eq!(throttled(&b), (2, 1), "only the pushes were deferred");

        // The in-flight cap is checked before any bytes are: at the cap even
        // an empty object is deferred, and an ack frees the slot at once.
        assert!(b.has_push_slot(&key(1)) && b.admit_push(key(1), 1));
        assert!(b.has_push_slot(&key(2)) && b.admit_push(key(2), 1));
        assert!(!b.has_push_slot(&key(3)));
        assert_eq!(b.queued, 3);
        b.push_acked(&key(1));
        assert!(b.has_push_slot(&key(3)) && b.admit_push(key(3), 0));
        // An oversized scan on a partly spent budget waits for a full one.
        assert!(!b.admit_scan(1_000));
        b.new_window();
        assert!(b.admit_scan(1_000), "a full budget admits one");
        assert_eq!(throttled(&b), (3, 2));
        // A window that deferred nothing is not accounted; a crash forgets
        // the window and keeps the counters.
        b.new_window();
        assert_eq!(throttled(&b), (3, 2));
        assert!(b.has_push_slot(&key(1)) && b.admit_push(key(1), 100));
        assert!(!b.admit_scan(1));
        b.forget_window();
        assert!(b.has_push_slot(&key(1)) && b.admit_scan(100));
        b.new_window();
        assert_eq!((b.queued, throttled(&b)), (3, (3, 2)));
    }

    #[test]
    fn backfill_throttle_caps_inflight_pushes_and_drains_on_ack() {
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = OsdConfig {
            max_backfill_inflight: 1,
            ..cfg(PipelineMode::Dop, 16)
        };
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg, map3.clone());
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        let mut new_map = map3.clone();
        new_map.mark_down(spare);
        prim.handle(OsdInput::MapUpdate(new_map));
        let epoch = prim.map().epoch;
        let count_pushes = |fx: &[OsdEffect]| {
            fx.iter()
                .filter_map(|e| match e {
                    OsdEffect::SendPeer {
                        msg: PeerMsg::PushObject { entry, .. },
                        ..
                    } => Some(entry.oid),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        // Empty peer log: three objects need backfill, but the throttle
        // admits only one push into the window; the rest are queued.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: info(g, epoch, secondary, false),
        });
        let first = count_pushes(&fx);
        assert_eq!(first.len(), 1, "inflight cap of 1: {fx:?}");
        assert!(prim.backfill_queued() >= 2, "deferred work is counted");
        assert_eq!(prim.pg_state(g), PgState::Backfilling);
        // The tick closes the throttled window (counting it as throttled) and
        // the retransmit sweep again offers everything — still one push.
        let throttled_before = prim.backfill_throttled_windows();
        let fx = prim.handle(OsdInput::HeartbeatTick);
        assert!(prim.backfill_throttled_windows() > throttled_before);
        assert_eq!(count_pushes(&fx).len(), 1, "still capped after tick");
        // An ack frees the slot mid-window: the next object goes out
        // immediately without waiting for the tick.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: PeerMsg::PushAck {
                group: g,
                epoch,
                oid: first[0],
                from: secondary,
            },
        });
        let next = count_pushes(&fx);
        assert_eq!(next.len(), 1, "ack drains the queue: {fx:?}");
        assert_ne!(next[0], first[0], "a different object rides the slot");
    }

    #[test]
    fn push_with_bad_checksum_is_dropped() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 4,
                    oid,
                    digest: 9,
                }),
                data: Payload::from(vec![5; 4096]).into(),
                content_digest: 0xDEAD, // wrong
            },
        });
        assert!(fx.is_empty(), "corrupt push ignored: {fx:?}");
        assert_eq!(o.object_digest(oid, 4096), None, "nothing applied");
    }

    /// The same object as a recovery push: the store refused the empty
    /// write, no ack went out, and the primary re-pushed on every heartbeat
    /// with the group stuck in Recovering.
    #[test]
    fn push_of_a_zero_length_object_is_applied_and_acked() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 4,
                    oid,
                    digest: 9,
                }),
                data: Segments::new(),
                content_digest: digest_bytes(&[]),
            },
        });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::PushAck { oid: acked, .. },
                    ..
                } if *acked == oid
            )),
            "the empty push is acked: {fx:?}"
        );
        assert!(o.object_digest(oid, 0).is_some(), "the bare create landed");
        assert_eq!(o.group_extent_map(g), vec![(oid, 0)]);
    }

    #[test]
    fn stale_push_with_divergent_content_is_dropped_not_acked() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        // The replica applies a current write at (epoch 1, version 7)...
        let txn = Transaction::new(
            g,
            7,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![9; 4096].into(),
            }],
        );
        o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 7,
                txn,
            },
        });
        // ...then an older push with *different* bytes arrives. Acking it
        // would clear the primary's missing mark while the replicas still
        // diverge, so it must be dropped silently — the primary's heartbeat
        // retry re-reads fresh content and pushes again.
        let stale = vec![1u8; 4096];
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 3,
                    oid,
                    digest: 1,
                }),
                content_digest: digest_bytes(&stale),
                data: Payload::from(stale).into(),
            },
        });
        assert!(fx.is_empty(), "divergent stale push dropped: {fx:?}");
        // The newer log record survives: reads serve fill 9, not fill 1.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(2),
            req: ClientReq::Read {
                op: OpId(1),
                oid,
                offset: 0,
                len: 4096,
            },
        });
        let data = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { data, .. },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(data, Some(vec![9u8; 4096].into()));
    }

    #[test]
    fn stale_push_with_matching_content_is_acked_but_not_applied() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        // The replica holds (epoch 1, version 7) with fill 9.
        let txn = Transaction::new(
            g,
            7,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![9; 4096].into(),
            }],
        );
        o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 7,
                txn,
            },
        });
        // An older-versioned push whose bytes already match the local object
        // (a torn-tail-restarted primary can never out-version the replica
        // even when content agrees). It must be acked — without the ack the
        // primary retries forever and the PG wedges in Recovering — but the
        // newer local record must not be rolled back.
        let same = vec![9u8; 4096];
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 3,
                    oid,
                    digest: digest_bytes(&same),
                }),
                content_digest: digest_bytes(&same),
                data: Payload::from(same).into(),
            },
        });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::PushAck { .. },
                    ..
                }
            )),
            "matching stale push acked: {fx:?}"
        );
        // Version 7 stays newest: a later same-object push at version 5
        // with divergent bytes is still rejected.
        let stale = vec![1u8; 4096];
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::PushObject {
                group: g,
                epoch: 1,
                entry: Box::new(PgLogEntry {
                    epoch: 1,
                    version: 5,
                    oid,
                    digest: 1,
                }),
                content_digest: digest_bytes(&stale),
                data: Payload::from(stale).into(),
            },
        });
        assert!(fx.is_empty(), "divergent push after ack dropped: {fx:?}");
    }
}
