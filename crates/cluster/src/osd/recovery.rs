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
    tick_nanos: u64,
    window: Window,
    /// Recovery pushes deferred so far.
    pub(super) queued: u64,
    /// Simulated time spent in windows that deferred at least one push
    /// (`tick_nanos` per such window).
    pub(super) push_throttled_nanos: u64,
    /// The same for windows that deferred a deep-scrub start.
    pub(super) scan_throttled_nanos: u64,
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
            tick_nanos: cfg.backfill_tick_nanos,
            window: Window::full(cfg.backfill_bytes_per_tick),
            queued: 0,
            push_throttled_nanos: 0,
            scan_throttled_nanos: 0,
        }
    }

    /// Opens a full window without accounting the old one (crash-restart:
    /// the counters survive, what the window had admitted does not).
    pub(super) fn forget_window(&mut self) {
        self.window = Window::full(self.bytes_per_tick);
    }

    /// The heartbeat opens a new window: the one that closes is accounted
    /// as throttled time if it deferred anything, the bytes are replenished
    /// and unacked pushes may go out again.
    pub(super) fn new_window(&mut self) {
        if self.window.push_deferred {
            self.push_throttled_nanos += self.tick_nanos;
        }
        if self.window.scan_deferred {
            self.scan_throttled_nanos += self.tick_nanos;
        }
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
    pub(super) fn push_object_to(
        &mut self,
        group: GroupId,
        epoch: u64,
        peer: OsdId,
        oid: ObjectId,
        backfilling: bool,
    ) {
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
        if self.cfg.mode.decoupled() && self.rt(group).flushing {
            // A flush is mid-air for this group. Draining the log inline
            // would be safe: completion releases by version watermark
            // (`drain_through_version`) and would find none of its records
            // left, as after the full-ring fallback. The guard stays
            // because dropping it changes which pushes apply now and which
            // on a re-push, and so the chaos and grow fingerprints. Stay
            // silent; the primary re-pushes on its next heartbeat and flush
            // windows are short.
            return;
        }
        if self.logs.get(&group).is_some_and(|l| l.pending() > 0) {
            // Pending (older, per the guard above) records for this
            // group would otherwise flush over the pushed bytes
            // later — and a full-object push is far too large for
            // the NVM ring to ride behind them in log order. Drain
            // them to the backend first, then apply the push on top.
            let mut log = self.logs.remove(&group).expect("checked above");
            let drained = log
                .drain_for_flush(&mut self.nvm, usize::MAX)
                .expect("drain before push apply");
            for t in drained {
                self.backend.submit(t).expect("pre-push flush submit");
            }
            self.logs.insert(group, log);
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
                let _ = self.backend.take_trace();
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
    use super::*;

    /// The admission rules as `push_object_to`, `on_scrub_start` and the
    /// heartbeat arm wrote them inline before the budget was one value.
    #[test]
    fn background_budget_keeps_the_inline_rules() {
        let cfg = OsdConfig {
            max_backfill_inflight: 2,
            backfill_bytes_per_tick: 100,
            backfill_tick_nanos: 7,
            ..OsdConfig::default()
        };
        let key = |i: u64| (GroupId(0), OsdId(1), i);
        let throttled = |b: &BackgroundBudget| (b.push_throttled_nanos, b.scan_throttled_nanos);
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
        assert_eq!(throttled(&b), (7, 7), "one tick per deferring window");

        // The new window is full again and has forgotten what was in flight.
        assert!(b.has_push_slot(&key(1)) && b.admit_push(key(1), 60));
        assert!(b.admit_scan(40), "what is left fits exactly");
        assert!(b.has_push_slot(&key(2)) && !b.admit_push(key(2), 1));
        assert_eq!(b.queued, 2);
        b.new_window();
        assert_eq!(throttled(&b), (14, 7), "only the pushes were deferred");

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
        assert_eq!(throttled(&b), (21, 14));
        // A window that deferred nothing is not accounted; a crash forgets
        // the window and keeps the counters.
        b.new_window();
        assert_eq!(throttled(&b), (21, 14));
        assert!(b.has_push_slot(&key(1)) && b.admit_push(key(1), 100));
        assert!(!b.admit_scan(1));
        b.forget_window();
        assert!(b.has_push_slot(&key(1)) && b.admit_scan(100));
        b.new_window();
        assert_eq!((b.queued, throttled(&b)), (3, (21, 14)));
    }
}
