//! Peering: who holds what after the map changed. The bounded per-group
//! write log (pg_log) is its currency — a new primary asks every acting-set
//! peer for theirs (`PgQuery` / `PgInfo`), diffs them against its own and
//! cuts the missing sets `recovery.rs` then pushes — and the join is its
//! other half (§IV-A-4): survivors flush their operation logs but keep them,
//! a new member pulls object contents and log records from one of them
//! (`PullLog`, answered by one `PullReply` that carries both).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rablock_oplog::{GroupLog, LogRecord};
use rablock_storage::{FxHashMap, GroupId, ObjectId, Segments, Transaction};

use super::digest::digest_op;
use super::flush::StoreCtx;
use super::recovery::whole_object_txn;
use super::{Osd, OsdEffect, PG_LOG_LIMIT};
use crate::msg::{PeerMsg, PgLogEntry};
use crate::placement::{OsdId, OsdMap};

/// Externally visible state of one placement group at its primary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PgState {
    /// Fully replicated; no recovery in flight.
    Active,
    /// Serving I/O with fewer than `replication` members (above `min_size`).
    Degraded,
    /// The primary is collecting pg_log infos from the acting set.
    Peering,
    /// Log-replay recovery: pushing individually missing objects to peers
    /// whose logs overlap the primary's.
    Recovering,
    /// Full-object backfill: at least one peer fell off the log tail and is
    /// receiving every object of the group.
    Backfilling,
    /// A scrub found replicas that disagree (or failed their checksums);
    /// repair pushes/fetches are in flight. Clears back to Active once
    /// every damaged copy is healed.
    Inconsistent,
}

/// Per-group recovery bookkeeping at the primary, created on a map-epoch
/// change and dropped once every peer acked its last push.
pub(super) struct PgRecovery {
    /// Map epoch this peering round belongs to; stale replies are ignored.
    pub(super) epoch: u64,
    /// Peering, Recovering, or Backfilling.
    pub(super) state: PgState,
    /// Peers whose [`PeerMsg::PgInfo`] has not arrived yet.
    awaiting_infos: BTreeSet<OsdId>,
    /// Collected peer logs (by peer), kept until the missing sets are cut.
    infos: BTreeMap<OsdId, Vec<PgLogEntry>>,
    /// Outstanding pushes per peer, keyed by raw object id for stable order.
    pub(super) missing: BTreeMap<OsdId, BTreeMap<u64, ObjectId>>,
    /// Peers being healed by full backfill rather than log replay.
    pub(super) backfill_peers: BTreeSet<OsdId>,
}

impl PgRecovery {
    pub(super) fn new(epoch: u64, state: PgState, awaiting_infos: BTreeSet<OsdId>) -> Self {
        PgRecovery {
            epoch,
            state,
            awaiting_infos,
            infos: BTreeMap::new(),
            missing: BTreeMap::new(),
            backfill_peers: BTreeSet::new(),
        }
    }
}

/// Peering's volatile state. The pg_log is rebuilt from the recovered NVM
/// log on restart; everything else is re-derived from the next map.
#[derive(Default)]
pub(super) struct Peering {
    /// Bounded versioned write log per group (`(epoch, version, oid,
    /// digest)` per applied op): the peering currency.
    pub(super) pg_log: FxHashMap<GroupId, VecDeque<PgLogEntry>>,
    /// Active peering/recovery rounds for groups this OSD leads.
    pub(super) rounds: BTreeMap<GroupId, PgRecovery>,
    /// Groups this OSD is joining (§IV-A-4), until the pull's reply
    /// applies, each with the OSD it pulls from: a member of the *previous*
    /// acting set, i.e. an OSD that actually holds the data (after a
    /// weighted expansion an entire acting set can be fresh joiners, so
    /// pulling from the new set would get nothing).
    joins: BTreeMap<GroupId, OsdId>,
}

impl Peering {
    /// True while this OSD is itself still synchronizing the group: it is
    /// not authoritative for it yet, and its flushes and cold store reads
    /// wait, so the pulled objects cannot clobber newer data.
    pub(super) fn joining(&self, group: GroupId) -> bool {
        self.joins.contains_key(&group)
    }

    /// Appends to the group's pg_log, evicting the oldest entries first so
    /// the deque never outgrows (and never doubles past) the bound.
    pub(super) fn log_push(&mut self, group: GroupId, entry: PgLogEntry) {
        let log = self.pg_log.entry(group).or_default();
        while log.len() >= PG_LOG_LIMIT {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// The group's pg_log entries, oldest first (none if it has no log).
    fn log(&self, group: GroupId) -> impl Iterator<Item = &PgLogEntry> {
        self.pg_log.get(&group).into_iter().flatten()
    }
}

impl Osd {
    /// Drops the pg_log entries of a version whose apply failed: claiming
    /// history we do not hold would make peering skip a push we need.
    pub(super) fn pg_log_unnote(&mut self, group: GroupId, version: u64) {
        if let Some(log) = self.peering.pg_log.get_mut(&group) {
            log.retain(|e| e.version != version);
        }
    }

    /// Appends one pg_log entry per log-worthy op of `txn` (version =
    /// primary-assigned replication seq), trimming to the bound.
    pub(super) fn pg_log_note(&mut self, group: GroupId, version: u64, txn: &Transaction) {
        let epoch = self.map.epoch;
        for op in txn.ops.iter() {
            if let Some((oid, digest)) = digest_op(op) {
                let entry = PgLogEntry {
                    epoch,
                    version,
                    oid,
                    digest,
                };
                self.peering.log_push(group, entry);
            }
        }
    }

    /// The newest `(epoch, version)` this OSD's pg_log holds for an object,
    /// or `(0, 0)` if the object never appears (fell off the tail or never
    /// written here). Recovery pushes are applied only when they beat this.
    pub(super) fn pg_latest(&self, group: GroupId, oid: ObjectId) -> (u64, u64) {
        let newest = self.newest_entry(group, oid);
        (newest.epoch, newest.version)
    }

    /// The newest pg_log entry this OSD holds for an object, or an epoch-0 /
    /// version-0 sentinel when none survives (fell off the tail or never
    /// written here). The sentinel never beats a real entry, so receivers
    /// apply such contents only over objects with no history at all, and do
    /// not log them.
    pub(super) fn newest_entry(&self, group: GroupId, oid: ObjectId) -> PgLogEntry {
        let entries = self.peering.log(group).filter(|e| e.oid == oid);
        let newest = entries.max_by_key(|e| (e.epoch, e.version)).copied();
        newest.unwrap_or(PgLogEntry {
            epoch: 0,
            version: 0,
            oid,
            digest: 0,
        })
    }

    /// The state of one group as seen by this OSD (meaningful at the
    /// group's primary): an active recovery round reports its phase,
    /// otherwise the acting-set size decides Active vs Degraded.
    pub fn pg_state(&self, group: GroupId) -> PgState {
        if let Some(rec) = self.peering.rounds.get(&group) {
            return rec.state;
        }
        if self.scrub_inconsistent(group) {
            return PgState::Inconsistent;
        }
        if self.map.acting_set(group).len() < self.map.replication {
            PgState::Degraded
        } else {
            PgState::Active
        }
    }

    /// Objects this primary knows to be missing on some acting-set peer
    /// (outstanding recovery pushes). Zero once the cluster has healed.
    pub fn degraded_objects(&self) -> u64 {
        self.peering
            .rounds
            .values()
            .map(|r| r.missing.values().map(|m| m.len() as u64).sum::<u64>())
            .sum()
    }

    fn pg_query(&mut self, to: OsdId, group: GroupId, epoch: u64) {
        let from = self.id;
        self.send(to, PeerMsg::PgQuery { group, epoch, from });
    }

    /// Starts (or restarts) joining the group: pulls it from `source`.
    pub(super) fn start_join(&mut self, group: GroupId, source: OsdId) {
        self.peering.joins.insert(group, source);
        let from = self.id;
        self.send(source, PeerMsg::PullLog { group, from });
    }

    /// Enters Peering for every group this OSD now leads: drops rounds for
    /// groups it no longer leads and queries each acting-set peer for its
    /// pg_log. Solo groups (no peers up) have nobody to heal and skip it.
    fn start_peering(&mut self) {
        let epoch = self.map.epoch;
        let (map, id) = (&self.map, self.id);
        let rounds = &mut self.peering.rounds;
        rounds.retain(|&g, _| map.try_primary(g) == Some(id));
        for g in 0..self.map.pg_count {
            let group = GroupId(g);
            let set = self.map.acting_set(group);
            if set.first() != Some(&self.id) || set.len() < 2 {
                continue;
            }
            let peers: BTreeSet<OsdId> = set.into_iter().filter(|&o| o != self.id).collect();
            for &peer in &peers {
                self.pg_query(peer, group, epoch);
            }
            let round = PgRecovery::new(epoch, PgState::Peering, peers);
            self.peering.rounds.insert(group, round);
        }
    }

    /// All peer infos arrived: diff each peer's log against ours, cut the
    /// per-peer missing sets, and start pushing. A peer whose log shares no
    /// history with ours (empty while we have entries) fell off the log tail
    /// and gets a full backfill of every object we track for the group.
    fn finish_peering(&mut self, group: GroupId) {
        let my_log: Vec<PgLogEntry> = self.peering.log(group).copied().collect();
        // Newest entry per object on our side.
        let mut latest: BTreeMap<u64, PgLogEntry> = BTreeMap::new();
        for e in &my_log {
            let slot = latest.entry(e.oid.raw()).or_insert(*e);
            if (e.epoch, e.version) > (slot.epoch, slot.version) {
                *slot = *e;
            }
        }
        let all_extents = self.group_extent_map(group);
        let Some(rec) = self.peering.rounds.get_mut(&group) else {
            return;
        };
        let infos = std::mem::take(&mut rec.infos);
        let mut any_backfill = false;
        let mut any_missing = false;
        for (peer, entries) in infos {
            let peer_keys: BTreeSet<(u64, u64, u64)> =
                entries.iter().map(PgLogEntry::key).collect();
            let mut need: BTreeMap<u64, ObjectId> = BTreeMap::new();
            if entries.is_empty() && !my_log.is_empty() {
                // No shared history: backfill everything we track.
                for &(oid, _) in &all_extents {
                    need.insert(oid.raw(), oid);
                }
                rec.backfill_peers.insert(peer);
                any_backfill = true;
            } else {
                // Log replay: push the objects whose newest entry the peer
                // lacks. Entries the peer has that *we* lack (e.g. a write
                // we lost to a torn NVM tail while down) are deliberately
                // left alone: overwriting them could destroy an acked write
                // the peer is authoritative for — the joiner pull on our own
                // rejoin is what heals us from the peer, never the reverse.
                for e in latest.values() {
                    if !peer_keys.contains(&e.key()) {
                        need.insert(e.oid.raw(), e.oid);
                    }
                }
            }
            if !need.is_empty() {
                any_missing = true;
                rec.missing.insert(peer, need);
            }
        }
        if !any_missing {
            self.peering.rounds.remove(&group);
            return;
        }
        rec.state = if any_backfill {
            PgState::Backfilling
        } else {
            PgState::Recovering
        };
        self.push_missing(group);
    }

    /// Heartbeat-driven recovery retries: lost queries are re-asked and
    /// outstanding pushes re-sent, so a dropped message can never wedge a
    /// peering round.
    pub(super) fn retry_recovery(&mut self) {
        let groups: Vec<GroupId> = self.peering.rounds.keys().copied().collect();
        for group in groups {
            let round = &self.peering.rounds[&group];
            if round.state == PgState::Peering {
                let epoch = round.epoch;
                let waiting: Vec<OsdId> = round.awaiting_infos.iter().copied().collect();
                for peer in waiting {
                    self.pg_query(peer, group, epoch);
                }
            } else {
                self.push_missing(group);
            }
        }
    }

    /// Re-sends `PullLog` for every group whose pull has not been answered
    /// and applied (the original or its reply may have been dropped or cut
    /// off by a partition, or the store refused the reply). Driven by the
    /// heartbeat timer.
    pub(super) fn retry_pulls(&mut self) {
        let (map, from) = (&self.map, self.id);
        for (&group, source) in &mut self.peering.joins {
            // Prefer the recorded data-holding source; fall back to a
            // current acting-set peer only if the source has since died.
            if !map.osd(*source).up {
                match map.acting_set(group).into_iter().find(|&o| o != from) {
                    Some(peer) => *source = peer,
                    None => continue,
                }
            }
            let (to, msg) = (*source, PeerMsg::PullLog { group, from });
            self.fx.push(OsdEffect::SendPeer { to, msg });
        }
    }

    /// A joiner pulls: ship it the group's full object contents and the
    /// pending log records on top, in one reply.
    pub(super) fn on_pull_log(&mut self, group: GroupId, requester: OsdId) {
        if self.peering.joining(group) {
            // Not authoritative yet: answering would hand the requester an
            // empty "complete" group. Its pull retry re-drives the transfer
            // once our own pull has landed.
            return;
        }
        // Bring the backend up to date with the group's pending records first,
        // so the shipped contents include every write this survivor has acked.
        // A store that refuses them leaves the pull unanswered for a retry.
        if self.sync_group_log(group).is_err() {
            return;
        }
        let mut objects = Vec::new();
        for (oid, len) in self.group_extent_map(group) {
            if let Ok(data) = self.backend.read_segments(oid, 0, len) {
                objects.push((oid, data));
            }
        }
        self.background_io();
        let records = self
            .logs
            .get(&group)
            .map_or_else(Vec::new, GroupLog::export_records);
        let reply = PeerMsg::PullReply {
            group,
            objects,
            records,
        };
        self.send(requester, reply);
    }

    /// The pull's reply lands, and with it the join ends. Each object is
    /// applied whole: the joiner may hold nothing of the group. The records
    /// go into an empty log. A log that is not empty already holds newer
    /// data written here, and a ring that cannot hold them says `NoSpace`;
    /// either way the records go to the store instead, where the objects
    /// (read after the source synced) already hold their bytes. A store
    /// that refuses an object or a record leaves the join open:
    /// `retry_pulls` asks again on the heartbeat, re-applying whole objects
    /// is idempotent, and a condition that persists shows up in
    /// `ClusterSim::unhealed` instead of killing the process.
    pub(super) fn on_pull_reply(
        &mut self,
        group: GroupId,
        objects: Vec<(ObjectId, Segments)>,
        records: Vec<LogRecord>,
    ) {
        if !self.peering.joining(group) {
            // Duplicate or unsolicited: the first reply won; applying
            // another could resurrect stale data.
            return;
        }
        for (oid, data) in objects {
            self.seq += 1;
            let txn = whole_object_txn(group, self.seq, oid, data);
            self.note_txn(&txn);
            if self.backend.submit(txn).is_err() {
                return;
            }
        }
        for r in &records {
            self.note_txn(&r.txn);
        }
        let (empty, nvm) = (self.log_for(group).pending() == 0, &mut self.nvm);
        let log = self.logs.get_mut(&group);
        if empty && log.is_some_and(|log| log.import_records(nvm, &records).is_ok()) {
            let bytes = records.iter().map(LogRecord::encoded_len).sum();
            self.fx.push(OsdEffect::NvmWritten { bytes });
        } else {
            let mut pulled = records.into_iter();
            if pulled.try_for_each(|r| self.backend.submit(r.txn)).is_err() {
                return;
            }
        }
        self.peering.joins.remove(&group);
        self.background_io();
        self.kick_maintenance();
        // Flushes and cold reads were held back while joining; let them go now.
        let needs_flush = self
            .logs
            .get(&group)
            .is_some_and(|l| l.pending() >= l.flush_threshold);
        let has_readers = !self.rt(group).waiting_reads.is_empty();
        if (needs_flush || has_readers) && !self.rt(group).flushing {
            self.fx.push(OsdEffect::WakeFlush { group });
        }
    }

    pub(super) fn on_pg_query(&mut self, group: GroupId, epoch: u64, requester: OsdId) {
        let entries = self.peering.log(group).copied().collect();
        let from = self.id;
        let info = PeerMsg::PgInfo {
            group,
            epoch,
            from,
            entries,
        };
        self.send(requester, info);
    }

    pub(super) fn on_pg_info(
        &mut self,
        group: GroupId,
        epoch: u64,
        peer: OsdId,
        entries: Vec<PgLogEntry>,
    ) {
        let finish = match self.peering.rounds.get_mut(&group) {
            Some(rec) if rec.epoch == epoch && rec.state == PgState::Peering => {
                if rec.awaiting_infos.remove(&peer) {
                    rec.infos.insert(peer, entries);
                }
                rec.awaiting_infos.is_empty()
            }
            // Stale epoch or no round in flight: a retransmitted
            // reply from a superseded peering; drop it.
            _ => false,
        };
        if finish {
            self.finish_peering(group);
        }
    }

    /// §IV-A-4 failure handling: on a map change, surviving members flush
    /// their logs *without* removing entries (step ④), and a newly joined
    /// member pulls the log from the surviving primary (steps ⑥–⑦).
    pub(super) fn on_map_update(&mut self, map: OsdMap) {
        if map.epoch <= self.map.epoch {
            return;
        }
        let old = std::mem::replace(&mut self.map, map);
        self.abort_scrubs();
        if !self.cfg.mode.null_transaction() && !self.cfg.mode.null_store() {
            // Every epoch change re-peers the groups this OSD now leads;
            // stale rounds for groups it lost are dropped inside.
            self.start_peering();
        }
        if !self.cfg.mode.decoupled() {
            return;
        }
        let mut groups: Vec<GroupId> = self.logs.keys().copied().collect();
        groups.sort();
        for group in groups {
            let member = |map: &OsdMap| map.acting_set(group).contains(&self.id);
            let survivor = member(&self.map) && member(&old) && self.logs[&group].pending() > 0;
            if survivor && self.submit_pending(group).is_ok() {
                // Persist pending data but keep the log so the replacement
                // can synchronize from it. No flush window opens: nothing
                // drains when it completes. Refused records stay pending.
                self.store_io(StoreCtx::Background, true);
            }
        }
        // Newly responsible groups: pull logs from the surviving primary.
        let my_groups: Vec<GroupId> = (0..self.map.pg_count).map(GroupId).collect();
        for group in my_groups {
            let new_set = self.map.acting_set(group);
            if !new_set.contains(&self.id) {
                continue;
            }
            let old_set = old.acting_set(group);
            if old.osds.get(self.id.0 as usize).map(|o| o.up) == Some(true)
                && old_set.contains(&self.id)
            {
                continue; // already a member
            }
            // Synchronize from an OSD that actually holds the group's data:
            // a still-up member of the *previous* acting set (a drained OSD
            // stays up exactly so it can serve as this handoff source).
            // After a large expansion every new-set peer can be a fresh
            // joiner with nothing, so the new set is only a fallback.
            let peer = old_set
                .into_iter()
                .find(|&o| o != self.id && self.map.osd(o).up)
                .or_else(|| new_set.into_iter().find(|&o| o != self.id));
            if let Some(peer) = peer {
                self.start_join(group, peer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{Op, Payload};

    use super::super::testkit::*;
    use super::super::{OsdConfig, OsdInput, PgState, PipelineMode};
    use super::*;
    use crate::msg::{ClientId, ClientReply, ClientReq, OpId};
    use crate::placement::OsdMap;

    fn entry(version: u64) -> PgLogEntry {
        let oid = ObjectId::new(GroupId(0), version % 7);
        PgLogEntry {
            epoch: 1,
            version,
            oid,
            digest: version * 3,
        }
    }

    /// After four times the bound the log holds exactly the newest
    /// `PG_LOG_LIMIT` entries, oldest first, and its deque never grew past
    /// the bound.
    #[test]
    fn the_pg_log_keeps_the_newest_entries_within_its_bound() {
        let (mut peering, g) = (Peering::default(), GroupId(0));
        let total = 4 * PG_LOG_LIMIT as u64;
        for version in 1..=total {
            peering.log_push(g, entry(version));
            assert!(peering.pg_log[&g].capacity() <= PG_LOG_LIMIT);
        }
        let kept: Vec<PgLogEntry> = peering.log(g).copied().collect();
        let newest: Vec<PgLogEntry> = (total - PG_LOG_LIMIT as u64 + 1..=total)
            .map(entry)
            .collect();
        assert_eq!(kept, newest);
    }

    /// A spare that has just sent `PullLog` for group 0 after a map change
    /// took a member away, and the OSD it asked.
    fn joiner(cfg: OsdConfig) -> (Osd, OsdId) {
        let map = OsdMap::new(3, 1, 8, 2);
        let g = GroupId(0);
        let set = map.acting_set(g);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut next = map.clone();
        next.mark_down(set[1]);
        let mut joiner = Osd::new(spare, cfg, map);
        let fx = joiner.handle(OsdInput::MapUpdate(next));
        assert!(
            pulls_of(&fx).contains(&(set[0], g)),
            "the joiner pulls: {fx:?}"
        );
        (joiner, set[0])
    }

    fn pulls_of(fx: &[OsdEffect]) -> Vec<(OsdId, GroupId)> {
        fx.iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    to,
                    msg: PeerMsg::PullLog { group, .. },
                } => Some((*to, *group)),
                _ => None,
            })
            .collect()
    }

    /// A pull's reply for group 0: each `(oid, len)` of `objects` whole,
    /// `len` bytes of 7s, and one record that writes `record_len` bytes of
    /// 7s to object 1 (no record if `record_len` is 0).
    fn reply(objects: &[(ObjectId, usize)], record_len: usize) -> PeerMsg {
        let g = GroupId(0);
        let fill = |len: usize| Payload::from(vec![7u8; len]);
        let objects = objects
            .iter()
            .map(|&(oid, len)| (oid, fill(len).into()))
            .collect();
        let write = Op::Write {
            oid: oid_in(g, 1),
            offset: 0,
            data: fill(record_len),
        };
        let txn = Transaction::new(g, 1, vec![write]);
        let record = LogRecord {
            version: 1,
            seq: 1,
            txn,
        };
        let records = if record_len == 0 {
            vec![]
        } else {
            vec![record]
        };
        PeerMsg::PullReply {
            group: g,
            objects,
            records,
        }
    }

    /// Pulled records the joiner's ring cannot hold (`import_records` says
    /// `NoSpace`) go to the store instead, and the join ends with them.
    #[test]
    fn records_the_ring_cannot_hold_go_to_the_store_and_end_the_join() {
        let config = cfg(PipelineMode::Dop, 16);
        let len = config.ring_bytes as usize;
        let (mut joiner, from) = joiner(config);
        let g = GroupId(0);
        let oid = oid_in(g, 1);
        let fx = joiner.handle(OsdInput::Peer {
            from,
            msg: reply(&[], len),
        });
        assert!(!joiner.peering.joining(g), "joined: {fx:?}");
        assert_eq!(joiner.log_pending(g), 0, "nothing imported");
        let stored = joiner.debug_read(oid, len as u64);
        assert_eq!(stored, Some(Payload::from(vec![7u8; len])));
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(!pulls_of(&fx).contains(&(from, g)), "{fx:?}");
    }

    /// Records neither the ring nor the store can take leave the join
    /// open, though the objects before them applied; the heartbeat asks
    /// again, and a reply whose records fit ends the join.
    #[test]
    fn records_the_store_refuses_leave_the_join_open() {
        let small = OsdConfig {
            device_bytes: 8 << 20,
            ..cfg(PipelineMode::Dop, 16)
        };
        let (mut joiner, source) = joiner(small);
        let (g, from) = (GroupId(0), source);
        let other = oid_in(g, 2);
        let msg = reply(&[(other, 4096)], 12 << 20);
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert!(joiner.peering.joining(g), "still joining: {fx:?}");
        assert_eq!(joiner.log_pending(g), 0);
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(pulls_of(&fx).contains(&(source, g)), "{fx:?}");
        let msg = reply(&[(other, 4096)], 4096);
        joiner.handle(OsdInput::Peer { from, msg });
        assert!(!joiner.peering.joining(g));
        assert_eq!(joiner.log_pending(g), 1, "imported");
    }

    /// An object that does not fit the joiner's device used to abort it
    /// (`backfill apply: NoSpace`); a condition that persists now shows as a
    /// group that stays un-joined instead.
    #[test]
    fn backfill_that_does_not_fit_leaves_the_joiner_waiting_for_a_retry() {
        let small = OsdConfig {
            device_bytes: 8 << 20,
            ..cfg(PipelineMode::Dop, 16)
        };
        let (mut joiner, source) = joiner(small);
        let (g, from) = (GroupId(0), source);
        let (fits, too_big) = (oid_in(g, 1), oid_in(g, 2));
        let msg = reply(&[(too_big, 12 << 20)], 0);
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert!(fx.is_empty(), "the partial trace is dropped: {fx:?}");
        assert!(joiner.peering.joining(g), "still waiting");
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(pulls_of(&fx).contains(&(source, g)), "{fx:?}");
        // What fits lands, re-applied whole, and ends the wait.
        let msg = reply(&[(fits, 64 << 10)], 0);
        joiner.handle(OsdInput::Peer { from, msg });
        assert!(!joiner.peering.joining(g));
        assert!(joiner.object_digest(fits, 64 << 10).is_some());
    }

    /// A joiner holds a cold store read and a due flush of the group until
    /// the pull's reply applies, then lets both go: the flush opens its
    /// window, and the read, served once the window closes, sees the
    /// pulled object.
    #[test]
    fn a_joiner_releases_its_parked_read_and_due_flush_with_the_reply() {
        let (mut joiner, from) = joiner(cfg(PipelineMode::Dop, 2));
        let g = GroupId(0);
        for seq in 1..=2 {
            let write = Op::Write {
                oid: oid_in(g, seq),
                offset: 0,
                data: Payload::from(vec![1u8; 4096]),
            };
            let txn = Transaction::new(g, seq, vec![write]);
            let msg = PeerMsg::Repop { group: g, seq, txn };
            joiner.handle(OsdInput::Peer { from, msg });
        }
        assert_eq!(joiner.log_pending(g), 2, "a flush is due");
        let cold = oid_in(g, 3);
        let read = ClientReq::Read {
            op: OpId(7),
            oid: cold,
            offset: 0,
            len: 4096,
        };
        let fx = joiner.handle(OsdInput::Client {
            from: ClientId(1),
            req: read,
        });
        assert!(fx.is_empty(), "the cold read parks: {fx:?}");
        let fx = joiner.handle(OsdInput::FlushGroup { group: g });
        assert!(fx.is_empty(), "the flush is held: {fx:?}");

        let fx = joiner.handle(OsdInput::Peer {
            from,
            msg: reply(&[(cold, 4096)], 0),
        });
        let wake = |e: &OsdEffect| matches!(e, OsdEffect::WakeFlush { group } if *group == g);
        assert!(fx.iter().any(wake), "the reply re-arms the flush: {fx:?}");
        let fx = joiner.handle(OsdInput::FlushGroup { group: g });
        let tokens = tokens_of(&fx);
        assert_eq!(tokens.len(), 1, "the flush window opens: {fx:?}");
        let fx = joiner.handle(OsdInput::StoreDurable { token: tokens[0] });
        let fx = match tokens_of(&fx)[..] {
            [token] => joiner.handle(OsdInput::StoreDurable { token }),
            _ => fx,
        };
        let data = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { op: OpId(7), data },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(data, Some(Payload::from(vec![7u8; 4096])), "{fx:?}");
        assert_eq!(joiner.log_pending(g), 0);
    }

    #[test]
    fn survivor_keeps_log_and_new_member_pulls_it() {
        // Three nodes so replication 2 survives one failure.
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = cfg(PipelineMode::Dop, 16);
        // Find a group and its acting set.
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg.clone(), map3.clone());
        // Log a few writes at the primary.
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        assert_eq!(prim.log_pending(g), 3);
        // Secondary dies; map moves the group to include the spare.
        let mut new_map = map3.clone();
        new_map.mark_down(secondary);
        let new_set = new_map.acting_set(g);
        assert!(new_set.contains(&spare), "spare takes over");
        let fx = prim.handle(OsdInput::MapUpdate(new_map.clone()));
        // Survivor flushed-but-kept its log.
        assert_eq!(prim.log_pending(g), 3, "entries kept for peer sync");
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsdEffect::StoreIo { wait: true, .. })));
        // Spare joins: pulls the log.
        let mut joiner = Osd::new(spare, cfg, map3.clone());
        let fx = joiner.handle(OsdInput::MapUpdate(new_map));
        let pull = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PullLog { group, .. },
            } => Some((*to, *group)),
            _ => None,
        });
        let (peer, group) = pull.expect("joiner pulls the log");
        assert_eq!(group, g);
        // Route the pull to the survivor and the records back.
        let fx = prim.handle(OsdInput::Peer {
            from: peer,
            msg: PeerMsg::PullLog {
                group: g,
                from: spare,
            },
        });
        let reply = fx
            .into_iter()
            .find_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: msg @ PeerMsg::PullReply { .. },
                    ..
                } => Some(msg),
                _ => None,
            })
            .expect("survivor answers the pull");
        let PeerMsg::PullReply { records, .. } = &reply else {
            unreachable!()
        };
        assert_eq!(records.len(), 3, "survivor exports records");
        joiner.handle(OsdInput::Peer {
            from: primary,
            msg: reply,
        });
        assert_eq!(
            joiner.log_pending(g),
            3,
            "log replicated to the replacement"
        );
        // The joiner can now serve a strongly consistent read from its log.
        let fx = joiner.handle(OsdInput::Client {
            from: ClientId(9),
            req: ClientReq::Read {
                op: OpId(99),
                oid: oid_in(g, 2),
                offset: 0,
                len: 4096,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Data { .. },
                ..
            }
        )));
    }

    #[test]
    fn peering_backfills_a_peer_with_no_shared_history() {
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = cfg(PipelineMode::Dop, 16);
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg.clone(), map3.clone());
        let mut peer = Osd::new(secondary, cfg, map3.clone());
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        // Epoch bump that keeps the acting set: the primary re-peers.
        let mut new_map = map3.clone();
        new_map.mark_down(spare);
        let fx = prim.handle(OsdInput::MapUpdate(new_map.clone()));
        let query = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PgQuery { group, epoch, .. },
            } if *group == g => Some((*to, *epoch)),
            _ => None,
        });
        let (to, epoch) = query.expect("primary queries the acting set");
        assert_eq!(to, secondary);
        assert_eq!(epoch, new_map.epoch);
        assert_eq!(prim.pg_state(g), PgState::Peering);
        // The secondary answers with an empty log (it has nothing): the
        // primary backfills every object it tracks.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: PeerMsg::PgInfo {
                group: g,
                epoch,
                from: secondary,
                entries: Vec::new(),
            },
        });
        assert_eq!(prim.pg_state(g), PgState::Backfilling);
        let pushes: Vec<PeerMsg> = fx
            .iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    to,
                    msg: msg @ PeerMsg::PushObject { .. },
                } if *to == secondary => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(pushes.len(), 3, "all three objects pushed: {fx:?}");
        assert!(prim.backfill_bytes > 0);
        // Applying the pushes at the peer acks each one back; feeding the
        // acks to the primary ends the round.
        peer.handle(OsdInput::MapUpdate(new_map));
        for push in pushes {
            let fx = peer.handle(OsdInput::Peer {
                from: primary,
                msg: push,
            });
            let ack = fx
                .into_iter()
                .find_map(|e| match e {
                    OsdEffect::SendPeer {
                        msg: msg @ PeerMsg::PushAck { .. },
                        ..
                    } => Some(msg),
                    _ => None,
                })
                .expect("peer acks an applied push");
            prim.handle(OsdInput::Peer {
                from: secondary,
                msg: ack,
            });
        }
        assert_eq!(prim.pg_state(g), PgState::Active);
        assert_eq!(prim.degraded_objects(), 0);
        // The pushed bytes are now readable at the peer.
        assert_eq!(
            peer.object_digest(oid_in(g, 1), 4096),
            prim.object_digest(oid_in(g, 1), 4096),
        );
    }

    /// An object created with size 0 is tracked at length 0, so a pull ships
    /// it with empty content. The joiner used to panic on it (`backfill
    /// apply: InvalidArgument("zero-length write")`).
    #[test]
    fn backfill_of_a_zero_length_object_applies_the_bare_create() {
        let mut survivor = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&survivor);
        let oid = oid_in(g, 1);
        survivor.handle(OsdInput::Client {
            from: ClientId(1),
            req: ClientReq::Create {
                op: OpId(1),
                oid,
                size: 0,
            },
        });
        let fx = survivor.handle(OsdInput::Peer {
            from: OsdId(1),
            msg: PeerMsg::PullLog {
                group: g,
                from: OsdId(1),
            },
        });
        let backfill = fx
            .into_iter()
            .find_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: msg @ PeerMsg::PullReply { .. },
                    ..
                } => Some(msg),
                _ => None,
            })
            .expect("the pull is answered");
        let PeerMsg::PullReply { objects, .. } = &backfill else {
            unreachable!()
        };
        assert_eq!(objects.len(), 1);
        assert!(objects[0].1.is_empty(), "shipped with no content");

        let mut joiner = osd(PipelineMode::Dop, 1);
        joiner.start_join(g, OsdId(0));
        joiner.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: backfill,
        });
        assert_eq!(joiner.group_extent_map(g), vec![(oid, 0)]);
        assert!(joiner.object_digest(oid, 0).is_some(), "the object exists");
    }
}
