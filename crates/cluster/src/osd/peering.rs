//! Peering: who holds what after the map changed. The bounded per-group
//! write log (pg_log) is its currency — a new primary asks every acting-set
//! peer for theirs (`PgQuery` / `PgInfo`), diffs them against its own and
//! cuts the missing sets `recovery.rs` then pushes — and the join is its
//! other half (§IV-A-4): survivors flush their operation logs but keep them,
//! a new member pulls log and object contents from one of them (`PullLog`,
//! answered by `Backfill` and `LogRecords`).

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
    /// Groups whose pulled log records have not arrived yet.
    pub(super) awaiting_log: BTreeSet<GroupId>,
    /// Groups whose backfill has not arrived yet: flushes and cold store
    /// reads are held back so a late backfill cannot clobber newer data.
    pub(super) awaiting_backfill: BTreeSet<GroupId>,
    /// Chosen synchronization source per awaited group: a member of the
    /// *previous* acting set, i.e. an OSD that actually holds the data.
    /// After a weighted expansion an entire acting set can be fresh
    /// joiners, so pulling from the new set would "succeed" with nothing.
    pull_sources: BTreeMap<GroupId, OsdId>,
}

impl Peering {
    /// True while this OSD is itself still synchronizing the group: it is
    /// not authoritative for it yet.
    pub(super) fn joining(&self, group: GroupId) -> bool {
        self.awaiting_log.contains(&group) || self.awaiting_backfill.contains(&group)
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

    /// One half of a pull has landed; once both have, forget its source.
    fn pull_landed(&mut self, group: GroupId) {
        if !self.joining(group) {
            self.pull_sources.remove(&group);
        }
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

    fn pull_log(&mut self, to: OsdId, group: GroupId) {
        let from = self.id;
        self.send(to, PeerMsg::PullLog { group, from });
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

    /// Re-sends `PullLog` for every group whose pulled records or backfill
    /// have not arrived (the originals may have been dropped or cut off by a
    /// partition). Driven by the heartbeat timer.
    pub(super) fn retry_pulls(&mut self) {
        let mut groups: Vec<GroupId> = self.peering.awaiting_log.iter().copied().collect();
        groups.extend(self.peering.awaiting_backfill.iter().copied());
        groups.sort();
        groups.dedup();
        for group in groups {
            // Prefer the recorded data-holding source; fall back to a
            // current acting-set peer only if the source has since died.
            let source = self.peering.pull_sources.get(&group).copied();
            let peer = source
                .filter(|&o| self.map.osd(o).up)
                .or_else(|| self.replicas_of(group).first().copied());
            if let Some(peer) = peer {
                self.peering.pull_sources.insert(group, peer);
                self.pull_log(peer, group);
            }
        }
    }

    /// A joiner pulls: ship it the group's full object contents, then the
    /// pending log records on top.
    pub(super) fn on_pull_log(&mut self, group: GroupId, requester: OsdId) {
        if self.peering.joining(group) {
            // Not authoritative yet: this OSD is itself still synchronizing the
            // group. Answering now would hand the requester an empty "complete"
            // backfill. Stay silent — the requester's pull retry re-drives the
            // transfer once our own synchronization lands.
            return;
        }
        // Bring the backend up to date with the group's pending records first,
        // so the shipped contents include every write this survivor has acked.
        self.sync_group_log(group);
        // Backfill first: full object contents, so the joiner catches up on
        // everything flushed before the failure. The joiner applies these
        // before importing the pending records below.
        let mut objects = Vec::new();
        for (oid, len) in self.group_extent_map(group) {
            if let Ok(data) = self.backend.read_segments(oid, 0, len) {
                objects.push((oid, data));
            }
        }
        self.background_io();
        self.send(requester, PeerMsg::Backfill { group, objects });
        let records = self
            .logs
            .get(&group)
            .map_or_else(Vec::new, GroupLog::export_records);
        self.send(requester, PeerMsg::LogRecords { group, records });
    }

    /// The pulled log records arrive. Records the log or the store cannot
    /// take leave the group waiting: `retry_pulls` re-asks on the
    /// heartbeat, and a condition that persists shows up in `stuck_pgs()`
    /// instead of killing the process.
    pub(super) fn on_log_records(&mut self, group: GroupId, records: Vec<LogRecord>) {
        if !self.peering.awaiting_log.contains(&group) {
            // Duplicate or unsolicited response: the first import won;
            // re-importing could resurrect stale data.
            return;
        }
        for r in &records {
            self.note_txn(&r.txn);
        }
        let total: u64 = records.iter().map(LogRecord::encoded_len).sum();
        let import = self.log_for(group).pending() == 0;
        let applied = if import {
            let log = self.logs.get_mut(&group).expect("ensured");
            log.import_records(&mut self.nvm, records)
        } else {
            // Writes already landed here before the pulled records arrived, so
            // the log holds newer data. Apply the pulled (older) records
            // straight to the backend: reads prefer the log, and the eventual
            // flush overwrites with the newer bytes.
            let mut pulled = records.into_iter();
            pulled.try_for_each(|r| self.backend.submit(r.txn))
        };
        if applied.is_err() {
            let _ = self.backend.take_trace();
            return;
        }
        if import {
            self.fx.push(OsdEffect::NvmWritten { bytes: total });
        } else {
            self.background_io();
        }
        self.peering.awaiting_log.remove(&group);
        self.peering.pull_landed(group);
    }

    /// The pulled object contents arrive. An object the store cannot take
    /// (a device that is too small) leaves the group waiting like a bad
    /// record does; re-applying whole objects on the retry is idempotent.
    pub(super) fn on_backfill(&mut self, group: GroupId, objects: Vec<(ObjectId, Segments)>) {
        if !self.peering.awaiting_backfill.contains(&group) {
            return; // duplicate or unsolicited
        }
        for (oid, data) in objects {
            self.seq += 1;
            let txn = whole_object_txn(group, self.seq, oid, data);
            self.note_txn(&txn);
            if self.backend.submit(txn).is_err() {
                let _ = self.backend.take_trace();
                return;
            }
        }
        self.peering.awaiting_backfill.remove(&group);
        self.peering.pull_landed(group);
        self.background_io();
        self.kick_maintenance();
        // Flushes and cold reads were held back while waiting; let them go now.
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
            let new_set = self.map.acting_set(group);
            if !new_set.contains(&self.id) {
                continue;
            }
            let old_set = old.acting_set(group);
            if old_set.contains(&self.id) {
                // Survivor: persist pending data but keep the log so the
                // replacement can synchronize from it.
                let records = self.logs[&group].export_records();
                if records.is_empty() {
                    continue;
                }
                for rec in records {
                    self.backend.submit(rec.txn).expect("recovery flush");
                }
                // No flush window opens: nothing drains when it completes.
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
                self.peering.awaiting_log.insert(group);
                self.peering.awaiting_backfill.insert(group);
                self.peering.pull_sources.insert(group, peer);
                self.pull_log(peer, group);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{Op, Payload};

    use super::super::testkit::*;
    use super::super::{OsdConfig, OsdInput, PipelineMode};
    use super::*;
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

    /// Pulled records the joiner's ring cannot hold (`import_records` says
    /// `NoSpace`) leave it waiting, like a `Backfill` that does not fit;
    /// the heartbeat asks again, and records that fit end the wait.
    #[test]
    fn records_the_ring_cannot_hold_leave_the_joiner_waiting_for_a_retry() {
        let config = cfg(PipelineMode::Dop, 16);
        let (mut joiner, source) = joiner(config.clone());
        let (g, from) = (GroupId(0), source);
        let record = |len: usize| {
            let write = Op::Write {
                oid: oid_in(g, 1),
                offset: 0,
                data: Payload::from(vec![7u8; len]),
            };
            let txn = Transaction::new(g, 1, vec![write]);
            vec![LogRecord {
                version: 1,
                seq: 1,
                txn,
            }]
        };
        let records = record(config.ring_bytes as usize);
        let msg = PeerMsg::LogRecords { group: g, records };
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert!(fx.is_empty(), "nothing imported, nothing said: {fx:?}");
        assert!(joiner.peering.awaiting_log.contains(&g), "still waiting");
        assert_eq!(joiner.log_pending(g), 0);
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(pulls_of(&fx).contains(&(source, g)), "{fx:?}");
        let msg = PeerMsg::LogRecords {
            group: g,
            records: record(4096),
        };
        joiner.handle(OsdInput::Peer { from, msg });
        assert!(!joiner.peering.awaiting_log.contains(&g));
        assert_eq!(joiner.log_pending(g), 1);
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
        let backfill = |oid, len: usize| {
            let objects = vec![(oid, Payload::from(vec![7u8; len]).into())];
            PeerMsg::Backfill { group: g, objects }
        };
        let (fits, too_big) = (oid_in(g, 1), oid_in(g, 2));
        let msg = backfill(too_big, 12 << 20);
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert!(fx.is_empty(), "the partial trace is dropped: {fx:?}");
        assert!(
            joiner.peering.awaiting_backfill.contains(&g),
            "still waiting"
        );
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(pulls_of(&fx).contains(&(source, g)), "{fx:?}");
        // What fits lands, re-applied whole, and ends the wait.
        let msg = backfill(fits, 64 << 10);
        joiner.handle(OsdInput::Peer { from, msg });
        assert!(!joiner.peering.awaiting_backfill.contains(&g));
        assert!(joiner.object_digest(fits, 64 << 10).is_some());
    }
}
