//! Fault injection on one OSD: silent media rot on its data blocks and on
//! its NVM log rings, and the crash-restart that forgets everything
//! volatile.

use rablock_oplog::GroupLog;
use rablock_storage::{GroupId, ObjectId};

use super::Osd;

/// splitmix64 step: the deterministic stream fault injection draws rot
/// targets from. Self-contained (no scheduler RNG) so the same seed rots
/// the same bits at every shard count.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Osd {
    /// Fault injection: flips `flips` bits in committed backend data blocks
    /// of objects whose raw id falls in `[lo, hi)`. Targets are drawn from
    /// a self-contained splitmix64 stream over `seed`, so the damage is a
    /// pure function of (state, seed) — identical on every scheduler.
    /// Returns how many flips landed (0 when the backend holds nothing in
    /// range or does not expose injection).
    pub fn inject_data_rot(&mut self, lo: u64, hi: u64, flips: u32, seed: u64) -> u64 {
        let mut groups: Vec<GroupId> = self.group_extents.keys().copied().collect();
        groups.sort();
        let mut candidates: Vec<(ObjectId, u64)> = Vec::new();
        for g in groups {
            let mut oids: Vec<ObjectId> = self.group_extents[&g]
                .keys()
                .copied()
                .filter(|o| (lo..hi).contains(&o.raw()))
                .collect();
            oids.sort_by_key(|o| o.raw());
            for oid in oids {
                let blocks = self.backend.mapped_blocks(oid);
                if blocks > 0 {
                    candidates.push((oid, blocks));
                }
            }
        }
        if candidates.is_empty() {
            return 0;
        }
        let mut s = seed;
        let mut landed = 0;
        for _ in 0..flips {
            let (oid, blocks) = candidates[(splitmix64(&mut s) % candidates.len() as u64) as usize];
            let block = splitmix64(&mut s) % blocks;
            let r = splitmix64(&mut s);
            if self
                .backend
                .corrupt_data_bit(oid, block, r >> 8, (r & 7) as u8)
            {
                landed += 1;
            }
        }
        landed
    }

    /// Fault injection: flips `flips` bits in this OSD's NVM operation-log
    /// rings (committed record bytes). NVM rot is latent until a crash: a
    /// live log answers flushes, re-applies and pulling peers from its
    /// in-memory mirror, for every queued record, inside a flush window or
    /// not, and only recovery reads the ring — where the record CRC rejects
    /// the rotted suffix. Returns how many flips landed (0 when no ring
    /// holds queued records).
    pub fn inject_nvm_rot(&mut self, flips: u32, seed: u64) -> u64 {
        let mut groups: Vec<GroupId> = self
            .logs
            .iter()
            .filter(|(_, l)| l.nvm_used() > 0)
            .map(|(g, _)| *g)
            .collect();
        groups.sort();
        if groups.is_empty() {
            return 0;
        }
        let mut s = seed;
        let mut landed = 0;
        for _ in 0..flips {
            let g = groups[(splitmix64(&mut s) % groups.len() as u64) as usize];
            let r = splitmix64(&mut s);
            let log = self.logs.get(&g).expect("listed above");
            if log
                .rot_bit(&mut self.nvm, r >> 8, (r & 7) as u8)
                .unwrap_or(false)
            {
                landed += 1;
            }
        }
        landed
    }

    /// Simulated crash-restart. All volatile state is dropped; the NVM
    /// region survives (counters reset, contents kept) and each group's
    /// operation log is recovered by the checksum-validating scan, cutting
    /// off a torn tail if `torn_tail` corrupted one (safe: a record torn
    /// mid-append was never acknowledged). Recovered pending records are
    /// drained into the backend immediately — they predate the crash, and
    /// leaving them in the log would let stale entries answer reads after
    /// the node rejoins and newer data exists elsewhere. The backend itself
    /// models durable storage and survives untouched, as does the extent
    /// map (reconstructable from the backend in a real system). `seq` is
    /// also kept: a real OSD recovers it from its log and pg metadata.
    ///
    /// Returns the NVM bytes discarded by torn-tail truncation.
    pub fn restart_after_crash(&mut self, torn_tail: bool) -> u64 {
        self.top = Default::default();
        self.bottom = Default::default();
        // Volatile recovery state dies with the process; the pg_log is
        // rebuilt below from whatever survived in the durable NVM ring.
        self.peering = Default::default();
        self.scrub = Default::default();
        self.budget.forget_window();
        self.nvm.reboot();
        let mut groups: Vec<GroupId> = self.logs.keys().copied().collect();
        groups.sort();
        let mut discarded_total = 0;
        for group in groups {
            let old = &self.logs[&group];
            let (base, len) = (old.nvm_base(), old.nvm_region_len());
            if torn_tail {
                let _ = old.tear_tail(&mut self.nvm);
            }
            let threshold = self.cfg.flush_threshold;
            let recovered =
                GroupLog::recover_truncating(&mut self.nvm, group, base, len, threshold);
            let (log, discarded) = recovered.expect("log recovers after reboot");
            discarded_total += discarded;
            self.logs.insert(group, log);
            // Versions the store refuses stay out of the pg_log, so peering
            // pushes them here again.
            let txns = self.logs[&group].begin_flush();
            let applied = self.drain_pending(group).is_ok();
            let _ = self.backend.take_trace();
            for txn in &txns {
                self.note_txn(txn);
                if applied {
                    self.pg_log_note(group, txn.seq, txn);
                }
            }
        }
        discarded_total
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{GroupId, ObjectId};

    use super::super::testkit::*;
    use super::super::{Osd, OsdConfig, OsdEffect, OsdInput, PgState, PipelineMode, StoreTokenOp};
    use crate::msg::{ClientId, ClientReply, ClientReq, OpId, PeerMsg, ScrubEntry};
    use crate::placement::{OsdId, OsdMap};

    fn token_of(fx: &[OsdEffect], pick: fn(&OsdEffect) -> Option<u64>) -> u64 {
        fx.iter().find_map(pick).expect("the effect is there")
    }

    /// Every protocol leaves something volatile behind, then the process
    /// dies: what comes back must read as an OSD that only replayed its NVM
    /// log, with the durable side as it was.
    #[test]
    fn restart_forgets_every_volatile_field() {
        // Of three OSDs, a primary and a smaller-numbered replica that share
        // two groups (a scrub tie goes to the smaller id), and the spare.
        let map = OsdMap::new(3, 1, 32, 2);
        let groups: Vec<GroupId> = (0..32).map(GroupId).collect();
        let mut pair = None;
        for (i, &g) in groups.iter().enumerate() {
            let set = map.acting_set(g);
            let twin = groups[i + 1..].iter().find(|&&h| map.acting_set(h) == set);
            if let (true, Some(&g2)) = (set[0] > set[1], twin) {
                pair = Some((g, g2, set));
                break;
            }
        }
        let (g, g2, set) = pair.expect("three OSDs share 32 groups");
        let (me, other) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|x| !set.contains(x)).unwrap();
        let cfg = OsdConfig {
            max_backfill_inflight: 1,
            ..cfg(PipelineMode::Dop, 16)
        };
        let mut o = Osd::new(me, cfg, map.clone());
        let from = ClientId(1);

        // pipeline: a write waiting for its replica's ack, two more behind it.
        for i in 1..=3 {
            let req = write_req(i, oid_in(g, i));
            o.handle(OsdInput::Client { from, req });
        }
        assert_eq!(o.inflight_client_op(1), Some((from, OpId(1))));
        // flush: a flush window with its store token out, a deferred read.
        let fx = o.handle(OsdInput::FlushGroup { group: g });
        let flush = tokens_of(&fx)[0];
        assert_eq!(o.token_op(flush), Some(StoreTokenOp::Flush));
        let cold = oid_in(g2, 9);
        o.bootstrap_object(cold, 4096);
        let req = ClientReq::Read {
            op: OpId(9),
            oid: cold,
            offset: 0,
            len: 4096,
        };
        let fx = o.handle(OsdInput::Client { from, req });
        let read = token_of(&fx, |e| match e {
            OsdEffect::WakeRead { token } => Some(*token),
            _ => None,
        });
        let read_op = StoreTokenOp::Read {
            client: from,
            op: OpId(9),
        };
        assert_eq!(o.token_op(read), Some(read_op));
        // peering + recovery: a backfill round with one push out and two
        // throttled behind it; g2's round has nothing to heal and ends.
        let mut next = map.clone();
        next.mark_down(spare);
        o.handle(OsdInput::MapUpdate(next.clone()));
        assert_eq!(o.pg_state(g), PgState::Peering);
        for group in [g, g2] {
            let from = other;
            let msg = info(group, next.epoch, from, false);
            o.handle(OsdInput::Peer { from, msg });
        }
        assert_eq!(o.pg_state(g), PgState::Backfilling);
        assert_eq!((o.recovery_pushes, o.backfill_queued()), (1, 2));
        assert_eq!(o.degraded_objects(), 3);
        // scrub: a start queued behind the recovery, and on g2 a round whose
        // comparison found this OSD's copy divergent and asked for a heal.
        o.handle(OsdInput::ScrubStart {
            group: g,
            deep: true,
        });
        let (group, deep) = (g2, false);
        o.handle(OsdInput::ScrubStart { group, deep });
        let from = other;
        let theirs = ScrubEntry {
            oid_raw: cold.raw(),
            size: 4096,
            digest: 0xD1FF,
            damaged: false,
            epoch: 0,
            version: 0,
        };
        let msg = PeerMsg::ScrubMap {
            group,
            epoch: next.epoch,
            from,
            entries: vec![theirs],
        };
        let fx = o.handle(OsdInput::Peer { from, msg });
        let fetching = |e: &OsdEffect| {
            matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::ScrubFetch { .. },
                    ..
                }
            )
        };
        assert!(fx.iter().any(fetching), "{fx:?}");
        assert_eq!(o.pg_state(g2), PgState::Inconsistent);

        let durable = |o: &Osd| {
            let extents: Vec<Vec<(ObjectId, u64)>> =
                [g, g2].iter().map(|&g| o.group_extent_map(g)).collect();
            let counters = (o.recovery_pushes, o.backfill_queued(), o.scrub_errors_found);
            (extents, counters, o.seq)
        };
        let before = durable(&o);
        assert_eq!(o.restart_after_crash(false), 0, "no torn tail");

        assert_eq!(durable(&o), before, "the durable side is kept");
        assert_eq!(o.inflight_client_op(1), None);
        assert_eq!(o.token_op(flush), None);
        assert_eq!(o.token_op(read), None);
        assert!(o.pending_groups().is_empty(), "the log was drained");
        assert_eq!(
            (o.pg_state(g), o.pg_state(g2)),
            (PgState::Active, PgState::Active)
        );
        assert_eq!(o.degraded_objects(), 0);
        // The pg_log is what the NVM log replayed: the three writes.
        assert_eq!(o.pg_latest(g, oid_in(g, 3)).1, 3);
        // The budget window is a fresh one: the push that was out is offered
        // a slot again, and a full window's scan is admitted ...
        assert!(o.budget.has_push_slot(&(g, other, oid_in(g, 1).raw())));
        assert!(o.budget.admit_scan(o.cfg.backfill_bytes_per_tick));
        // ... and nothing is queued for the heartbeat to retry.
        let fx = o.handle(OsdInput::HeartbeatTick);
        assert!(matches!(fx[..], [OsdEffect::Heartbeat]), "{fx:?}");
    }

    #[test]
    fn restart_truncates_torn_tail_and_drains_log() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        for i in 0..3 {
            o.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        assert_eq!(o.log_pending(g), 3);
        let discarded = o.restart_after_crash(true);
        assert!(discarded > 0, "torn tail was cut off by the checksum scan");
        assert_eq!(
            o.log_pending(g),
            0,
            "recovered records drained into the backend"
        );
        // A surviving record's data is readable from the backend.
        let fx = o.handle(OsdInput::Client {
            from: ClientId(2),
            req: ClientReq::Read {
                op: OpId(9),
                oid: oid_in(g, 0),
                offset: 0,
                len: 4096,
            },
        });
        let token = fx
            .iter()
            .find_map(|e| match e {
                OsdEffect::WakeRead { token } => Some(*token),
                _ => None,
            })
            .expect("cold read defers to the store");
        let fx = o.handle(OsdInput::ReadFromStore { token });
        let toks = tokens_of(&fx);
        let fx = if toks.is_empty() {
            fx
        } else {
            o.handle(OsdInput::StoreDurable { token: toks[0] })
        };
        let reply = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { data, .. },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(reply, Some(vec![7u8; 4096].into()));
    }
}
