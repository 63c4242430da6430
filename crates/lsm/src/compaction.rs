//! Leveled compaction.
//!
//! The maintenance half of the LSM — the "MT" CPU slice in the paper's
//! Figure 1/7 breakdowns and the dominant source of the ~3× host-side write
//! amplification in Table I. L0 compacts by run count (all runs + the
//! overlapping L1 files merge into L1); deeper levels compact by size,
//! pushing one file at a time into the next level.
//!
//! A compaction is a streaming k-way merge: each input's data region is
//! read once into one frame, cursors walk the frames in place, and the
//! winning record of each key is encoded straight into the output file.
//! No record is materialised on the way, and a value the device holds by
//! reference goes from input to output as that same buffer.

use std::cell::RefCell;

use rablock_storage::{BlockDevice, Frame, IoCategory, MaintenanceReport, StoreError};

use crate::db::Db;
use crate::sst::{Records, Sst, Value};

thread_local! {
    /// The frames a merge reads its inputs into, kept (holding no value) for
    /// the next merge on this thread, so that one reads into byte buffers
    /// already touched instead of fresh ones that fault on every page. Kept
    /// per thread rather than per database: a thread runs one compaction at
    /// a time, and every database of a cluster holding its own largest
    /// merge's worth cost more memory than the faults saved.
    static MERGE_INPUTS: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

impl<D: BlockDevice> Db<D> {
    /// True if any level is over its trigger.
    pub(crate) fn needs_compaction(&self) -> bool {
        if self.levels[0].len() >= self.opts.l0_trigger {
            return true;
        }
        (1..self.levels.len() - 1).any(|i| self.level_bytes(i) > self.opts.level_target(i))
    }

    /// Performs a single compaction: L0→L1 when L0 hits its run-count
    /// trigger, otherwise one file from the most oversized level into the
    /// level below.
    ///
    /// # Errors
    ///
    /// On [`StoreError::NoSpace`] or a device error the database is as it
    /// was before the call: the inputs are back in their levels and the
    /// segments of outputs already built are free again.
    pub(crate) fn compact_once(&mut self) -> Result<MaintenanceReport, StoreError> {
        let source_level = if self.levels[0].len() >= self.opts.l0_trigger {
            0
        } else {
            let Some(level) = (1..self.levels.len() - 1)
                .find(|&i| self.level_bytes(i) > self.opts.level_target(i))
            else {
                return Ok(MaintenanceReport::default());
            };
            level
        };
        let target_level = source_level + 1;
        // The inputs leave `self.levels` for the duration of the merge and
        // go back if it fails.
        let upper = if source_level == 0 {
            std::mem::take(&mut self.levels[0])
        } else {
            let idx = self.compact_cursor[source_level] % self.levels[source_level].len();
            self.compact_cursor[source_level] = self.compact_cursor[source_level].wrapping_add(1);
            vec![self.levels[source_level].remove(idx)]
        };

        // Key range of the inputs → overlapping files in the target level.
        let min = upper.iter().map(|s| &s.min_key).min().cloned();
        let max = upper.iter().map(|s| &s.max_key).max().cloned();
        let (min, max) = (min.expect("nonempty inputs"), max.expect("nonempty inputs"));
        let (lower, kept): (Vec<Sst>, Vec<Sst>) = std::mem::take(&mut self.levels[target_level])
            .into_iter()
            .partition(|s| s.overlaps(&min, &max));
        self.levels[target_level] = kept;

        let first_output_id = self.next_sst_id;
        let mut inputs = MERGE_INPUTS.take();
        let merged = self.merge_into(&mut inputs, target_level, &upper, &lower, &min, &max);
        inputs.iter_mut().for_each(Frame::clear);
        MERGE_INPUTS.set(inputs);
        match merged {
            Ok(report) => {
                for sst in upper.iter().chain(&lower) {
                    self.free_sst(sst);
                }
                Ok(report)
            }
            Err(e) => {
                // Outputs built so far are garbage; the inputs still hold
                // every acknowledged key and return where they were.
                let (outputs, kept): (Vec<Sst>, Vec<Sst>) =
                    std::mem::take(&mut self.levels[target_level])
                        .into_iter()
                        .partition(|s| s.id >= first_output_id);
                self.levels[target_level] = kept;
                for sst in &outputs {
                    self.free_sst(sst);
                }
                for sst in lower {
                    self.insert_sorted(target_level, sst);
                }
                if source_level == 0 {
                    self.levels[0] = upper;
                } else {
                    for sst in upper {
                        self.insert_sorted(source_level, sst);
                    }
                }
                Err(e)
            }
        }
    }

    /// Inserts `sst` into a deeper level, which is ordered by `min_key`.
    fn insert_sorted(&mut self, level: usize, sst: Sst) {
        let pos = self.levels[level].partition_point(|s| s.min_key < sst.min_key);
        self.levels[level].insert(pos, sst);
    }

    /// Merges the inputs into new files of `target_level` and checkpoints
    /// the manifest, reading the inputs into the first of `buffers` (more
    /// are added when there are too few). Outputs enter the level as they
    /// are built; on error the caller takes them out again.
    fn merge_into(
        &mut self,
        buffers: &mut Vec<Frame>,
        target_level: usize,
        upper: &[Sst],
        lower: &[Sst],
        min: &[u8],
        max: &[u8],
    ) -> Result<MaintenanceReport, StoreError> {
        // Oldest → newest, so that among equal keys the last input wins.
        // Target-level files are the oldest; L0 is stored newest-first so
        // iterate it in reverse.
        let count = lower.len() + upper.len();
        if buffers.len() < count {
            buffers.resize_with(count, Frame::new);
        }
        let inputs = &mut buffers[..count];
        let mut bytes_read = 0u64;
        for (sst, buf) in lower
            .iter()
            .chain(upper.iter().rev())
            .zip(inputs.iter_mut())
        {
            bytes_read += sst.len;
            self.read_sst_data(sst, buf)?;
        }
        // Tombstones can be dropped when nothing below could still hold an
        // older version of these keys.
        let drop_tombstones = !(target_level + 1..self.levels.len())
            .any(|lvl| self.levels[lvl].iter().any(|s| s.overlaps(min, max)));

        let mut cursors: Vec<_> = inputs
            .iter()
            .map(|data| Records::new(data).peekable())
            .collect();
        let mut bytes_written = 0u64;
        let mut run_bytes = 0u64;
        loop {
            // The cursor with the smallest head key, the last one among
            // equals: the newest version. An L0's runs plus the overlapped
            // files of one level make a handful of cursors, so a scan beats
            // a heap.
            let mut head: Option<(usize, &[u8])> = None;
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if let Some(&(key, _)) = cursor.peek() {
                    if head.is_none_or(|(_, best)| key <= best) {
                        head = Some((i, key));
                    }
                }
            }
            let Some((newest, key)) = head else { break };
            let (_, value) = cursors[newest].next().expect("peeked");
            for cursor in &mut cursors {
                // Keys are unique within one input.
                cursor.next_if(|&(k, _)| k == key);
            }
            if value.is_none() && drop_tombstones {
                continue;
            }
            run_bytes += (key.len() + value.as_ref().map_or(0, Value::len) + 16) as u64;
            self.sst_writer
                .add(key, value.as_ref().map(Value::as_piece));
            if run_bytes >= self.opts.sst_max_bytes {
                bytes_written += self.emit_output(target_level)?;
                run_bytes = 0;
            }
        }
        if !self.sst_writer.is_empty() {
            bytes_written += self.emit_output(target_level)?;
        }
        debug_assert!(self.level_is_sorted_nonoverlapping(target_level));

        // Persist the new shape before releasing the inputs' segments, so a
        // crash between the two never loses referenced data.
        self.write_manifest()?;
        Ok(MaintenanceReport {
            bytes_read,
            bytes_written,
            did_work: true,
        })
    }

    /// Persists the writer's records as one file of `level`; returns its
    /// length.
    fn emit_output(&mut self, level: usize) -> Result<u64, StoreError> {
        let sst = self.finish_sst(IoCategory::Compaction)?;
        let len = sst.len;
        self.insert_sorted(level, sst);
        Ok(len)
    }

    pub(crate) fn level_is_sorted_nonoverlapping(&self, level: usize) -> bool {
        self.levels[level]
            .windows(2)
            .all(|w| w[0].max_key < w[1].min_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::LsmOptions;
    use rablock_storage::MemDisk;

    fn kv(i: u64) -> crate::wal::BatchEntry {
        (
            format!("key{:08}", i).into_bytes().into(),
            Some(vec![(i % 251) as u8; 64].into()),
        )
    }

    fn filled_db(n: u64) -> Db<MemDisk> {
        let mut db = Db::open(MemDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
        for i in 0..n {
            db.apply(&[kv(i)]).unwrap();
            // Drain maintenance opportunistically, like a background thread.
            while db.needs_maintenance() {
                db.maintenance().unwrap();
            }
        }
        db
    }

    #[test]
    fn compaction_preserves_every_live_key() {
        let mut db = filled_db(3_000);
        for i in 0..3_000 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), v, "key {i}");
        }
    }

    #[test]
    fn compaction_moves_data_below_l0() {
        let db = filled_db(3_000);
        let counts = db.level_file_counts();
        assert!(
            counts[0] < db.options().l0_trigger,
            "L0 drained: {counts:?}"
        );
        assert!(
            counts[1..].iter().sum::<usize>() > 0,
            "deeper levels populated: {counts:?}"
        );
    }

    #[test]
    fn deep_levels_stay_sorted_and_disjoint() {
        let db = filled_db(4_000);
        for level in 1..db.level_file_counts().len() {
            assert!(db.level_is_sorted_nonoverlapping(level), "level {level}");
        }
    }

    #[test]
    fn overwrites_collapse_during_compaction() {
        let mut db = Db::open(MemDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
        // Hammer a small key set so compaction must merge duplicates.
        for round in 0u64..40 {
            for i in 0..50 {
                let key = format!("dup{:04}", i).into_bytes();
                db.apply(&[(key.into(), Some(vec![round as u8; 128].into()))])
                    .unwrap();
                while db.needs_maintenance() {
                    db.maintenance().unwrap();
                }
            }
        }
        for i in 0..50 {
            let key = format!("dup{:04}", i).into_bytes();
            assert_eq!(db.get(&key).unwrap(), Some(vec![39u8; 128].into()));
        }
    }

    #[test]
    fn deletes_survive_compaction() {
        let mut db = Db::open(MemDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
        for i in 0..600 {
            db.apply(&[kv(i)]).unwrap();
        }
        for i in (0..600).step_by(2) {
            let (k, _) = kv(i);
            db.apply(&[(k, None)]).unwrap();
        }
        db.flush_all().unwrap();
        while db.needs_maintenance() {
            db.maintenance().unwrap();
        }
        for i in 0..600 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 { None } else { v };
            assert_eq!(db.get(&k).unwrap(), expect, "key {i}");
        }
    }

    /// Keys scattered over the key space, so every compaction overlaps most
    /// of the level below and needs far more free space than a flush does.
    fn scattered(i: u64) -> crate::wal::BatchEntry {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        (
            format!("key{k:08}-{i:06}").into_bytes().into(),
            Some(vec![(i % 251) as u8; 200].into()),
        )
    }

    #[test]
    fn failed_compaction_keeps_every_acked_key_and_leaks_no_segment() {
        // 1 MiB device: 384 KiB of manifest slots and WAL, 40 segments.
        let mut db = Db::open(MemDisk::new(1 << 20), LsmOptions::tiny()).unwrap();
        let total_segments = db.free_segments();
        let mut acked = 0u64;
        let mut failures = 0;
        'fill: for i in 0..20_000 {
            if db.apply(&[scattered(i)]).is_err() {
                break; // a stalled writer could not flush: the device is full
            }
            acked = i + 1;
            if i % 50 != 49 {
                continue;
            }
            if db.flush_all().is_err() {
                break;
            }
            while db.needs_compaction() {
                let before = (db.level_file_counts(), db.free_segments());
                match db.compact_once() {
                    Ok(_) => {}
                    Err(e) => {
                        assert_eq!(e, StoreError::NoSpace);
                        assert_eq!(
                            (db.level_file_counts(), db.free_segments()),
                            before,
                            "a failed compaction changes nothing"
                        );
                        failures += 1;
                        if failures == 3 {
                            break 'fill;
                        }
                        break; // keep writing on top of the refused compaction
                    }
                }
            }
        }
        assert!(failures > 0, "the device never filled up ({acked} writes)");
        for i in 0..acked {
            let (k, v) = scattered(i);
            assert_eq!(db.get(&k).unwrap(), v, "key {i} of {acked}");
        }
        let held: usize = db.levels.iter().flatten().map(|s| s.segments.len()).sum();
        assert_eq!(db.free_segments() + held, total_segments);
        for level in 1..db.levels.len() {
            assert!(db.level_is_sorted_nonoverlapping(level), "level {level}");
        }
    }

    #[test]
    fn compaction_produces_write_amplification() {
        let mut db = filled_db(5_000);
        db.flush_all().unwrap();
        while db.needs_maintenance() {
            db.maintenance().unwrap();
        }
        let stats = db.stats();
        assert!(stats.compaction_bytes > 0, "compaction happened");
        // WAL + flush + compaction must exceed the flushed bytes alone:
        // the whole point of the paper's Table I.
        assert!(stats.total_written() > stats.flush_bytes + stats.wal_bytes);
    }

    #[test]
    fn a_value_is_stored_once_by_reference_through_flush_and_compaction() {
        let value = rablock_storage::Payload::from(vec![0xAB; 4096]);
        let key = |i: u64| format!("key{i:08}").into_bytes();
        // L1 big enough to keep every compacted key.
        let opts = LsmOptions {
            level_base_bytes: 8 << 20,
            ..LsmOptions::tiny()
        };
        let mut db = Db::open(MemDisk::new(16 << 20), opts).unwrap();
        for i in 0..300 {
            db.apply(&[(key(i).into(), Some(value.clone()))]).unwrap();
            while db.needs_maintenance() {
                db.maintenance().unwrap();
            }
        }
        db.flush_all().unwrap();
        // The first key went through the WAL, a flush to L0 and a
        // compaction into L1, and no file of L0 can hold it now.
        let first = key(0);
        assert!(db.levels[0].iter().all(|sst| !sst.covers(&first)));
        assert!(db.levels[1].iter().any(|sst| sst.covers(&first)));
        let got = db.get(&first).unwrap().expect("written");
        assert!(
            std::ptr::eq(got.as_ptr(), value.as_ptr()),
            "the writer's buffer, not a copy"
        );
        // What the device owns is framing: record headers, index, Bloom
        // filter, footer and manifest, not values.
        let dev = db.device();
        let (owned, written) = (dev.resident_bytes(), dev.counters().bytes_written);
        assert!(
            owned * 20 < written,
            "{owned} bytes owned of {written} written"
        );
    }
}
