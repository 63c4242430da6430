//! Write-ahead log over a fixed device region.
//!
//! Records are framed as `[len u32][crc u32][epoch u64][payload]`, with the
//! CRC covering epoch and payload. The *epoch* is the generation of the
//! memtable the record belongs to; it makes the log self-delimiting without
//! erase cycles: after the region is reset, stale tail records still carry
//! their old epoch, and recovery stops at the first record whose epoch
//! precedes the manifest's `base_epoch`.
//!
//! The payload is one write batch: `[count u32]`, then per entry a flag
//! byte (0 = put, 1 = delete), the length-prefixed key and, for puts, the
//! length-prefixed value.

use rablock_storage::crc::{crc32, FrameCrc};
use rablock_storage::{BlockDevice, Frame, Key, Payload, StoreError};

use crate::util::{put_bytes, put_u32, put_u64, Cursor};

/// One write in a batch: key plus value (`None` = delete).
pub type BatchEntry = (Key, Option<Payload>);

/// Frame header: length + CRC + epoch.
const HEADER_BYTES: u64 = 4 + 4 + 8;

/// The write-ahead log region manager.
///
/// Owns only positions — the device is borrowed per call so the embedding
/// [`Db`](crate::Db) can hold a single device for all components.
#[derive(Debug, Clone)]
pub struct Wal {
    region_off: u64,
    region_len: u64,
    /// Next append offset, relative to the region start.
    head: u64,
    /// All records with epoch >= `base_epoch` belong to the current cycle.
    pub base_epoch: u64,
    /// Epoch stamped on new appends (= active memtable generation).
    pub current_epoch: u64,
    /// The record being framed; kept so appends do not allocate.
    scratch: Frame,
}

impl Wal {
    /// Creates a WAL manager over `[region_off, region_off+region_len)`.
    pub fn new(region_off: u64, region_len: u64, base_epoch: u64) -> Self {
        Wal {
            region_off,
            region_len,
            head: 0,
            base_epoch,
            current_epoch: base_epoch,
            scratch: Frame::new(),
        }
    }

    /// Appends `batch` as one durable record with the current epoch.
    ///
    /// The record is framed once, into a frame reused across appends, and
    /// its CRC is kept by a [`FrameCrc`] while the frame is built: a large
    /// value is neither copied into the frame nor scanned, but held by
    /// reference, and so is it on a device that keeps frames that way.
    ///
    /// Returns the number of device bytes written.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] if the region cannot hold the record; the
    /// caller must flush all memtables and [`Wal::reset`].
    pub fn append<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        batch: &[BatchEntry],
    ) -> Result<u64, StoreError> {
        let payload_len: usize = batch
            .iter()
            .map(|(k, v)| 1 + 4 + k.len() + v.as_ref().map_or(0, |v| 4 + v.len()))
            .sum::<usize>()
            + 4;
        let total = HEADER_BYTES + payload_len as u64;
        if self.head + total > self.region_len {
            return Err(StoreError::NoSpace);
        }
        let frame = &mut self.scratch;
        frame.clear();
        let rec = frame.bytes_mut();
        put_u32(rec, payload_len as u32);
        put_u32(rec, 0); // CRC, backpatched
        put_u64(rec, self.current_epoch);
        put_u32(rec, batch.len() as u32);
        let mut crc = FrameCrc::new(8);
        for (key, value) in batch {
            let rec = frame.bytes_mut();
            match value {
                Some(value) => {
                    rec.push(0);
                    put_bytes(rec, key);
                    put_u32(rec, value.len() as u32);
                    frame.append_payload_crc(&mut crc, value);
                }
                None => {
                    rec.push(1);
                    put_bytes(rec, key);
                }
            }
        }
        debug_assert_eq!(frame.len(), total);
        let crc = crc.finish(frame.bytes());
        frame.bytes_mut()[4..8].copy_from_slice(&crc.to_le_bytes());
        let written = dev
            .write_frame(self.region_off + self.head, frame)
            .and_then(|()| dev.flush());
        // Let go of the values: the scratch frame pins no buffer.
        frame.clear();
        written?;
        self.head += total;
        Ok(total)
    }

    /// Advances to the next epoch (called when the active memtable seals).
    pub fn advance_epoch(&mut self) {
        self.current_epoch += 1;
    }

    /// Resets the region after *all* logged data has been flushed to SSTs.
    /// Appends restart at offset zero under a fresh epoch.
    pub fn reset(&mut self) {
        self.head = 0;
        self.current_epoch += 1;
        self.base_epoch = self.current_epoch;
    }

    /// Scans the region and returns `(epoch, payload)` for every valid
    /// record of the current cycle, in append order.
    ///
    /// # Errors
    ///
    /// Only device errors propagate; malformed/stale records terminate the
    /// scan silently (they are the expected crash residue).
    pub fn scan<D: BlockDevice>(&self, dev: &mut D) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        let mut raw = vec![0u8; self.region_len as usize];
        dev.read_at(self.region_off, &mut raw)?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        loop {
            let mut cur = Cursor::new(&raw[pos..]);
            let Some(len) = cur.get_u32() else { break };
            let Some(stored_crc) = cur.get_u32() else {
                break;
            };
            let body_len = 8 + len as usize;
            if body_len > cur.remaining() {
                break;
            }
            let body_start = pos + cur.position();
            let body = &raw[body_start..body_start + body_len];
            if crc32(body) != stored_crc {
                break;
            }
            let epoch = u64::from_le_bytes(body[..8].try_into().expect("epoch bytes"));
            if epoch < self.base_epoch {
                break; // stale tail from a previous cycle
            }
            out.push((epoch, body[8..].to_vec()));
            pos = body_start + body_len;
        }
        Ok(out)
    }
}

/// Decodes the payload of one scanned record back into its batch; `None` if
/// it is truncated.
pub fn decode_batch(payload: &[u8]) -> Option<Vec<BatchEntry>> {
    let mut cur = Cursor::new(payload);
    let count = cur.get_u32()?;
    let mut batch = Vec::new();
    for _ in 0..count {
        let flag = cur.get_bytes_raw(1)?[0];
        let key = cur.get_bytes()?.into();
        let value = match flag {
            0 => Some(Payload::from(cur.get_bytes()?)),
            _ => None,
        };
        batch.push((key, value));
    }
    Some(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::{CrashDisk, CrashPlan, MemDisk};

    fn put(key: &[u8], value: &[u8]) -> Vec<BatchEntry> {
        vec![(key.into(), Some(value.into()))]
    }

    fn scan_batches<D: BlockDevice>(wal: &Wal, dev: &mut D) -> Vec<(u64, Vec<BatchEntry>)> {
        wal.scan(dev)
            .unwrap()
            .into_iter()
            .map(|(epoch, payload)| (epoch, decode_batch(&payload).expect("well-formed batch")))
            .collect()
    }

    #[test]
    fn append_then_scan_round_trips() {
        let mut dev = MemDisk::new(1 << 16);
        let mut wal = Wal::new(0, 1 << 16, 1);
        let mixed = vec![
            (b"a".into(), Some(b"first".as_slice().into())),
            (b"gone".into(), None),
            (b"big".into(), Some(vec![7u8; 4096].into())),
        ];
        wal.append(&mut dev, &mixed).unwrap();
        wal.append(&mut dev, &put(b"b", b"second")).unwrap();
        assert_eq!(
            scan_batches(&wal, &mut dev),
            vec![(1, mixed), (1, put(b"b", b"second"))]
        );
    }

    #[test]
    fn spliced_crc_equals_flat_crc_of_the_frame() {
        // Below, at and above the splice threshold, with a value that is a
        // window into a larger buffer (never memoized) and with several
        // spliced values in one record.
        let backing: Payload = (0u8..=255).cycle().take(9000).collect::<Vec<u8>>().into();
        let mut batches: Vec<Vec<BatchEntry>> = [0usize, 511, 512, 4096]
            .iter()
            .map(|&len| vec![(b"key".into(), Some(vec![0xA5u8; len].into()))])
            .collect();
        batches.push(vec![(b"window".into(), Some(backing.slice(123, 4096)))]);
        batches.push(vec![
            (b"a".into(), Some(backing.clone())),
            (b"info".into(), Some(vec![1u8; 28].into())),
            (b"dead".into(), None),
            (b"b".into(), Some(backing.slice(512, 512))),
        ]);
        let mut dev = MemDisk::new(1 << 16);
        let mut wal = Wal::new(0, 1 << 16, 3);
        let mut off = 0usize;
        for batch in &batches {
            let n = wal.append(&mut dev, batch).unwrap() as usize;
            let mut frame = vec![0u8; n];
            dev.read_at(off as u64, &mut frame).unwrap();
            let stored = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            assert_eq!(stored, crc32(&frame[8..]), "batch {batch:?}");
            off += n;
        }
        let recovered: Vec<_> = scan_batches(&wal, &mut dev)
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        assert_eq!(recovered, batches);
    }

    #[test]
    fn epoch_advances_with_seals() {
        let mut dev = MemDisk::new(1 << 16);
        let mut wal = Wal::new(0, 1 << 16, 5);
        wal.append(&mut dev, &put(b"k", b"a")).unwrap();
        wal.advance_epoch();
        wal.append(&mut dev, &put(b"k", b"b")).unwrap();
        assert_eq!(
            scan_batches(&wal, &mut dev),
            vec![(5, put(b"k", b"a")), (6, put(b"k", b"b"))]
        );
    }

    #[test]
    fn stale_tail_ignored_after_reset() {
        let mut dev = MemDisk::new(1 << 16);
        let mut wal = Wal::new(0, 1 << 16, 1);
        wal.append(&mut dev, &put(b"k", b"old-record-one")).unwrap();
        wal.append(&mut dev, &put(b"k", b"old-record-two")).unwrap();
        wal.reset();
        wal.append(&mut dev, &put(b"k", b"new")).unwrap();
        // The new record overwrote the start; the stale remainder of
        // "old-record-two" has an old epoch or bad crc and is dropped.
        assert_eq!(scan_batches(&wal, &mut dev), vec![(2, put(b"k", b"new"))]);
    }

    #[test]
    fn full_region_reports_no_space() {
        let mut dev = MemDisk::new(64);
        let mut wal = Wal::new(0, 64, 1);
        assert!(wal.append(&mut dev, &put(b"k", &[0u8; 10])).is_ok());
        assert_eq!(
            wal.append(&mut dev, &put(b"k", &[0u8; 10])),
            Err(StoreError::NoSpace)
        );
    }

    #[test]
    fn torn_final_record_dropped_but_prefix_survives() {
        let mut dev = CrashDisk::new(1 << 16);
        let mut wal = Wal::new(0, 1 << 16, 1);
        let first = wal.append(&mut dev, &put(b"k", b"committed")).unwrap();
        wal.append(&mut dev, &put(b"k", b"torn-record-payload"))
            .unwrap();
        // append() flushes, so simulate the tear by corrupting a byte in
        // the body of the second record.
        let mut byte = [0u8; 1];
        dev.read_at(first + 20, &mut byte).unwrap();
        dev.write_at(first + 20, &[byte[0] ^ 0xFF]).unwrap();
        dev.flush().unwrap();
        dev.crash_with(CrashPlan::lose_all());
        assert_eq!(
            scan_batches(&wal, &mut dev),
            vec![(1, put(b"k", b"committed"))]
        );
    }
}
