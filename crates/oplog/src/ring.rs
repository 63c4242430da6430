//! NVM ring buffer backing one group's operation log.
//!
//! Records append at the head and are consumed (flushed to the backend
//! store) from the tail, exactly the producer/consumer structure of §IV-A:
//! priority threads produce, non-priority threads consume. Head and tail are
//! monotone byte counters persisted in a small CRC-protected header, so a
//! crashed node recovers its log by scanning `[tail, head)`.

use rablock_storage::crc::crc32;
use rablock_storage::{NvmRegion, Record, StoreError};

const HEADER_BYTES: u64 = 48;
const MAGIC: u32 = 0x4F50_4C47; // "OPLG"
/// A persistent ring of log records inside an [`NvmRegion`] slice.
/// [`GroupLog`](crate::GroupLog) appends to it; the region holds each
/// record by reference, unencoded until a read of the ring needs its
/// bytes, until the tail passes it.
#[derive(Debug, Clone)]
pub struct NvmRing {
    base: u64,
    data_cap: u64,
    /// Monotone byte counter of the next append position.
    head: u64,
    /// Monotone byte counter of the oldest un-flushed byte.
    tail: u64,
}

impl NvmRing {
    /// Creates a fresh ring over `[base, base+len)` of the region.
    ///
    /// # Panics
    ///
    /// Panics if `len` is too small to hold the header plus one record.
    pub fn format(nvm: &mut NvmRegion, base: u64, len: u64) -> Result<Self, StoreError> {
        assert!(len > HEADER_BYTES + 64, "ring of {len} bytes is too small");
        let ring = NvmRing {
            base,
            data_cap: len - HEADER_BYTES,
            head: 0,
            tail: 0,
        };
        ring.write_header(nvm)?;
        Ok(ring)
    }

    /// Reopens a ring after a reboot, validating the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic/CRC, a region too short for a
    /// header, or counters no ring of this size can have reached.
    pub fn open(nvm: &mut NvmRegion, base: u64, len: u64) -> Result<Self, StoreError> {
        if len < HEADER_BYTES {
            return Err(StoreError::Corrupt(
                "operation-log region shorter than its header".into(),
            ));
        }
        let raw = nvm.read(base, HEADER_BYTES)?;
        let stored_crc = u32::from_le_bytes(raw[36..40].try_into().expect("4 bytes"));
        if crc32(&raw[..36]) != stored_crc {
            return Err(StoreError::Corrupt(
                "operation-log header crc mismatch".into(),
            ));
        }
        if u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) != MAGIC {
            return Err(StoreError::Corrupt("operation-log header bad magic".into()));
        }
        let data_cap = u64::from_le_bytes(raw[4..12].try_into().expect("8 bytes"));
        if data_cap != len - HEADER_BYTES {
            return Err(StoreError::Corrupt("operation-log geometry changed".into()));
        }
        let head = u64::from_le_bytes(raw[12..20].try_into().expect("8 bytes"));
        let tail = u64::from_le_bytes(raw[20..28].try_into().expect("8 bytes"));
        if tail > head || head - tail > data_cap {
            return Err(StoreError::Corrupt(
                "operation-log head/tail out of range".into(),
            ));
        }
        Ok(NvmRing {
            base,
            data_cap,
            head,
            tail,
        })
    }

    fn write_header(&self, nvm: &mut NvmRegion) -> Result<(), StoreError> {
        let mut raw = [0u8; HEADER_BYTES as usize];
        raw[..4].copy_from_slice(&MAGIC.to_le_bytes());
        raw[4..12].copy_from_slice(&self.data_cap.to_le_bytes());
        raw[12..20].copy_from_slice(&self.head.to_le_bytes());
        raw[20..28].copy_from_slice(&self.tail.to_le_bytes());
        let crc = crc32(&raw[..36]);
        raw[36..40].copy_from_slice(&crc.to_le_bytes());
        nvm.write(self.base, &raw)
    }

    /// Base offset of the ring within its NVM region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total region length (header plus data capacity).
    pub fn region_len(&self) -> u64 {
        self.data_cap + HEADER_BYTES
    }

    /// Bytes currently queued.
    pub fn used(&self) -> u64 {
        self.head - self.tail
    }

    /// Bytes available for appends.
    pub fn available(&self) -> u64 {
        self.data_cap - self.used()
    }

    /// The physical pieces of the logical byte range `[from, to)`, as
    /// `(region offset, length)`: one, or two when the range wraps around
    /// the region end.
    fn spans(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, u64)> {
        let (base, cap) = (self.base + HEADER_BYTES, self.data_cap);
        let mut at = from;
        std::iter::from_fn(move || {
            (at < to).then(|| {
                let pos = at % cap;
                let chunk = (cap - pos).min(to - at);
                at += chunk;
                (base + pos, chunk)
            })
        })
    }

    /// Appends one record. Records may wrap around the region end (split
    /// into two physical writes); the logical stream stays contiguous.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when the ring cannot take the record — the
    /// caller must flush synchronously first (paper §IV-A: when NVM is full
    /// the logging degenerates to synchronous flushing).
    pub(crate) fn append(
        &mut self,
        nvm: &mut NvmRegion,
        record: &Record,
    ) -> Result<(), StoreError> {
        self.append_batch(nvm, std::slice::from_ref(record))
    }

    /// Appends a batch of records with a single header update at the
    /// end (group-commit admission: one persisted head advance covers the
    /// whole batch). All-or-nothing: space for the entire batch is checked up
    /// front, so a [`StoreError::NoSpace`] leaves the persisted state
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when the ring cannot take the whole batch.
    pub(crate) fn append_batch(
        &mut self,
        nvm: &mut NvmRegion,
        records: &[Record],
    ) -> Result<(), StoreError> {
        let total: u64 = records.iter().map(Record::len).sum();
        if total > self.available() {
            return Err(StoreError::NoSpace);
        }
        for record in records {
            assert!(
                record.len() < self.data_cap,
                "record larger than the whole ring"
            );
            self.write_record(nvm, record)?;
        }
        self.write_header(nvm)
    }

    /// Writes one record at the head as one record write, or as two views
    /// of it where it wraps around the region end.
    fn write_record(&mut self, nvm: &mut NvmRegion, record: &Record) -> Result<(), StoreError> {
        let len = record.len();
        let mut done = 0;
        for (at, chunk) in self.spans(self.head, self.head + len) {
            nvm.write_record(at, record.slice(done, chunk))?;
            done += chunk;
        }
        self.head += len;
        Ok(())
    }

    /// Consumes `len` bytes from the tail (one or more records were flushed;
    /// a drained batch advances the tail once for the whole batch) and
    /// releases the records the region held for them.
    pub fn consume(&mut self, nvm: &mut NvmRegion, len: u64) -> Result<(), StoreError> {
        debug_assert!(self.tail + len <= self.head, "consuming past the head");
        let old_tail = self.tail;
        self.tail += len;
        self.write_header(nvm)?;
        self.release(nvm, old_tail, self.tail)
    }

    /// Truncates the head so that only `new_used` queued bytes remain,
    /// discarding the newest `used() - new_used` bytes (torn-tail recovery:
    /// a half-written final record is cut off, never re-served).
    ///
    /// # Errors
    ///
    /// Propagates NVM header-update errors.
    pub fn truncate_head(&mut self, nvm: &mut NvmRegion, new_used: u64) -> Result<(), StoreError> {
        debug_assert!(
            new_used <= self.used(),
            "cannot truncate to more than is queued"
        );
        let old_head = self.head;
        self.head = self.tail + new_used;
        self.write_header(nvm)?;
        self.release(nvm, self.head, old_head)
    }

    /// Unpins the records the region holds for the logical bytes `[from,
    /// to)`, which just left the queue.
    fn release(&self, nvm: &mut NvmRegion, from: u64, to: u64) -> Result<(), StoreError> {
        for (at, chunk) in self.spans(from, to) {
            nvm.release(at, chunk)?;
        }
        Ok(())
    }

    /// Fault injection: corrupts the newest `len` queued bytes in place
    /// (bit-flips every byte), modelling a crash that tears the tail of the
    /// last append. Recovery must detect the damage by checksum.
    ///
    /// # Errors
    ///
    /// Propagates NVM access errors.
    pub fn corrupt_suffix(&self, nvm: &mut NvmRegion, len: u64) -> Result<(), StoreError> {
        let len = len.min(self.used());
        for (at, chunk) in self.spans(self.head - len, self.head) {
            let mut buf = nvm.read(at, chunk)?;
            for b in &mut buf {
                *b ^= 0xFF;
            }
            nvm.write(at, &buf)?;
        }
        Ok(())
    }

    /// Fault injection: flips one bit of the `nth` queued byte (modulo the
    /// queued length), modelling silent NVM bit rot inside a committed
    /// record. Returns `false` on an empty ring.
    ///
    /// # Errors
    ///
    /// Propagates NVM access errors.
    pub fn corrupt_bit(&self, nvm: &mut NvmRegion, nth: u64, bit: u8) -> Result<bool, StoreError> {
        if self.used() == 0 {
            return Ok(false);
        }
        let at = self.tail + nth % self.used();
        let pos = at % self.data_cap;
        let mut b = nvm.read(self.base + HEADER_BYTES + pos, 1)?;
        b[0] ^= 1 << (bit % 8);
        nvm.write(self.base + HEADER_BYTES + pos, &b)?;
        Ok(true)
    }

    /// Reads the queued bytes `[tail, head)` in order (recovery scan).
    ///
    /// # Errors
    ///
    /// Propagates NVM access errors.
    pub fn queued_bytes(&self, nvm: &mut NvmRegion) -> Result<Vec<u8>, StoreError> {
        let mut out = vec![0; self.used() as usize];
        let mut filled = 0;
        for (at, chunk) in self.spans(self.tail, self.head) {
            let end = filled + chunk as usize;
            nvm.read_into(at, &mut out[filled..end])?;
            filled = end;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::{Encode, Encoded};
    use std::sync::Arc;

    /// Bytes as a value: the ring stores whatever record it is handed.
    #[derive(Debug)]
    struct Raw(Vec<u8>);

    impl Encode for Raw {
        fn encoded_len(&self) -> u64 {
            self.0.len() as u64
        }
        fn encode(&self) -> Vec<u8> {
            self.0.clone()
        }
    }

    fn raw(bytes: &[u8]) -> Record {
        Record::new(Arc::new(Encoded::new(Raw(bytes.to_vec()))))
    }

    fn bytes(fill: u8, len: usize) -> Record {
        raw(&vec![fill; len])
    }

    fn ring(cap: u64) -> (NvmRegion, NvmRing) {
        let mut nvm = NvmRegion::new(cap + HEADER_BYTES);
        let ring = NvmRing::format(&mut nvm, 0, cap + HEADER_BYTES).unwrap();
        (nvm, ring)
    }

    #[test]
    fn append_consume_cycle() {
        let (mut nvm, mut r) = ring(256);
        r.append(&mut nvm, &bytes(1, 64)).unwrap();
        r.append(&mut nvm, &bytes(2, 64)).unwrap();
        assert_eq!(r.used(), 128);
        let q = r.queued_bytes(&mut nvm).unwrap();
        assert_eq!(&q[..64], &[1u8; 64][..]);
        assert_eq!(&q[64..], &[2u8; 64][..]);
        r.consume(&mut nvm, 64).unwrap();
        assert_eq!(r.used(), 64);
        assert_eq!(r.queued_bytes(&mut nvm).unwrap(), vec![2u8; 64]);
    }

    #[test]
    fn fills_up_and_reports_no_space() {
        let (mut nvm, mut r) = ring(128);
        r.append(&mut nvm, &bytes(0, 100)).unwrap();
        assert_eq!(r.append(&mut nvm, &bytes(0, 100)), Err(StoreError::NoSpace));
        r.consume(&mut nvm, 100).unwrap();
        r.append(&mut nvm, &bytes(0, 100)).unwrap();
    }

    #[test]
    fn wraps_across_the_region_end() {
        let (mut nvm, mut r) = ring(256);
        r.append(&mut nvm, &bytes(1, 200)).unwrap();
        r.consume(&mut nvm, 200).unwrap();
        // Next append would cross the end: wraps to physical 0.
        r.append(&mut nvm, &bytes(2, 100)).unwrap();
        assert_eq!(r.queued_bytes(&mut nvm).unwrap(), vec![2u8; 100]);
        r.consume(&mut nvm, 100).unwrap();
        assert_eq!(r.used(), 0);
    }

    #[test]
    fn survives_reopen() {
        let mut nvm = NvmRegion::new(512);
        let mut r = NvmRing::format(&mut nvm, 0, 512).unwrap();
        r.append(&mut nvm, &raw(b"alpha-record")).unwrap();
        r.append(&mut nvm, &raw(b"beta-record!")).unwrap();
        r.consume(&mut nvm, 12).unwrap();
        nvm.reboot();
        let r2 = NvmRing::open(&mut nvm, 0, 512).unwrap();
        assert_eq!(r2.used(), r.used());
        assert_eq!(r2.queued_bytes(&mut nvm).unwrap(), b"beta-record!");
    }

    #[test]
    fn corrupt_suffix_then_truncate_recovers_prefix() {
        let (mut nvm, mut r) = ring(256);
        r.append(&mut nvm, &bytes(1, 64)).unwrap();
        r.append(&mut nvm, &bytes(2, 64)).unwrap();
        // Tear the second half of the last record.
        r.corrupt_suffix(&mut nvm, 32).unwrap();
        let q = r.queued_bytes(&mut nvm).unwrap();
        assert_eq!(&q[..64], &[1u8; 64][..]);
        assert_eq!(&q[64..96], &[2u8; 32][..]);
        assert_eq!(&q[96..], &[!2u8; 32][..], "torn bytes are flipped");
        // Truncate the damaged record away.
        r.truncate_head(&mut nvm, 64).unwrap();
        assert_eq!(r.used(), 64);
        assert_eq!(r.queued_bytes(&mut nvm).unwrap(), vec![1u8; 64]);
        // The ring still works after truncation.
        r.append(&mut nvm, &bytes(3, 64)).unwrap();
        assert_eq!(r.queued_bytes(&mut nvm).unwrap()[64..], [3u8; 64][..]);
    }

    #[test]
    fn bit_flipped_record_rejected_by_checksum_on_replay() {
        use crate::entry::LogRecord;
        use rablock_storage::{GroupId, ObjectId, Op, Transaction};

        let (mut nvm, mut r) = ring(4096);
        let oid = ObjectId::new(GroupId(0), 1);
        let recs: Vec<Vec<u8>> = (0..3u64)
            .map(|seq| {
                LogRecord {
                    version: 1,
                    seq,
                    txn: Transaction::new(
                        GroupId(0),
                        seq,
                        vec![Op::Write {
                            oid,
                            offset: 0,
                            data: vec![seq as u8; 128].into(),
                        }],
                    ),
                }
                .encode()
            })
            .collect();
        for rec in &recs {
            r.append(&mut nvm, &raw(rec)).unwrap();
        }
        // Flip a single bit in the middle of the newest record's body — the
        // device-level corruption a torn NVM write leaves behind.
        let at = r.head - recs[2].len() as u64 / 2;
        let pos = at % r.data_cap;
        let mut b = nvm.read(r.base + HEADER_BYTES + pos, 1).unwrap();
        b[0] ^= 0x04;
        nvm.write(r.base + HEADER_BYTES + pos, &b).unwrap();

        // Replay the queued stream: the intact records decode, the damaged
        // one fails its CRC instead of being served back as valid data.
        let q = r.queued_bytes(&mut nvm).unwrap();
        let mut pos = 0usize;
        let mut decoded = 0;
        let err = loop {
            match LogRecord::decode(&q[pos..]) {
                Ok((rec, consumed)) => {
                    assert_eq!(rec.seq, decoded as u64);
                    decoded += 1;
                    pos += consumed;
                }
                Err(e) => break e,
            }
        };
        assert_eq!(decoded, 2, "records before the flip replay fine");
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "flip caught by crc: {err}"
        );
    }

    #[test]
    fn segmented_appends_leave_the_flat_record_stream_also_across_the_wrap() {
        use crate::entry::varied_records;

        // A ring a little larger than the biggest record (12.5 KiB), so most
        // appends wrap, somewhere inside a write payload or around it.
        let (mut nvm, mut r) = ring(14_000);
        let records = varied_records();
        let mut queued: Vec<Vec<u8>> = Vec::new();
        let mut written = nvm.bytes_written();
        for lap in 0..40 {
            for rec in &records {
                let flat = rec.encode();
                while r.available() < flat.len() as u64 {
                    let oldest = queued.remove(0);
                    r.consume(&mut nvm, oldest.len() as u64).unwrap();
                    written += HEADER_BYTES;
                    // What left the queue leaves the region: it holds the
                    // queued records and the header, not a lap of the ring.
                    assert!(nvm.resident_bytes() <= r.used() + HEADER_BYTES);
                }
                let record = Record::new(Arc::new(Encoded::new(rec.clone())));
                r.append(&mut nvm, &record).unwrap();
                written += flat.len() as u64 + HEADER_BYTES;
                queued.push(flat);
                assert_eq!(
                    r.queued_bytes(&mut nvm).unwrap(),
                    queued.concat(),
                    "lap {lap}"
                );
                assert_eq!(nvm.bytes_written(), written, "counted like byte writes");
            }
        }
        assert!(r.head > 20 * r.data_cap, "the ring went round");
        // A reopened ring reads the same stream back.
        nvm.reboot();
        let reopened = NvmRing::open(&mut nvm, 0, 14_000 + HEADER_BYTES).unwrap();
        assert_eq!(reopened.queued_bytes(&mut nvm).unwrap(), queued.concat());
    }

    #[test]
    fn open_rejects_a_header_no_ring_could_have_written() {
        let len = 256 + HEADER_BYTES;
        let mut nvm = NvmRegion::new(len);
        let good = NvmRing::format(&mut nvm, 0, len).unwrap();
        for (head, tail) in [(10, 11), (257, 0), (u64::MAX, 5)] {
            // A valid CRC over impossible counters (a stray write that
            // happens to checksum, or a header from another geometry).
            NvmRing {
                head,
                tail,
                ..good.clone()
            }
            .write_header(&mut nvm)
            .unwrap();
            assert!(
                matches!(NvmRing::open(&mut nvm, 0, len), Err(StoreError::Corrupt(_))),
                "head {head}, tail {tail}"
            );
        }
        assert!(matches!(
            NvmRing::open(&mut nvm, 0, HEADER_BYTES - 1),
            Err(StoreError::Corrupt(_))
        ));
        good.write_header(&mut nvm).unwrap();
        assert!(NvmRing::open(&mut nvm, 0, len).is_ok());
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut nvm = NvmRegion::new(512);
        let _ = NvmRing::format(&mut nvm, 0, 512).unwrap();
        let mut raw = nvm.read(0, 4).unwrap();
        raw[0] ^= 0xFF;
        nvm.write(0, &raw).unwrap();
        assert!(matches!(
            NvmRing::open(&mut nvm, 0, 512),
            Err(StoreError::Corrupt(_))
        ));
    }
}
