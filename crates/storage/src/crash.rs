//! Crash-injection block device for consistency testing.
//!
//! [`CrashDisk`] distinguishes the *volatile* view (what the running store
//! reads back — includes every completed write) from the *persistent* image
//! (what survives power loss — only writes covered by a flush barrier).
//! `crash_with(...)` simulates power loss: the volatile view is reset to the
//! persistent image plus a caller-chosen prefix of the unflushed writes,
//! optionally with the last surviving write torn in half — the classic
//! failure modes a write-ahead log must tolerate.

use crate::blockdev::{BlockDevice, DevCounters, MemDisk};
use crate::error::StoreError;
use crate::frame::Frame;
use crate::payload::Segments;

/// How much of the unflushed write stream survives a simulated crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Number of unflushed writes (in submission order) that reached the
    /// media before power loss. Clamped to the pending count.
    pub surviving_writes: usize,
    /// If true, the last surviving write is torn: only its first half lands.
    pub tear_last: bool,
    /// If true (and `tear_last`), the landed half of the torn write is also
    /// bit-flipped mid-way — the media committed garbage, not just a clean
    /// prefix. Recovery must catch this by checksum, not by length.
    pub corrupt_tear: bool,
}

impl CrashPlan {
    /// Everything unflushed is lost (the harshest plan a flush-correct store
    /// must survive).
    pub fn lose_all() -> Self {
        CrashPlan {
            surviving_writes: 0,
            tear_last: false,
            corrupt_tear: false,
        }
    }

    /// A prefix of `n` unflushed writes survives.
    pub fn keep(n: usize) -> Self {
        CrashPlan {
            surviving_writes: n,
            tear_last: false,
            corrupt_tear: false,
        }
    }

    /// A prefix of `n` unflushed writes survives and the `n`-th is torn.
    pub fn keep_torn(n: usize) -> Self {
        CrashPlan {
            surviving_writes: n,
            tear_last: true,
            corrupt_tear: false,
        }
    }

    /// A prefix of `n` unflushed writes survives; the `n`-th is torn *and*
    /// its surviving half carries a bit flip.
    pub fn keep_torn_corrupt(n: usize) -> Self {
        CrashPlan {
            surviving_writes: n,
            tear_last: true,
            corrupt_tear: true,
        }
    }
}

/// A block device that tracks unflushed writes and can simulate power loss.
///
/// Both sides are [`MemDisk`]s, so payload and frame writes are kept by
/// reference on either, as they are on a plain `MemDisk`: an unflushed write
/// waits as a [`Frame`] holding the writer's buffers, a flush applies it to
/// the persistent side, and a crash makes the volatile view a copy of the
/// persistent one. The traffic counters are the volatile view's and run on
/// across crashes.
///
/// ```
/// use rablock_storage::{BlockDevice, CrashDisk, CrashPlan};
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut disk = CrashDisk::new(4096);
/// disk.write_at(0, b"durable")?;
/// disk.flush()?;
/// disk.write_at(0, b"doomed!")?;
/// disk.crash_with(CrashPlan::lose_all());
/// let mut buf = [0u8; 7];
/// disk.read_at(0, &mut buf)?;
/// assert_eq!(&buf, b"durable");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrashDisk {
    /// What a reader sees now (all completed writes applied).
    volatile: MemDisk,
    /// What survives power loss (writes up to the last flush).
    persistent: MemDisk,
    /// Writes since the last flush, in submission order.
    pending: Vec<(u64, Frame)>,
    crashes: u64,
}

impl CrashDisk {
    /// Creates a zero-filled crash-injectable device.
    pub fn new(capacity: u64) -> Self {
        CrashDisk {
            volatile: MemDisk::new(capacity),
            persistent: MemDisk::new(capacity),
            pending: Vec::new(),
            crashes: 0,
        }
    }

    /// Number of writes not yet covered by a flush.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// Number of crashes injected so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Simulates power loss per `plan`, resetting the volatile view to what
    /// the media would actually hold. Pending writes are discarded; the
    /// traffic counters are kept.
    pub fn crash_with(&mut self, plan: CrashPlan) {
        let keep = plan.surviving_writes.min(self.pending.len());
        for (i, (offset, write)) in self.pending.drain(..).take(keep).enumerate() {
            let landed = if plan.tear_last && i + 1 == keep {
                let mut torn_half = write.to_vec();
                torn_half.truncate(torn_half.len() / 2);
                if plan.corrupt_tear && !torn_half.is_empty() {
                    let mid = torn_half.len() / 2;
                    torn_half[mid] ^= 0x10;
                }
                self.persistent.write_at(offset, &torn_half)
            } else {
                self.persistent.write_frame(offset, &write)
            };
            landed.expect("pending writes are in bounds");
        }
        self.volatile.restore_from(&self.persistent);
        self.crashes += 1;
    }
}

impl BlockDevice for CrashDisk {
    fn capacity(&self) -> u64 {
        self.volatile.capacity()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.volatile.read_at(offset, buf)
    }

    fn read_frame(&mut self, offset: u64, len: usize, out: &mut Frame) -> Result<(), StoreError> {
        self.volatile.read_frame(offset, len, out)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.volatile.write_at(offset, data)?;
        self.pending.push((offset, Frame::from(data)));
        Ok(())
    }

    fn write_segments_at(&mut self, offset: u64, data: &Segments) -> Result<(), StoreError> {
        self.volatile.write_segments_at(offset, data)?;
        let mut write = Frame::new();
        data.iter().for_each(|view| write.hold(view.clone()));
        self.pending.push((offset, write));
        Ok(())
    }

    fn write_frame(&mut self, offset: u64, frame: &Frame) -> Result<(), StoreError> {
        self.volatile.write_frame(offset, frame)?;
        self.pending.push((offset, frame.clone()));
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        for (offset, write) in self.pending.drain(..) {
            self.persistent
                .write_frame(offset, &write)
                .expect("pending writes are in bounds");
        }
        self.volatile.flush()
    }

    fn counters(&self) -> DevCounters {
        self.volatile.counters()
    }

    fn reset_counters(&mut self) {
        self.volatile.reset_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn read(d: &mut CrashDisk, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        d.read_at(offset, &mut buf).unwrap();
        buf
    }

    #[test]
    fn flushed_writes_survive_crash() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"abc").unwrap();
        d.flush().unwrap();
        d.crash_with(CrashPlan::lose_all());
        assert_eq!(read(&mut d, 0, 3), b"abc");
    }

    #[test]
    fn unflushed_writes_vanish() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"abc").unwrap();
        d.crash_with(CrashPlan::lose_all());
        assert_eq!(read(&mut d, 0, 3), vec![0, 0, 0]);
        assert_eq!(d.crashes(), 1);
    }

    #[test]
    fn prefix_of_pending_survives_in_order() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"a").unwrap();
        d.write_at(1, b"b").unwrap();
        d.write_at(2, b"c").unwrap();
        d.crash_with(CrashPlan::keep(2));
        assert_eq!(read(&mut d, 0, 3), b"ab\0");
    }

    #[test]
    fn torn_write_applies_half() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"ABCDEFGH").unwrap();
        d.crash_with(CrashPlan::keep_torn(1));
        assert_eq!(read(&mut d, 0, 8), b"ABCD\0\0\0\0");
    }

    #[test]
    fn corrupt_tear_flips_a_bit_in_the_surviving_half() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"ABCDEFGH").unwrap();
        d.crash_with(CrashPlan::keep_torn_corrupt(1));
        let got = read(&mut d, 0, 8);
        // First half landed but one byte is damaged; second half never landed.
        assert_eq!(&got[4..], &[0, 0, 0, 0]);
        assert_ne!(&got[..4], b"ABCD", "bit flip damaged the landed half");
        let diff: usize = got[..4].iter().zip(b"ABCD").filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "exactly one byte differs");
    }

    #[test]
    fn corrupt_tear_without_tear_flag_is_clean() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"ABCDEFGH").unwrap();
        let plan = CrashPlan {
            surviving_writes: 1,
            tear_last: false,
            corrupt_tear: true,
        };
        d.crash_with(plan);
        assert_eq!(
            read(&mut d, 0, 8),
            b"ABCDEFGH",
            "corruption only applies to a torn write"
        );
    }

    #[test]
    fn volatile_view_sees_pending_before_crash() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"xyz").unwrap();
        assert_eq!(read(&mut d, 0, 3), b"xyz");
        assert_eq!(d.pending_writes(), 1);
        // The trait's default payload read: a fresh buffer, same counters.
        assert_eq!(d.read_payload_at(1, 2).unwrap(), b"yz".to_vec());
        assert_eq!((d.counters().reads, d.counters().bytes_read), (2, 5));
        assert!(d.read_payload_at(60, 5).is_err());
    }

    #[test]
    fn overlapping_pending_writes_replay_in_order() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"1111").unwrap();
        d.write_at(2, b"22").unwrap();
        d.crash_with(CrashPlan::keep(2));
        assert_eq!(read(&mut d, 0, 4), b"1122");
    }

    #[test]
    fn counters_run_on_across_a_crash() {
        let mut d = CrashDisk::new(64);
        d.write_at(0, b"abc").unwrap();
        d.flush().unwrap();
        d.write_at(3, b"def").unwrap();
        read(&mut d, 0, 6);
        let before = d.counters();
        assert_eq!(
            (
                before.writes,
                before.flushes,
                before.bytes_written,
                before.reads
            ),
            (2, 1, 6, 1)
        );
        d.crash_with(CrashPlan::keep_torn(1));
        assert_eq!(d.counters(), before, "a crash is not a reset");
        assert_eq!(read(&mut d, 0, 6), b"abcd\0\0");
        assert_eq!(d.counters().reads, before.reads + 1);
        d.reset_counters();
        assert_eq!(d.counters(), DevCounters::default());
    }

    #[test]
    fn held_views_survive_a_flush_and_a_crash_by_reference() {
        let mut d = CrashDisk::new(64 << 10);
        let block = Payload::from(vec![5u8; 4096]);
        d.write_segments_at(4096, &block.clone().into()).unwrap();
        d.flush().unwrap();
        let mut frame = Frame::new();
        frame.bytes_mut().extend_from_slice(b"head");
        frame.hold(block.clone());
        d.write_frame(8192, &frame).unwrap();
        assert_eq!(d.pending_writes(), 1);
        d.crash_with(CrashPlan::lose_all());
        let back = d.read_payload_at(4096, 4096).unwrap();
        assert_eq!(back, block);
        let mut after = Frame::new();
        d.read_frame(4096, 4096, &mut after).unwrap();
        assert!(
            std::ptr::eq(after.held()[0].1.as_ptr(), block.as_ptr()),
            "the writer's buffer, through both sides"
        );
        assert_eq!(read(&mut d, 8192, 8), [0; 8], "the unflushed frame is gone");
    }
}
