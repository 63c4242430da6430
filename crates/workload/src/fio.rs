//! fio-style workload generation.
//!
//! Mirrors the fio jobs the paper runs: block size, access pattern
//! (random/sequential, read/write/mixed), and an addressable byte range per
//! job. A [`FioJob`] yields an abstract stream of [`WlOp`]s; drivers map
//! them onto images/objects.

use rand::Rng;

/// Direction of one generated operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WlKind {
    /// A read.
    Read,
    /// A write.
    Write,
}

/// One abstract operation over a linear byte space.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WlOp {
    /// Direction.
    pub kind: WlKind,
    /// Byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Access pattern, as fio's `rw=` parameter.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessPattern {
    /// `randwrite`.
    RandWrite,
    /// `randread`.
    RandRead,
    /// `randrw` with the given read percentage (0..=100).
    RandRw {
        /// Percentage of reads.
        read_pct: u8,
    },
    /// `write` (sequential).
    SeqWrite,
    /// `read` (sequential).
    SeqRead,
}

/// One fio-style job over a byte range.
///
/// ```
/// use rablock_workload::{AccessPattern, FioJob};
/// use rand::SeedableRng;
///
/// let mut job = FioJob::new(AccessPattern::RandWrite, 4096, 30 << 20);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let op = job.next_op(&mut rng);
/// assert_eq!(op.len, 4096);
/// assert_eq!(op.offset % 4096, 0);
/// ```
#[derive(Debug, Clone)]
pub struct FioJob {
    pattern: AccessPattern,
    block_size: u64,
    range: u64,
    cursor: u64,
}

impl FioJob {
    /// A job of `pattern` with `block_size`-byte operations over
    /// `[0, range)`. Random offsets are block-aligned, like fio's default.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or exceeds `range`.
    pub fn new(pattern: AccessPattern, block_size: u64, range: u64) -> Self {
        assert!(block_size > 0, "zero block size");
        assert!(block_size <= range, "block larger than range");
        FioJob {
            pattern,
            block_size,
            range,
            cursor: 0,
        }
    }

    /// The block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Generates the next operation.
    pub fn next_op(&mut self, rng: &mut impl Rng) -> WlOp {
        let blocks = self.range / self.block_size;
        let (kind, offset) = match self.pattern {
            AccessPattern::RandWrite => (WlKind::Write, rng.gen_range(0..blocks) * self.block_size),
            AccessPattern::RandRead => (WlKind::Read, rng.gen_range(0..blocks) * self.block_size),
            AccessPattern::RandRw { read_pct } => {
                let kind = if rng.gen_range(0..100u8) < read_pct {
                    WlKind::Read
                } else {
                    WlKind::Write
                };
                (kind, rng.gen_range(0..blocks) * self.block_size)
            }
            AccessPattern::SeqWrite | AccessPattern::SeqRead => {
                let offset = (self.cursor % blocks) * self.block_size;
                self.cursor += 1;
                let kind = if matches!(self.pattern, AccessPattern::SeqWrite) {
                    WlKind::Write
                } else {
                    WlKind::Read
                };
                (kind, offset)
            }
        };
        WlOp {
            kind,
            offset,
            len: self.block_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn random_offsets_are_aligned_and_bounded() {
        let mut j = FioJob::new(AccessPattern::RandWrite, 4096, 1 << 20);
        let mut r = rng();
        for _ in 0..1000 {
            let op = j.next_op(&mut r);
            assert_eq!(op.kind, WlKind::Write);
            assert_eq!(op.offset % 4096, 0);
            assert!(op.offset + op.len <= 1 << 20);
        }
    }

    #[test]
    fn sequential_walks_in_order_and_wraps() {
        let mut j = FioJob::new(AccessPattern::SeqWrite, 4096, 16384);
        let mut r = rng();
        let offsets: Vec<u64> = (0..6).map(|_| j.next_op(&mut r).offset).collect();
        assert_eq!(offsets, vec![0, 4096, 8192, 12288, 0, 4096]);
    }

    #[test]
    fn mixed_ratio_approximately_holds() {
        let mut j = FioJob::new(AccessPattern::RandRw { read_pct: 80 }, 4096, 1 << 20);
        let mut r = rng();
        let n = 10_000;
        let reads = (0..n)
            .filter(|_| j.next_op(&mut r).kind == WlKind::Read)
            .count();
        let pct = reads as f64 / n as f64;
        assert!((0.77..0.83).contains(&pct), "read ratio {pct}");
    }
}
