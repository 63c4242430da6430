//! Segment allocator for SST storage.
//!
//! The device area behind the WAL and manifest regions is divided into
//! fixed-size segments; SST files occupy an ordered list of segments. A
//! bitmap is plenty — fragmentation is irrelevant because every allocation
//! is exactly one segment. It hands out the lowest free segment, so the
//! device area in use is as small as the live data allows (a next-fit
//! cursor would sweep the whole device and touch every page of it).

use rablock_storage::StoreError;

/// Lowest-first bitmap allocator over `count` equal segments.
#[derive(Debug, Clone)]
pub struct SegAlloc {
    used: Vec<bool>,
    free: usize,
    /// Every segment below this one is in use (`free` lowers it).
    low_water: usize,
}

impl SegAlloc {
    /// Creates an allocator with all `count` segments free.
    pub fn new(count: usize) -> Self {
        SegAlloc {
            used: vec![false; count],
            free: count,
            low_water: 0,
        }
    }

    /// Number of free segments.
    #[cfg(test)]
    pub fn free_segments(&self) -> usize {
        self.free
    }

    /// Allocates the lowest free segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when every segment is in use.
    pub fn alloc(&mut self) -> Result<u32, StoreError> {
        if self.free == 0 {
            return Err(StoreError::NoSpace);
        }
        let idx = (self.low_water..self.used.len())
            .find(|&idx| !self.used[idx])
            .expect("free count positive but no free segment found");
        self.used[idx] = true;
        self.free -= 1;
        self.low_water = idx + 1;
        Ok(idx as u32)
    }

    /// Frees a segment.
    ///
    /// # Panics
    ///
    /// Panics on double-free or out-of-range ids — both are store bugs.
    pub fn free(&mut self, seg: u32) {
        let idx = seg as usize;
        assert!(self.used[idx], "double free of segment {seg}");
        self.used[idx] = false;
        self.free += 1;
        self.low_water = self.low_water.min(idx);
    }

    /// Marks a segment as used during recovery (manifest replay).
    ///
    /// # Panics
    ///
    /// Panics if the segment is already marked used.
    pub fn mark_used(&mut self, seg: u32) {
        let idx = seg as usize;
        assert!(
            !self.used[idx],
            "segment {seg} claimed twice during recovery"
        );
        self.used[idx] = true;
        self.free -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut a = SegAlloc::new(4);
        let s0 = a.alloc().unwrap();
        let s1 = a.alloc().unwrap();
        assert_ne!(s0, s1);
        assert_eq!(a.free_segments(), 2);
        a.free(s0);
        assert_eq!(a.free_segments(), 3);
    }

    #[test]
    fn alloc_takes_the_lowest_free_segment() {
        let mut a = SegAlloc::new(8);
        a.mark_used(1);
        let first: Vec<u32> = (0..4).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(first, [0, 2, 3, 4]);
        a.free(3);
        a.free(0);
        let again: Vec<u32> = (0..3).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(again, [0, 3, 5], "freed segments first, lowest first");
    }

    #[test]
    fn exhaustion_reports_no_space() {
        let mut a = SegAlloc::new(2);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(StoreError::NoSpace));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = SegAlloc::new(2);
        let s = a.alloc().unwrap();
        a.free(s);
        a.free(s);
    }

    #[test]
    fn recovery_marking_is_respected() {
        let mut a = SegAlloc::new(3);
        a.mark_used(1);
        let s0 = a.alloc().unwrap();
        let s2 = a.alloc().unwrap();
        assert!(s0 != 1 && s2 != 1);
        assert_eq!(a.alloc(), Err(StoreError::NoSpace));
    }
}
