//! The backend store behind one OSD: the BlueStore-like LSM store, the
//! paper's CPU-efficient object store, or nothing at all.

use rablock_cos::CosObjectStore;
use rablock_lsm::LsmObjectStore;
use rablock_storage::{
    MemDisk, ObjectId, ObjectStore, Payload, Segments, StoreError, StoreStats, TraceIo, Transaction,
};

/// The backend store behind one OSD.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// BlueStore-like LSM store.
    Lsm(LsmObjectStore<MemDisk>),
    /// CPU-efficient object store.
    Cos(CosObjectStore<MemDisk>),
    /// No-op store (roofline variants / Ideal).
    Null,
}

impl Backend {
    /// Applies `txn`, dropping the partial trace of one the store refuses.
    pub(super) fn submit(&mut self, txn: Transaction) -> Result<(), StoreError> {
        let applied = match self {
            Backend::Lsm(s) => s.submit(txn),
            Backend::Cos(s) => s.submit(txn),
            Backend::Null => Ok(()),
        };
        applied.inspect_err(|_| drop(self.take_trace()))
    }

    /// The range as the views the store holds it in: what scrub, push and
    /// backfill digest and ship without assembling the object.
    pub(super) fn read_segments(
        &mut self,
        oid: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<Segments, StoreError> {
        match self {
            Backend::Lsm(s) => s.read_segments(oid, offset, len),
            Backend::Cos(s) => s.read_segments(oid, offset, len),
            Backend::Null => Ok(Payload::from(vec![0; len as usize]).into()),
        }
    }

    pub(super) fn take_trace(&mut self) -> Vec<TraceIo> {
        match self {
            Backend::Lsm(s) => s.take_trace(),
            Backend::Cos(s) => s.take_trace(),
            Backend::Null => Vec::new(),
        }
    }

    pub(super) fn needs_maintenance(&self) -> bool {
        match self {
            Backend::Lsm(s) => s.needs_maintenance(),
            Backend::Cos(s) => s.needs_maintenance(),
            Backend::Null => false,
        }
    }

    pub(super) fn maintenance(&mut self) -> rablock_storage::MaintenanceReport {
        match self {
            Backend::Lsm(s) => s.maintenance(),
            Backend::Cos(s) => s.maintenance(),
            Backend::Null => rablock_storage::MaintenanceReport::default(),
        }
    }

    /// Light-scrub digest from checksum metadata alone (COS with checksums
    /// on); `None` tells the scrubber to fall back to reading the bytes.
    pub(super) fn csum_digest(&self, oid: ObjectId) -> Option<(u64, u64)> {
        match self {
            Backend::Cos(s) => s.csum_digest(oid),
            _ => None,
        }
    }

    /// Fault injection: flips one stored data bit of `oid`, bypassing
    /// checksum bookkeeping. `false` when the backend cannot rot (no real
    /// device, unmapped block, or the store does not expose injection).
    pub(super) fn corrupt_data_bit(
        &mut self,
        oid: ObjectId,
        block: u64,
        byte: u64,
        bit: u8,
    ) -> bool {
        match self {
            Backend::Cos(s) => s.corrupt_data_bit(oid, block, byte, bit).unwrap_or(false),
            _ => false,
        }
    }

    /// Data blocks mapped for `oid` (rot targeting); 0 when unknown.
    pub(super) fn mapped_blocks(&self, oid: ObjectId) -> u64 {
        match self {
            Backend::Cos(s) => s.mapped_blocks(oid),
            _ => 0,
        }
    }

    /// Store traffic statistics (WAF measurements).
    pub fn stats(&self) -> StoreStats {
        match self {
            Backend::Lsm(s) => s.stats(),
            Backend::Cos(s) => s.stats(),
            Backend::Null => StoreStats::default(),
        }
    }

    /// Resets store statistics.
    pub fn reset_stats(&mut self) {
        match self {
            Backend::Lsm(s) => s.reset_stats(),
            Backend::Cos(s) => s.reset_stats(),
            Backend::Null => {}
        }
    }
}
