//! # rablock-storage — storage substrates and the backend object-store contract
//!
//! The foundation layer of the `rablock` workspace:
//!
//! * [`BlockDevice`] + [`MemDisk`] — raw byte-addressable devices with
//!   traffic counters (the source of all write-amplification measurements).
//! * [`CrashDisk`] / [`CrashPlan`] — power-loss injection for crash-recovery
//!   tests (lost, partial, and torn writes).
//! * [`NvmRegion`] — byte-addressable non-volatile memory, as the paper's
//!   ramdisk-emulated NVM. It and [`MemDisk`] are faces of one sparse
//!   medium that holds only what was written, payloads by reference.
//! * [`Frame`] — a byte stream whose large payloads are held by reference:
//!   what the write-ahead log and SST files write, and what the medium
//!   keeps without copying.
//! * [`Record`] / [`Encoded`] — a value the medium holds by reference and
//!   encodes only when a read needs its bytes: an operation-log record.
//! * [`Key`] — a short byte-string key held inline, ordered and hashed as
//!   its bytes: the key type of both stores' in-memory maps.
//! * [`crc`] — the one CRC-32 every framed storage format uses,
//!   with the streaming and splice forms that keep shared payloads unread.
//! * [`digest`] — the content digest replicas and recovery pushes are
//!   compared by, streaming over segments and memoized per payload.
//! * [`ObjectStore`] / [`Transaction`] — the transactional contract
//!   implemented by both the BlueStore-like LSM backend (`rablock-lsm`) and
//!   the paper's CPU-efficient object store (`rablock-cos`).
//!
//! ```
//! use rablock_storage::{BlockDevice, MemDisk};
//! # fn main() -> Result<(), rablock_storage::StoreError> {
//! let mut disk = MemDisk::new(1 << 20);
//! disk.write_at(0, b"superblock")?;
//! assert_eq!(disk.counters().bytes_written, 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blockdev;
mod crash;
pub mod crc;
pub mod digest;
mod error;
mod frame;
mod fxhash;
mod key;
mod medium;
mod nvm;
mod objectstore;
mod payload;
mod record;
mod smallvec;

pub use blockdev::{BlockDevice, DevCounters, MemDisk};
pub use crash::{CrashDisk, CrashPlan};
pub use error::StoreError;
pub use frame::{Frame, FrameReader, NvmPiece};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use key::Key;
pub use nvm::NvmRegion;
pub use objectstore::{
    GroupId, IoCategory, MaintenanceReport, ObjectId, ObjectInfo, ObjectStore, Op, StoreStats,
    TraceIo, TraceKind, Transaction,
};
pub use payload::{Payload, Segments};
pub use record::{Encode, Encoded, Record};
pub use smallvec::SmallVec;
