//! Format- and trace-stability golden.
//!
//! A fixed, seed-generated script runs through [`LsmObjectStore`] on a
//! [`MemDisk`]; the test pins an FNV-1a hash of the full device image, of
//! the concatenated [`TraceIo`] stream and of the [`StoreStats`]. Every
//! simulated number of the *Original* cells is a function of exactly these
//! three, so a refactor of the LSM data path that keeps them keeps every
//! fingerprint. The constants were recorded at commit 4c241bd (the
//! `Vec<u8>`-valued data path) and must only change together with a
//! deliberate format or policy change. One such change rides along: at
//! 4c241bd an object delete released its raw chunks in `HashMap` iteration
//! order, so the device image (not the trace, not the stats) differed from
//! run to run; the constants were those of 4c241bd with that list sorted.
//! A second one followed: the script deletes objects and writes them again,
//! and a delete now leaves the info key behind as a 29-byte marker carrying
//! the generation, which the next incarnation bumps (before, it started
//! again at generation 0 on top of the old data keys). With the script's
//! deletes turned into no-ops the hashes of the two versions are equal.
//! A third one moved the device image alone: the segment allocator hands
//! out the lowest free segment instead of the next one round the device,
//! so files land elsewhere while every I/O, and so the trace and the
//! stats, stays what it was (with the next-fit allocator put back, all
//! three hashes are those of before). Storing values by reference (the WAL,
//! SST files and compaction hand the device views of the writers' buffers
//! instead of copies) changed no constant: the device reads back the same
//! bytes and sees the same I/O.

use rablock_lsm::{LsmObjectStore, LsmOptions};
use rablock_storage::{
    BlockDevice, GroupId, IoCategory, MemDisk, ObjectId, ObjectStore, Op, StoreStats, TraceIo,
    TraceKind, Transaction,
};

const DEVICE_HASH: u64 = 0x4FC5_7896_3658_D29E;
const TRACE_HASH: u64 = 0x2AF2_E537_1694_C518;
const STATS_HASH: u64 = 0x3948_F014_3A98_878E;

const DEVICE_BYTES: u64 = 32 << 20;
const OBJECTS: u64 = 6;
const BLOCKS_PER_OBJECT: u64 = 48;
const STEPS: u64 = 1_500;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// splitmix64, inlined so the script never depends on a crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn oid(i: u64) -> ObjectId {
    ObjectId::new(GroupId(0), i)
}

fn hash_trace(h: &mut Fnv, trace: &[TraceIo]) {
    for io in trace {
        h.bytes(&[
            match io.kind {
                TraceKind::Read => 0,
                TraceKind::Write => 1,
                TraceKind::Flush => 2,
            },
            match io.category {
                IoCategory::Wal => 0,
                IoCategory::MemtableFlush => 1,
                IoCategory::Compaction => 2,
                IoCategory::Data => 3,
                IoCategory::Metadata => 4,
                IoCategory::Superblock => 5,
            },
        ]);
        h.u64(io.bytes);
    }
}

fn hash_stats(h: &mut Fnv, s: StoreStats) {
    for v in [
        s.user_bytes,
        s.wal_bytes,
        s.flush_bytes,
        s.compaction_bytes,
        s.data_bytes,
        s.metadata_bytes,
        s.superblock_bytes,
        s.read_bytes,
        s.transactions,
    ] {
        h.u64(v);
    }
}

#[test]
fn device_image_trace_and_stats_are_pinned() {
    let mut rng = Rng(0x5EED_1C0C_5202_1001);
    let mut store =
        LsmObjectStore::open(MemDisk::new(DEVICE_BYTES), LsmOptions::tiny()).expect("format");
    let chunk = store.db().segment_bytes();
    let object_bytes = BLOCKS_PER_OBJECT * 4096;
    let mut trace_hash = Fnv::new();
    let mut stats_hash = Fnv::new();
    let mut flushes = 0u64;
    let mut deepest_level_seen = 0usize;
    let mut meta_keys: Vec<Vec<u8>> = Vec::new();

    for seq in 1..=STEPS {
        let o = oid(rng.below(OBJECTS));
        let fill = (seq % 251) as u8;
        let write = |offset: u64, len: u64| Op::Write {
            oid: o,
            offset,
            data: vec![fill; len as usize].into(),
        };
        let ops = match rng.below(100) {
            0..=44 => vec![write(rng.below(BLOCKS_PER_OBJECT) * 4096, 4096)],
            45..=54 => vec![write(rng.below(BLOCKS_PER_OBJECT - 1) * 4096, 8192)],
            55..=69 => {
                let len = 1 + rng.below(6_000);
                vec![write(rng.below(object_bytes - len), len)]
            }
            70..=75 => vec![Op::SetXattr {
                oid: o,
                key: format!("attr{}", rng.below(4)),
                value: vec![fill; 8 + rng.below(64) as usize].into(),
            }],
            76..=83 => {
                let key = format!("pglog.0.{seq}").into_bytes();
                meta_keys.push(key.clone());
                // The Ceph shape: data write, object info and pg-log record
                // in one transaction.
                vec![
                    write(rng.below(BLOCKS_PER_OBJECT) * 4096, 4096),
                    Op::MetaPut {
                        key: key.into(),
                        value: vec![fill; 30 + rng.below(170) as usize].into(),
                    },
                ]
            }
            84..=87 if !meta_keys.is_empty() => {
                let key = meta_keys.swap_remove(rng.below(meta_keys.len() as u64) as usize);
                vec![Op::MetaDelete { key: key.into() }]
            }
            88..=90 if store.stat(o).is_some() => vec![Op::Delete { oid: o }],
            91..=93 => {
                // At least half a chunk: promoted to the raw path.
                let len = chunk / 2 + rng.below(chunk + chunk / 2);
                let first = rng.below(object_bytes / chunk - 2) * chunk;
                vec![write(first + rng.below(chunk / 2), len)]
            }
            _ => {
                if let Some(info) = store.stat(o) {
                    let len = 1 + rng.below(info.size.min(20_000));
                    let offset = rng.below(info.size - len + 1);
                    store.read(o, offset, len).expect("read in range");
                }
                Vec::new()
            }
        };
        if !ops.is_empty() {
            store
                .submit(Transaction::new(GroupId(0), seq, ops))
                .expect("submit");
        }
        // Maintenance keeps up only half of the time, so writers also meet
        // the stall path (synchronous flush of the oldest memtable).
        if rng.below(2) == 0 && store.needs_maintenance() {
            store.maintenance();
        }
        let trace = store.take_trace();
        flushes += trace
            .iter()
            .filter(|t| t.kind == TraceKind::Flush && t.category == IoCategory::MemtableFlush)
            .count() as u64;
        hash_trace(&mut trace_hash, &trace);
        let counts = store.db().level_file_counts();
        deepest_level_seen =
            deepest_level_seen.max(counts.iter().rposition(|&n| n > 0).unwrap_or(0));

        if seq == STEPS * 2 / 3 {
            // Reopen: manifest decode, index reload, WAL replay + flush.
            hash_stats(&mut stats_hash, store.stats());
            store = LsmObjectStore::open(store.into_device(), LsmOptions::tiny()).expect("reopen");
            hash_trace(&mut trace_hash, &store.take_trace());
        }
    }
    while store.needs_maintenance() {
        store.maintenance();
    }
    hash_trace(&mut trace_hash, &store.take_trace());
    hash_stats(&mut stats_hash, store.stats());

    // The script must keep covering what the golden is for.
    let stats = store.stats();
    assert!(flushes >= 3, "only {flushes} memtable flushes");
    assert!(
        deepest_level_seen >= 2,
        "no L1->L2 compaction: deepest level {deepest_level_seen}"
    );
    assert!(stats.compaction_bytes > 0 && stats.data_bytes > 0);

    let mut dev = store.into_device();
    let mut image = vec![0u8; DEVICE_BYTES as usize];
    dev.read_at(0, &mut image).expect("read image");
    let mut device_hash = Fnv::new();
    device_hash.bytes(&image);

    assert_eq!(
        (device_hash.0, trace_hash.0, stats_hash.0),
        (DEVICE_HASH, TRACE_HASH, STATS_HASH),
        "device / trace / stats hash: {:#018x} / {:#018x} / {:#018x}",
        device_hash.0,
        trace_hash.0,
        stats_hash.0
    );
}
