//! Criterion microbenchmarks for the core data structures.
//!
//! These quantify the per-operation costs behind the paper's CPU argument:
//! the LSM submit path vs the COS in-place path, the NVM operation-log
//! append, the free-extent B+tree, and the onode radix tree.

use criterion::{criterion_group, criterion_main, Criterion};
use rablock_cluster::osd::digest_segments;
use rablock_cos::{CosObjectStore, CosOptions, ExtentBTree, RadixTree};
use rablock_lsm::{LsmObjectStore, LsmOptions};
use rablock_oplog::GroupLog;
use rablock_storage::{
    GroupId, MemDisk, NvmRegion, ObjectId, ObjectStore, Op, Payload, Transaction,
};

fn write_txn(seq: u64, oid: ObjectId, block: u64) -> Transaction {
    Transaction::new(
        oid.group(),
        seq,
        vec![Op::Write {
            oid,
            offset: block * 4096,
            data: vec![seq as u8; 4096].into(),
        }],
    )
}

fn bench_store_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_submit_4k");

    let mut lsm = LsmObjectStore::open(MemDisk::new(256 << 20), LsmOptions::default()).unwrap();
    let oid = ObjectId::new(GroupId(0), 1);
    let mut seq = 0u64;
    group.bench_function("lsm", |b| {
        b.iter(|| {
            seq += 1;
            lsm.submit(write_txn(seq, oid, seq % 256)).unwrap();
            let _ = lsm.take_trace();
            while lsm.needs_maintenance() {
                lsm.maintenance();
                let _ = lsm.take_trace();
            }
        })
    });

    let mut cos = CosObjectStore::format(MemDisk::new(256 << 20), CosOptions::default()).unwrap();
    cos.submit(Transaction::new(
        GroupId(0),
        1,
        vec![Op::Create { oid, size: 4 << 20 }],
    ))
    .unwrap();
    let mut seq = 1u64;
    group.bench_function("cos", |b| {
        b.iter(|| {
            seq += 1;
            cos.submit(write_txn(seq, oid, seq % 256)).unwrap();
            let _ = cos.take_trace();
        })
    });
    group.finish();
}

fn bench_store_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_read_4k");
    let oid = ObjectId::new(GroupId(0), 1);

    let mut lsm = LsmObjectStore::open(MemDisk::new(256 << 20), LsmOptions::default()).unwrap();
    for s in 0..256u64 {
        lsm.submit(write_txn(s + 1, oid, s)).unwrap();
    }
    let mut i = 0u64;
    group.bench_function("lsm", |b| {
        b.iter(|| {
            i += 1;
            lsm.read(oid, (i % 256) * 4096, 4096).unwrap()
        })
    });

    let mut cos = CosObjectStore::format(MemDisk::new(256 << 20), CosOptions::default()).unwrap();
    cos.submit(Transaction::new(
        GroupId(0),
        1,
        vec![Op::Create { oid, size: 4 << 20 }],
    ))
    .unwrap();
    for s in 0..256u64 {
        cos.submit(write_txn(s + 1, oid, s)).unwrap();
    }
    let mut i = 0u64;
    group.bench_function("cos", |b| {
        b.iter(|| {
            i += 1;
            cos.read(oid, (i % 256) * 4096, 4096).unwrap()
        })
    });
    group.finish();
}

/// A checksummed 4 KiB COS read costs three different things depending on
/// where the block lives; one mixed number (the `cos` cell above, or the
/// benchmark's `cos.read_4k_csum_ns`) reports whichever its set-up produced.
fn bench_cos_read_csum(c: &mut Criterion) {
    let mut group = c.benchmark_group("cos_read_4k_csum");
    let oid = ObjectId::new(GroupId(0), 1);
    let opts = CosOptions {
        checksums: true,
        ..CosOptions::default()
    };
    let mut cos = CosObjectStore::format(MemDisk::new(256 << 20), opts).unwrap();
    cos.submit(Transaction::new(
        GroupId(0),
        1,
        vec![Op::Create { oid, size: 4 << 20 }],
    ))
    .unwrap();
    for s in 0..512u64 {
        cos.submit(write_txn(s + 1, oid, s)).unwrap();
    }
    // An unaligned overwrite takes blocks 256..512 back into the flat image.
    for s in 256..512u64 {
        let patch = Op::Write {
            oid,
            offset: s * 4096 + 100,
            data: vec![7u8; 10].into(),
        };
        cos.submit(Transaction::new(GroupId(0), 600 + s, vec![patch]))
            .unwrap();
    }
    let cases = [
        // Held by the device as the writer's buffer: CRC memo hit, no copy.
        ("by_reference", 0u64),
        // Bytes in the image: copied out and CRC-scanned.
        ("image", 256),
        // Pre-allocated, never written: copied out and compared with zero.
        ("never_written", 512),
    ];
    for (name, first) in cases {
        let mut i = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                let got = cos.read(oid, (first + i % 256) * 4096, 4096).unwrap();
                let _ = cos.take_trace();
                got
            })
        });
    }
    group.finish();
}

const OBJECT_BYTES: u64 = 256 << 10;

/// A checksumming store holding two 256 KiB objects: every block of the
/// first held by the device as the writer's buffer, every block of the
/// second taken back into the flat image by an unaligned patch.
fn scrub_store() -> (CosObjectStore<MemDisk>, ObjectId, ObjectId) {
    let opts = CosOptions {
        checksums: true,
        ..CosOptions::default()
    };
    let mut cos = CosObjectStore::format(MemDisk::new(64 << 20), opts).unwrap();
    let (by_reference, image) = (ObjectId::new(GroupId(0), 1), ObjectId::new(GroupId(0), 2));
    let mut seq = 0;
    for oid in [by_reference, image] {
        let create = Op::Create {
            oid,
            size: OBJECT_BYTES,
        };
        cos.submit(Transaction::new(GroupId(0), 1, vec![create]))
            .unwrap();
        for block in 0..OBJECT_BYTES / 4096 {
            seq += 1;
            cos.submit(write_txn(seq, oid, block)).unwrap();
        }
    }
    for block in 0..OBJECT_BYTES / 4096 {
        let patch = Op::Write {
            oid: image,
            offset: block * 4096 + 100,
            data: vec![7u8; 10].into(),
        };
        cos.submit(Transaction::new(GroupId(0), 1000 + block, vec![patch]))
            .unwrap();
    }
    let _ = cos.take_trace();
    (cos, by_reference, image)
}

/// What a deep scrub does to one object: read every byte, verify every
/// block, digest the content.
fn bench_scrub_object(c: &mut Criterion) {
    let mut group = c.benchmark_group("scrub_object_256k");
    let (mut cos, by_reference, image) = scrub_store();
    for (name, oid) in [("by_reference", by_reference), ("image", image)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let object = cos.read_segments(oid, 0, OBJECT_BYTES).unwrap();
                let _ = cos.take_trace();
                digest_segments(&object)
            })
        });
    }
    group.finish();
}

/// What the receiver of a recovery push does: create + whole-object write.
fn bench_push_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_apply_256k");
    let (mut sender, by_reference, _) = scrub_store();
    let object = sender.read_segments(by_reference, 0, OBJECT_BYTES).unwrap();
    let flat = object.clone().into_payload();
    let cases = [
        // The sender's block views, each with its CRC memo warm.
        ("by_reference", false),
        // One buffer nobody has scanned, as an assembled object arrived.
        ("fresh_buffer", true),
    ];
    for (name, fresh) in cases {
        let (mut receiver, oid, _) = scrub_store();
        let mut seq = 10_000;
        group.bench_function(name, |b| {
            b.iter(|| {
                seq += 1;
                let data = if fresh {
                    Payload::from(flat.to_vec()).into()
                } else {
                    object.clone()
                };
                let push = vec![
                    Op::Create {
                        oid,
                        size: OBJECT_BYTES,
                    },
                    Op::WriteV {
                        oid,
                        offset: 0,
                        data,
                    },
                ];
                receiver
                    .submit(Transaction::new(GroupId(0), seq, push))
                    .unwrap();
                let _ = receiver.take_trace();
            })
        });
    }
    group.finish();
}

fn bench_oplog_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("oplog_append_4k");
    let oid = ObjectId::new(GroupId(0), 1);
    let block: Payload = vec![0x5A; 4096].into();
    let cases = [
        // Kept in NVM as the writer's buffer: framed around, not copied.
        ("by_reference", block.clone()),
        // Below the by-reference threshold: copied into the frame and ring.
        ("small_inline", block.slice(0, 511)),
    ];
    for (name, data) in cases {
        // A ring of the size the cluster gives a group: it wraps every ~60
        // records, so its pages are warm, as they are after a cluster's
        // first few milliseconds.
        let mut nvm = NvmRegion::new(256 << 10);
        let mut log = GroupLog::format(&mut nvm, GroupId(0), 0, 256 << 10, usize::MAX).unwrap();
        let mut seq = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                seq += 1;
                let write = Op::Write {
                    oid,
                    offset: seq % 256 * 4096,
                    data: data.clone(),
                };
                log.append(&mut nvm, Transaction::new(GroupId(0), seq, vec![write]))
                    .unwrap();
                if log.pending() >= 32 {
                    log.drain_for_flush(&mut nvm, 32).unwrap();
                }
            })
        });
    }
    group.finish();
}

fn bench_extent_btree(c: &mut Criterion) {
    c.bench_function("extent_btree_alloc_free", |b| {
        let mut tree = ExtentBTree::new_free(0, 1 << 24);
        let mut held: Vec<(u64, u64)> = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if held.len() < 512 {
                let len = 1 + i % 64;
                let start = tree.alloc(len).unwrap();
                held.push((start, len));
            } else {
                let (s, l) = held.swap_remove((i % 512) as usize);
                tree.free(s, l).unwrap();
            }
        })
    });
}

fn bench_radix(c: &mut Criterion) {
    let mut tree = RadixTree::new();
    for k in 0..100_000u64 {
        tree.insert(k * 7 % (1 << 30), (k % 4096) as u32);
    }
    let mut i = 0u64;
    c.bench_function("radix_lookup_100k", |b| {
        b.iter(|| {
            i += 1;
            tree.get((i * 7) % (1 << 30))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_store_submit, bench_store_read, bench_cos_read_csum, bench_scrub_object, bench_push_apply, bench_oplog_append, bench_extent_btree, bench_radix
}
criterion_main!(benches);
