//! Differential property test: [`LsmObjectStore`] against a plain map of
//! 4 KiB blocks.
//!
//! Random transactions (aligned, unaligned and raw-path writes, xattr and
//! meta records, deletes and re-creation of deleted objects), interleaved
//! with maintenance steps, reads and
//! reopen through `into_device` → `open`, must always read back what the
//! model holds — whichever of cache, memtable, SST level or raw segment the
//! bytes currently live in.

use std::collections::HashMap;

use proptest::prelude::*;
use rablock_lsm::{LsmObjectStore, LsmOptions};
use rablock_storage::{
    BlockDevice, GroupId, MemDisk, ObjectId, ObjectStore, Op, Payload, Segments, StoreError,
    TraceKind, Transaction,
};

const BLOCK: u64 = 4096;
const OBJECT_BYTES: u64 = 32 * BLOCK;

#[derive(Debug, Clone)]
enum StoreOp {
    Write {
        obj: u8,
        offset: u64,
        len: u64,
        fill: u8,
    },
    Xattr {
        obj: u8,
        fill: u8,
    },
    MetaPut {
        key: u8,
        fill: u8,
        len: u8,
    },
    MetaDelete {
        key: u8,
    },
    Delete {
        obj: u8,
    },
    Read {
        obj: u8,
        offset: u64,
        len: u64,
    },
    Maintain,
    Reopen,
}

fn write((obj, offset, len, fill): (u8, u64, u64, u8)) -> StoreOp {
    StoreOp::Write {
        obj,
        offset,
        len: len.min(OBJECT_BYTES - offset),
        fill,
    }
}

fn ops() -> impl Strategy<Value = Vec<StoreOp>> {
    let obj = || 0u8..4;
    proptest::collection::vec(
        prop_oneof![
            // Whole blocks: values are windows into the client's buffer.
            6 => (obj(), 0u64..32, 1u64..4, any::<u8>())
                .prop_map(|(o, block, n, fill)| write((o, block * BLOCK, n * BLOCK, fill))),
            // Unaligned: read-modify-write of the edge blocks.
            4 => (obj(), 0..OBJECT_BYTES - 1, 1u64..6_000, any::<u8>()).prop_map(write),
            // Half a 16 KiB chunk or more: promoted to the raw path.
            2 => (obj(), 0..OBJECT_BYTES - 1, 8_192u64..40_000, any::<u8>()).prop_map(write),
            1 => (obj(), any::<u8>()).prop_map(|(obj, fill)| StoreOp::Xattr { obj, fill }),
            2 => (0u8..8, any::<u8>(), 1u8..200)
                .prop_map(|(key, fill, len)| StoreOp::MetaPut { key, fill, len }),
            1 => (0u8..8).prop_map(|key| StoreOp::MetaDelete { key }),
            1 => obj().prop_map(|obj| StoreOp::Delete { obj }),
            5 => (obj(), 0..OBJECT_BYTES, 1u64..20_000)
                .prop_map(|(obj, offset, len)| StoreOp::Read { obj, offset, len }),
            4 => Just(StoreOp::Maintain),
            1 => Just(StoreOp::Reopen),
        ],
        1..100,
    )
}

#[derive(Default)]
struct Model {
    blocks: HashMap<(u8, u64), Vec<u8>>,
    size: HashMap<u8, u64>,
    meta: HashMap<u8, Vec<u8>>,
}

impl Model {
    fn write(&mut self, obj: u8, offset: u64, data: &[u8]) {
        for (i, &byte) in data.iter().enumerate() {
            let pos = offset + i as u64;
            let block = self
                .blocks
                .entry((obj, pos / BLOCK))
                .or_insert_with(|| vec![0; BLOCK as usize]);
            block[(pos % BLOCK) as usize] = byte;
        }
        let size = self.size.entry(obj).or_insert(0);
        *size = (*size).max(offset + data.len() as u64);
    }

    fn read(&self, obj: u8, offset: u64, len: u64) -> Vec<u8> {
        (offset..offset + len)
            .map(|pos| {
                self.blocks
                    .get(&(obj, pos / BLOCK))
                    .map_or(0, |b| b[(pos % BLOCK) as usize])
            })
            .collect()
    }
}

fn oid(obj: u8) -> ObjectId {
    ObjectId::new(GroupId(0), obj as u64)
}

fn meta_key(key: u8) -> Vec<u8> {
    format!("pglog.0.{key}").into_bytes()
}

/// How a script's writes reach the store.
type MakeWrite<'a> = &'a dyn Fn(ObjectId, u64, Payload) -> Op;

fn flat_write(oid: ObjectId, offset: u64, data: Payload) -> Op {
    Op::Write { oid, offset, data }
}

/// Runs `script` against a fresh store and the block-map model; returns the
/// store with everything it traced since its last reopen.
fn drive(
    script: &[StoreOp],
    make_write: MakeWrite<'_>,
) -> Result<(LsmObjectStore<MemDisk>, Vec<rablock_storage::TraceIo>), TestCaseError> {
    let mut store = LsmObjectStore::open(MemDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
    let mut trace = Vec::new();
    let mut model = Model::default();
    let mut seq = 0u64;
    let mut submit = |store: &mut LsmObjectStore<MemDisk>, ops: Vec<Op>| {
        seq += 1;
        store.submit(Transaction::new(GroupId(0), seq, ops))
    };
    for op in script.iter().cloned() {
        match op {
            StoreOp::Write {
                obj,
                offset,
                len,
                fill,
            } => {
                // A ramp, so a misplaced or stale byte cannot pass as right.
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                model.write(obj, offset, &data);
                submit(&mut store, vec![make_write(oid(obj), offset, data.into())]).unwrap();
            }
            StoreOp::Xattr { obj, fill } => {
                model.size.entry(obj).or_insert(0);
                submit(
                    &mut store,
                    vec![Op::SetXattr {
                        oid: oid(obj),
                        key: "oi".into(),
                        value: vec![fill; 40].into(),
                    }],
                )
                .unwrap();
            }
            StoreOp::MetaPut { key, fill, len } => {
                let value = vec![fill; len as usize];
                model.meta.insert(key, value.clone());
                submit(
                    &mut store,
                    vec![Op::MetaPut {
                        key: meta_key(key).into(),
                        value: value.into(),
                    }],
                )
                .unwrap();
            }
            StoreOp::MetaDelete { key } => {
                model.meta.remove(&key);
                submit(
                    &mut store,
                    vec![Op::MetaDelete {
                        key: meta_key(key).into(),
                    }],
                )
                .unwrap();
            }
            StoreOp::Delete { obj } => {
                let existed = model.size.remove(&obj).is_some();
                model.blocks.retain(|(o, _), _| *o != obj);
                let result = submit(&mut store, vec![Op::Delete { oid: oid(obj) }]);
                let expected = if existed {
                    Ok(())
                } else {
                    Err(StoreError::NotFound)
                };
                prop_assert_eq!(result, expected);
            }
            StoreOp::Read { obj, offset, len } => {
                // The segmented read: the model's bytes, in views that
                // were never assembled, for device reads that were all
                // traced; and `read` is its concatenation.
                trace.extend(store.take_trace());
                let before = store.db().device().counters().bytes_read;
                let got = store.read_segments(oid(obj), offset, len);
                let seen = store.db().device().counters().bytes_read - before;
                let reads = store.take_trace();
                let traced = reads.iter().filter(|t| t.kind == TraceKind::Read);
                prop_assert_eq!(seen, traced.map(|t| t.bytes).sum::<u64>());
                trace.extend(reads);
                match model.size.get(&obj) {
                    None => prop_assert_eq!(got, Err(StoreError::NotFound)),
                    Some(&size) if offset + len > size => {
                        let out_of_bounds = matches!(got, Err(StoreError::OutOfBounds { .. }));
                        prop_assert!(out_of_bounds, "{:?}", got);
                    }
                    Some(_) => {
                        let segs = got.unwrap();
                        prop_assert!(segs == model.read(obj, offset, len));
                        prop_assert!(segs.iter().all(|part| !part.is_empty()));
                        // At most one view per KV block touched (a raw
                        // chunk is one view for its four blocks).
                        let blocks = (offset + len).div_ceil(BLOCK) - offset / BLOCK;
                        prop_assert!(segs.iter().count() as u64 <= blocks);
                        prop_assert_eq!(store.read(oid(obj), offset, len), Ok(segs.into_payload()));
                    }
                }
            }
            StoreOp::Maintain => {
                if store.needs_maintenance() {
                    store.maintenance();
                }
            }
            StoreOp::Reopen => {
                store = LsmObjectStore::open(store.into_device(), LsmOptions::tiny()).unwrap();
                trace.clear();
            }
        }
    }
    // (In object order: two runs of one script must read alike.)
    let mut sizes: Vec<(u8, u64)> = model.size.iter().map(|(&o, &s)| (o, s)).collect();
    sizes.sort_unstable();
    for (obj, size) in sizes {
        prop_assert_eq!(store.stat(oid(obj)).map(|i| i.size), Some(size));
        if size > 0 {
            prop_assert_eq!(
                store.read(oid(obj), 0, size),
                Ok(model.read(obj, 0, size).into()),
                "object {}",
                obj
            );
        }
    }
    for key in 0u8..8 {
        prop_assert_eq!(
            store.get_meta(&meta_key(key)),
            model.meta.get(&key).cloned(),
            "meta {}",
            key
        );
    }
    trace.extend(store.take_trace());
    Ok((store, trace))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_block_map(script in ops()) {
        drive(&script, &flat_write)?;
    }

    /// The segmented apply against the flat apply it generalises: the same
    /// script with every write cut into pieces (`Op::WriteV`) reads back the
    /// same (both runs are checked against the model) and has cost the same
    /// device calls, the same `StoreStats` and the same trace.
    #[test]
    fn segmented_apply_matches_flat_apply(
        script in ops(),
        cuts in proptest::collection::vec(prop_oneof![Just(4096usize), 1..9000usize], 1..5),
    ) {
        let cut_write = |oid: ObjectId, offset: u64, data: Payload| {
            let (mut pieces, mut at) = (Segments::new(), 0);
            for cut in cuts.iter().cycle() {
                let take = (*cut).min(data.len() - at);
                pieces.push(data.slice(at, take));
                at += take;
                if at == data.len() {
                    break;
                }
            }
            Op::WriteV { oid, offset, data: pieces }
        };
        let (flat, flat_trace) = drive(&script, &flat_write)?;
        let (cut, cut_trace) = drive(&script, &cut_write)?;
        prop_assert_eq!(cut.db().device().counters(), flat.db().device().counters());
        prop_assert_eq!(cut.stats(), flat.stats());
        let key = |t: &rablock_storage::TraceIo| (t.kind, t.bytes, t.category);
        prop_assert_eq!(
            cut_trace.iter().map(key).collect::<Vec<_>>(),
            flat_trace.iter().map(key).collect::<Vec<_>>()
        );
    }
}

/// A deleted object's data blocks stay in the LSM; its next incarnation must
/// not read them back where it has not written itself — also after the
/// memtable holding the delete has been flushed and the store reopened.
#[test]
fn recreated_object_does_not_see_its_previous_incarnation() {
    let mut store = LsmObjectStore::open(MemDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
    let o = oid(0);
    let txn = |seq, ops| Transaction::new(GroupId(0), seq, ops);
    let write = |offset, data: Vec<u8>| Op::Write {
        oid: o,
        offset,
        data: data.into(),
    };
    // Incarnation one: three KV blocks and one raw chunk.
    store
        .submit(txn(1, vec![write(0, vec![0xAA; 3 * BLOCK as usize])]))
        .unwrap();
    store
        .submit(txn(2, vec![write(16 * BLOCK, vec![0xBB; 16 << 10])]))
        .unwrap();
    store.submit(txn(3, vec![Op::Delete { oid: o }])).unwrap();
    assert_eq!(store.read(o, 0, 1), Err(StoreError::NotFound));
    assert!(store.stat(o).is_none());
    assert_eq!(
        store.submit(txn(4, vec![Op::Delete { oid: o }])),
        Err(StoreError::NotFound)
    );
    while store.needs_maintenance() {
        store.maintenance();
    }
    let mut store = LsmObjectStore::open(store.into_device(), LsmOptions::tiny()).unwrap();
    assert_eq!(store.read(o, 0, 1), Err(StoreError::NotFound));
    // Incarnation two writes only block 1 of a 20-block object.
    store
        .submit(txn(
            5,
            vec![
                Op::Create {
                    oid: o,
                    size: 20 * BLOCK,
                },
                write(BLOCK, vec![0xCC; BLOCK as usize]),
            ],
        ))
        .unwrap();
    let mut want = vec![0u8; 20 * BLOCK as usize];
    want[BLOCK as usize..2 * BLOCK as usize].fill(0xCC);
    assert_eq!(store.read(o, 0, 20 * BLOCK).unwrap(), want);
    // Delete and re-create inside one transaction.
    store
        .submit(txn(
            6,
            vec![Op::Delete { oid: o }, write(2 * BLOCK, vec![0xDD; 100])],
        ))
        .unwrap();
    let mut want = vec![0u8; 2 * BLOCK as usize + 100];
    want[2 * BLOCK as usize..].fill(0xDD);
    assert_eq!(store.stat(o).unwrap().size, want.len() as u64);
    assert_eq!(store.read(o, 0, want.len() as u64).unwrap(), want);
}
