//! Model-based property tests: the CPU-efficient object store against a
//! byte-array model, including mount-recovery equivalence.

use proptest::prelude::*;
use rablock_cos::{CosObjectStore, CosOptions};
use rablock_storage::{
    BlockDevice, GroupId, MemDisk, ObjectId, ObjectStore, Op, Payload, Segments, Transaction,
};

const OBJ_BYTES: u64 = 64 << 10;
const OBJECTS: u64 = 4;

#[derive(Debug, Clone)]
enum StoreOp {
    Write {
        obj: u64,
        offset: u64,
        len: u64,
        fill: u8,
    },
    Read {
        obj: u64,
        offset: u64,
        len: u64,
    },
    Delete {
        obj: u64,
    },
    Maintain,
}

fn ops() -> impl Strategy<Value = Vec<StoreOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0..OBJECTS, 0..OBJ_BYTES - 1, 1u64..16_000, any::<u8>()).prop_map(
                |(obj, offset, len, fill)| {
                    let len = len.min(OBJ_BYTES - offset);
                    StoreOp::Write { obj, offset, len, fill }
                }
            ),
            3 => (0..OBJECTS, 0..OBJ_BYTES - 1, 1u64..16_000).prop_map(|(obj, offset, len)| {
                let len = len.min(OBJ_BYTES - offset);
                StoreOp::Read { obj, offset, len }
            }),
            1 => (0..OBJECTS).prop_map(|obj| StoreOp::Delete { obj }),
            1 => Just(StoreOp::Maintain),
        ],
        1..80,
    )
}

fn oid(i: u64) -> ObjectId {
    ObjectId::new(GroupId((i % 2) as u32), i)
}

/// Model entry: `(logical_size, bytes)`; `None` = deleted.
type ModelObj = Option<(u64, Vec<u8>)>;

/// How a script's writes reach the store.
type MakeWrite<'a> = &'a dyn Fn(ObjectId, u64, Payload) -> Op;

fn flat_write(oid: ObjectId, offset: u64, data: Payload) -> Op {
    Op::Write { oid, offset, data }
}

/// The bytes of one write: position-dependent, so a misplaced piece shows.
fn pattern(fill: u8, len: u64) -> Vec<u8> {
    (0..len).map(|i| fill ^ (i / 3) as u8).collect()
}

fn run_script(
    opts: CosOptions,
    script: &[StoreOp],
    make_write: MakeWrite<'_>,
) -> (CosObjectStore<MemDisk>, Vec<ModelObj>) {
    let mut store = CosObjectStore::format(MemDisk::new(32 << 20), opts).unwrap();
    let mut model: Vec<ModelObj> = (0..OBJECTS)
        .map(|_| Some((OBJ_BYTES, vec![0u8; OBJ_BYTES as usize])))
        .collect();
    let mut seq = 0u64;
    for i in 0..OBJECTS {
        seq += 1;
        store
            .submit(Transaction::new(
                oid(i).group(),
                seq,
                vec![Op::Create {
                    oid: oid(i),
                    size: OBJ_BYTES,
                }],
            ))
            .unwrap();
    }
    for op in script {
        seq += 1;
        match *op {
            StoreOp::Write {
                obj,
                offset,
                len,
                fill,
            } => {
                let data = pattern(fill, len);
                let write = make_write(oid(obj), offset, data.clone().into());
                let txn = Transaction::new(oid(obj).group(), seq, vec![write]);
                if model[obj as usize].is_none() {
                    // A write to a deleted object recreates it from zeroes,
                    // sized by the write's extent.
                    model[obj as usize] = Some((0, vec![0u8; OBJ_BYTES as usize]));
                }
                store.submit(txn).unwrap();
                let m = model[obj as usize].as_mut().unwrap();
                m.0 = m.0.max(offset + len);
                m.1[offset as usize..(offset + len) as usize].copy_from_slice(&data);
            }
            StoreOp::Read { obj, offset, len } => {
                let got = store.read(oid(obj), offset, len);
                match &model[obj as usize] {
                    Some((size, bytes)) if offset + len <= *size => {
                        assert_eq!(
                            got.unwrap(),
                            bytes[offset as usize..(offset + len) as usize].to_vec()
                        );
                    }
                    _ => assert!(got.is_err(), "read past size / of deleted object must fail"),
                }
            }
            StoreOp::Delete { obj } => {
                let txn =
                    Transaction::new(oid(obj).group(), seq, vec![Op::Delete { oid: oid(obj) }]);
                match &model[obj as usize] {
                    Some(_) => {
                        store.submit(txn).unwrap();
                        model[obj as usize] = None;
                    }
                    None => assert!(store.submit(txn).is_err()),
                }
            }
            StoreOp::Maintain => {
                if store.needs_maintenance() {
                    store.maintenance();
                }
            }
        }
    }
    (store, model)
}

fn check_all(store: &mut CosObjectStore<MemDisk>, model: &[ModelObj]) {
    for (i, m) in model.iter().enumerate() {
        match m {
            Some((size, bytes)) => {
                if *size > 0 {
                    let got = store.read(oid(i as u64), 0, *size).unwrap();
                    assert_eq!(&got[..], &bytes[..*size as usize], "object {i}");
                }
            }
            None => assert!(
                store.read(oid(i as u64), 0, 1).is_err(),
                "object {i} deleted"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random writes/reads/deletes agree with a byte-array model, under
    /// each metadata-path configuration.
    #[test]
    fn store_matches_model(script in ops(), cache in any::<bool>(), prealloc in any::<bool>()) {
        let opts = CosOptions { metadata_cache: cache, pre_allocate: prealloc, ..CosOptions::tiny() };
        let (mut store, model) = run_script(opts, &script, &flat_write);
        check_all(&mut store, &model);
    }

    /// The segmented apply against the flat apply it generalises: the same
    /// script with every write cut into pieces (`Op::WriteV`) leaves the
    /// same bytes on read-back, the same checksum metadata, and has cost
    /// the same device calls, the same `StoreStats` and the same trace.
    #[test]
    fn segmented_apply_matches_flat_apply(
        script in ops(),
        cuts in proptest::collection::vec(prop_oneof![Just(4096usize), 1..9000usize], 1..5),
        checksums in any::<bool>(),
        prealloc in any::<bool>(),
    ) {
        let opts = CosOptions { checksums, pre_allocate: prealloc, ..CosOptions::tiny() };
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
        let (mut flat, model) = run_script(opts.clone(), &script, &flat_write);
        let (mut cut, _) = run_script(opts, &script, &cut_write);
        prop_assert_eq!(cut.device().counters(), flat.device().counters());
        prop_assert_eq!(cut.stats(), flat.stats());
        let key = |t: rablock_storage::TraceIo| (t.kind, t.bytes, t.category);
        prop_assert_eq!(
            cut.take_trace().into_iter().map(key).collect::<Vec<_>>(),
            flat.take_trace().into_iter().map(key).collect::<Vec<_>>()
        );
        for i in 0..OBJECTS {
            prop_assert_eq!(cut.csum_digest(oid(i)), flat.csum_digest(oid(i)));
        }
        check_all(&mut cut, &model);
        check_all(&mut flat, &model);
    }

    /// After any script + full flush, unmounting and remounting the device
    /// reproduces the same state (allocator + radix rebuild from onodes).
    #[test]
    fn mount_round_trips_state(script in ops()) {
        let opts = CosOptions { metadata_cache: false, ..CosOptions::tiny() };
        let (mut store, model) = run_script(opts.clone(), &script, &flat_write);
        while store.needs_maintenance() {
            store.maintenance();
        }
        let dev = store.into_device();
        let mut store2 = CosObjectStore::mount(dev, opts).unwrap();
        check_all(&mut store2, &model);
    }
}

/// The one case these properties ever shrank to, replayed by name: a write
/// to a deleted object recreates it, sized by the write. Under each
/// metadata-path configuration, and through a remount where the device
/// holds all of it.
#[test]
fn a_write_to_a_deleted_object_recreates_it() {
    let script = [
        StoreOp::Delete { obj: 2 },
        StoreOp::Write {
            obj: 2,
            offset: 0,
            len: 1,
            fill: 0,
        },
    ];
    for (cache, prealloc) in [(false, false), (false, true), (true, false), (true, true)] {
        let opts = CosOptions {
            metadata_cache: cache,
            pre_allocate: prealloc,
            ..CosOptions::tiny()
        };
        let (mut store, model) = run_script(opts.clone(), &script, &flat_write);
        assert_eq!(model[2].as_ref().map(|(size, _)| *size), Some(1));
        check_all(&mut store, &model);
        if cache {
            // Dirty onodes stay in the cache's NVM below its high water, so
            // a remount of the device alone does not see them (as in
            // `mount_round_trips_state`).
            continue;
        }
        while store.needs_maintenance() {
            store.maintenance();
        }
        let mut remounted = CosObjectStore::mount(store.into_device(), opts).unwrap();
        check_all(&mut remounted, &model);
    }
}

/// One step of a meta-record script over a small key space whose keys
/// prefix each other (`pglog.1`, `pglog.11`, …) and whose values are often
/// empty.
#[derive(Debug, Clone)]
enum MetaStep {
    Put { key: usize, value: Vec<u8> },
    Delete { key: usize },
    Get { key: usize },
}

/// The lengths of the model's keys: on both sides of the 22 bytes a record
/// holds inline, and at that limit.
const META_KEY_LENS: [usize; 8] = [6, 9, 21, 22, 23, 24, 31, 64];
const META_KEYS: usize = META_KEY_LENS.len();

fn meta_key(i: usize) -> Vec<u8> {
    format!("pglog.{}", "1".repeat(META_KEY_LENS[i] - "pglog.".len())).into_bytes()
}

fn meta_steps() -> impl Strategy<Value = Vec<MetaStep>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..META_KEYS, proptest::collection::vec(any::<u8>(), 0..200))
                .prop_map(|(key, value)| MetaStep::Put { key, value }),
            1 => (0..META_KEYS).prop_map(|key| MetaStep::Delete { key }),
            2 => (0..META_KEYS).prop_map(|key| MetaStep::Get { key }),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `MetaPut` / `MetaDelete` / `get_meta` sequences agree with a
    /// `BTreeMap` model: an overwrite answers its own value, a delete of an
    /// absent key is a no-op, and no key's record answers for another's,
    /// whether the record holds its key inline or on the heap.
    #[test]
    fn meta_records_match_a_map_model(steps in meta_steps()) {
        let mut store = CosObjectStore::format(MemDisk::new(8 << 20), CosOptions::tiny()).unwrap();
        let mut model = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();
        for (seq, step) in (1u64..).zip(steps) {
            let op = match step {
                MetaStep::Put { key, value } => {
                    model.insert(meta_key(key), value.clone());
                    Op::MetaPut { key: meta_key(key).into(), value: value.into() }
                }
                MetaStep::Delete { key } => {
                    model.remove(&meta_key(key));
                    Op::MetaDelete { key: meta_key(key).into() }
                }
                MetaStep::Get { key } => {
                    prop_assert_eq!(store.get_meta(&meta_key(key)), model.get(&meta_key(key)).cloned());
                    continue;
                }
            };
            store.submit(Transaction::new(GroupId(0), seq, vec![op])).unwrap();
        }
        for key in 0..META_KEYS {
            prop_assert_eq!(store.get_meta(&meta_key(key)), model.get(&meta_key(key)).cloned());
        }
    }
}
