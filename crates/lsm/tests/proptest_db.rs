//! Model-based property tests: the LSM database against a BTreeMap.

use proptest::prelude::*;
use rablock_lsm::{Db, LsmOptions};
use rablock_storage::{CrashDisk, CrashPlan, MemDisk, Payload};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum DbOp {
    Put(u16, u8, u16),
    Delete(u16),
    Get(u16),
    Maintain,
}

fn ops() -> impl Strategy<Value = Vec<DbOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u8>(), 1u16..2048).prop_map(|(k, f, l)| DbOp::Put(k % 64, f, l)),
            any::<u16>().prop_map(|k| DbOp::Delete(k % 64)),
            any::<u16>().prop_map(|k| DbOp::Get(k % 64)),
            Just(DbOp::Maintain),
        ],
        1..120,
    )
}

fn key(k: u16) -> Vec<u8> {
    format!("k{k:05}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random puts/deletes/gets with interleaved maintenance always agree
    /// with a plain sorted map.
    #[test]
    fn db_matches_btreemap(script in ops()) {
        let mut db = Db::open(MemDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Payload> = BTreeMap::new();
        for op in script {
            match op {
                DbOp::Put(k, f, l) => {
                    let v = Payload::from(vec![f; l as usize]);
                    db.apply(&[(key(k).into(), Some(v.clone()))]).unwrap();
                    model.insert(key(k), v);
                }
                DbOp::Delete(k) => {
                    db.apply(&[(key(k).into(), None)]).unwrap();
                    model.remove(&key(k));
                }
                DbOp::Get(k) => {
                    prop_assert_eq!(db.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
                }
                DbOp::Maintain => {
                    if db.needs_maintenance() {
                        db.maintenance().unwrap();
                    }
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(db.get(k).unwrap(), Some(v.clone()));
        }
    }

    /// After any script and a full crash (all unflushed device writes
    /// lost), reopening recovers exactly the model state: the WAL covers
    /// everything acknowledged.
    #[test]
    fn db_crash_recovers_model(script in ops()) {
        let mut db = Db::open(CrashDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Payload> = BTreeMap::new();
        for op in script {
            match op {
                DbOp::Put(k, f, l) => {
                    let v = Payload::from(vec![f; l as usize]);
                    db.apply(&[(key(k).into(), Some(v.clone()))]).unwrap();
                    model.insert(key(k), v);
                }
                DbOp::Delete(k) => {
                    db.apply(&[(key(k).into(), None)]).unwrap();
                    model.remove(&key(k));
                }
                DbOp::Get(_) => {}
                DbOp::Maintain => {
                    if db.needs_maintenance() {
                        db.maintenance().unwrap();
                    }
                }
            }
        }
        let mut dev = db.into_device();
        dev.crash_with(CrashPlan::lose_all());
        let mut db2 = Db::open(dev, LsmOptions::tiny()).unwrap();
        for k in 0..64u16 {
            prop_assert_eq!(db2.get(&key(k)).unwrap(), model.get(&key(k)).cloned(), "key {}", k);
        }
    }
}
