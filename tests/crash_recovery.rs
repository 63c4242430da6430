//! Crash-consistency tests across the storage stack.
//!
//! The paper's durability story (§IV-A-4, §IV-C-6): the NVM operation log
//! is the REDO log; the backend stores recover their own structures from
//! disk; replaying the log on top restores exactly the acknowledged state.
//! These tests inject crashes at every layer and verify nothing
//! acknowledged is lost and nothing torn is resurrected.

use rablock_cos::{CosObjectStore, CosOptions};
use rablock_lsm::{Db, LsmObjectStore, LsmOptions};
use rablock_oplog::GroupLog;
use rablock_storage::{
    BlockDevice, CrashDisk, CrashPlan, GroupId, MemDisk, NvmRegion, ObjectId, ObjectStore, Op,
    StoreError, Transaction,
};

fn oid(i: u64) -> ObjectId {
    ObjectId::new(GroupId(0), i)
}

fn write_txn(seq: u64, o: ObjectId, offset: u64, data: Vec<u8>) -> Transaction {
    Transaction::new(
        GroupId(0),
        seq,
        vec![Op::Write {
            oid: o,
            offset,
            data: data.into(),
        }],
    )
}

#[test]
fn lsm_crash_loses_nothing_acknowledged() {
    // Every apply() in the LSM is WAL-durable before returning, so a crash
    // that drops unflushed *device* writes must still recover every batch.
    let mut db = Db::open(CrashDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
    for i in 0..500u64 {
        let k = format!("key{:04}", i % 100).into_bytes();
        db.apply(&[(k.into(), Some(vec![i as u8; 64].into()))])
            .unwrap();
        while db.needs_maintenance() {
            db.maintenance().unwrap();
        }
    }
    let mut dev = db.into_device();
    dev.crash_with(CrashPlan::lose_all());
    let mut db2 = Db::open(dev, LsmOptions::tiny()).unwrap();
    for i in 0..100u64 {
        let k = format!("key{:04}", i).into_bytes();
        // The newest value for key i%100 is from the last round that wrote it.
        let newest = (0..500u64).rev().find(|j| j % 100 == i).unwrap();
        assert_eq!(
            db2.get(&k).unwrap(),
            Some(vec![newest as u8; 64].into()),
            "key {i}"
        );
    }
}

#[test]
fn lsm_torn_wal_tail_is_dropped_cleanly() {
    let mut db = Db::open(CrashDisk::new(16 << 20), LsmOptions::tiny()).unwrap();
    db.apply(&[(b"committed".into(), Some(b"yes".to_vec().into()))])
        .unwrap();
    let mut dev = db.into_device();
    // Tear the very last write (the most recent WAL record).
    let pending = dev.pending_writes();
    dev.crash_with(CrashPlan::keep_torn(pending));
    let mut db2 = Db::open(dev, LsmOptions::tiny()).unwrap();
    // Either the record survived its CRC or was dropped — never garbage.
    if let Some(v) = db2.get(b"committed").unwrap() {
        assert_eq!(v.as_slice(), b"yes");
    }
}

#[test]
fn cos_mount_replays_to_acknowledged_state_via_oplog() {
    // The full §IV-C-6 flow: transactions land in the NVM operation log
    // first; some are flushed to the store; the node crashes losing
    // unflushed DEVICE writes (NVM survives). Recovery = mount the store
    // (rebuild allocator/index from onodes) + REDO the operation log.
    let opts = CosOptions {
        metadata_cache: false,
        ..CosOptions::tiny()
    };
    let mut store = CosObjectStore::format(CrashDisk::new(64 << 20), opts.clone()).unwrap();
    let mut nvm = NvmRegion::new(1 << 20);
    let mut log = GroupLog::format(&mut nvm, GroupId(0), 0, 1 << 20, 16).unwrap();

    store
        .submit(Transaction::new(
            GroupId(0),
            0,
            vec![Op::Create {
                oid: oid(1),
                size: 1 << 20,
            }],
        ))
        .unwrap();
    // 20 acknowledged writes: all logged; only the first 10 flushed.
    for seq in 1..=20u64 {
        let txn = write_txn(seq, oid(1), (seq % 8) * 4096, vec![seq as u8; 4096]);
        log.append(&mut nvm, txn).unwrap();
    }
    let flushed = log.drain_for_flush(&mut nvm, 10).unwrap();
    for txn in flushed {
        store.submit(txn).unwrap();
    }
    // Make the flushed state durable, then crash with whatever later
    // device writes were still in flight.
    let mut dev = store.into_device();
    dev.flush().unwrap();
    dev.crash_with(CrashPlan::lose_all());
    nvm.reboot();

    // Recovery: mount + replay the log (REDO).
    let mut store2 = CosObjectStore::mount(dev, opts).unwrap();
    let log2 = GroupLog::recover(&mut nvm, GroupId(0), 0, 1 << 20, 16).unwrap();
    assert_eq!(log2.pending(), 10, "unflushed suffix survives in NVM");
    for rec in log2.export_records() {
        store2.submit(rec.txn).unwrap();
    }
    // Every block holds the newest acknowledged write for that offset.
    for block in 0..8u64 {
        let newest = (1..=20u64).rev().find(|s| s % 8 == block).unwrap();
        assert_eq!(
            store2.read(oid(1), block * 4096, 4096).unwrap(),
            vec![newest as u8; 4096],
            "block {block}"
        );
    }
}

#[test]
fn cos_recovers_even_when_everything_unflushed_is_lost() {
    let opts = CosOptions::tiny();
    let store = CosObjectStore::format(CrashDisk::new(64 << 20), opts.clone()).unwrap();
    let mut dev = store.into_device();
    dev.flush().unwrap();

    let mut nvm = NvmRegion::new(1 << 20);
    let mut log = GroupLog::format(&mut nvm, GroupId(0), 0, 1 << 20, 16).unwrap();
    for seq in 1..=5u64 {
        log.append(&mut nvm, write_txn(seq, oid(2), 0, vec![seq as u8; 128]))
            .unwrap();
    }
    // Crash before ANY flush reached the device.
    dev.crash_with(CrashPlan::lose_all());
    nvm.reboot();

    let mut store2 = CosObjectStore::mount(dev, opts).unwrap();
    let log2 = GroupLog::recover(&mut nvm, GroupId(0), 0, 1 << 20, 16).unwrap();
    for rec in log2.export_records() {
        store2.submit(rec.txn).unwrap();
    }
    assert_eq!(store2.read(oid(2), 0, 128).unwrap(), vec![5u8; 128]);
}

#[test]
fn lsm_store_recovers_objects_after_crash() {
    let mut s = LsmObjectStore::open(CrashDisk::new(32 << 20), LsmOptions::tiny()).unwrap();
    for seq in 1..=50u64 {
        s.submit(write_txn(
            seq,
            oid(seq % 5),
            (seq % 4) * 4096,
            vec![seq as u8; 4096],
        ))
        .unwrap();
        while s.needs_maintenance() {
            s.maintenance();
        }
    }
    let mut dev = s.into_device();
    dev.crash_with(CrashPlan::lose_all());
    let mut s2 = LsmObjectStore::open(dev, LsmOptions::tiny()).unwrap();
    for obj in 0..5u64 {
        for block in 0..4u64 {
            let newest = (1..=50u64).rev().find(|s| s % 5 == obj && s % 4 == block);
            if let Some(n) = newest {
                assert_eq!(
                    s2.read(oid(obj), block * 4096, 4096).unwrap(),
                    vec![n as u8; 4096],
                    "obj {obj} block {block}"
                );
            }
        }
    }
}

#[test]
fn oplog_partial_nvm_record_is_detected() {
    // NVM is byte-addressable; a record is acknowledged only after the
    // append returns. Corrupt the newest record to emulate an interrupted
    // append: recovery must fail loudly (CRC), not return garbage.
    let mut nvm = NvmRegion::new(64 << 10);
    let mut log = GroupLog::format(&mut nvm, GroupId(0), 0, 64 << 10, 16).unwrap();
    log.append(&mut nvm, write_txn(1, oid(1), 0, vec![1; 256]))
        .unwrap();
    let used = log.nvm_used();
    // Smash a byte in the middle of the (only) record.
    let probe = 48 + used / 2;
    let b = nvm.read(probe, 1).unwrap()[0];
    nvm.write(probe, &[b ^ 0xFF]).unwrap();
    nvm.reboot();
    let err = GroupLog::recover(&mut nvm, GroupId(0), 0, 64 << 10, 16);
    assert!(matches!(err, Err(StoreError::Corrupt(_))), "got {err:?}");
}

#[test]
fn replication_plus_recovery_preserves_acknowledged_writes_cluster_wide() {
    // Mini cluster-level scenario at the store level: primary and replica
    // each hold the log; the primary's device dies entirely; the replica's
    // log + store reconstruct every acknowledged write.
    let opts = CosOptions::tiny();
    let mut primary_nvm = NvmRegion::new(1 << 20);
    let mut replica_nvm = NvmRegion::new(1 << 20);
    let mut primary_log = GroupLog::format(&mut primary_nvm, GroupId(0), 0, 1 << 20, 16).unwrap();
    let mut replica_log = GroupLog::format(&mut replica_nvm, GroupId(0), 0, 1 << 20, 16).unwrap();
    let mut replica_store = CosObjectStore::format(MemDisk::new(64 << 20), opts).unwrap();

    for seq in 1..=12u64 {
        let txn = write_txn(seq, oid(3), (seq % 4) * 4096, vec![seq as u8; 4096]);
        primary_log.append(&mut primary_nvm, txn.clone()).unwrap();
        replica_log.append(&mut replica_nvm, txn).unwrap();
    }
    // Primary vanishes. The replica flushes its log and serves reads.
    for txn in replica_log
        .drain_for_flush(&mut replica_nvm, usize::MAX)
        .unwrap()
    {
        replica_store.submit(txn).unwrap();
    }
    for block in 0..4u64 {
        let newest = (1..=12u64).rev().find(|s| s % 4 == block).unwrap();
        assert_eq!(
            replica_store.read(oid(3), block * 4096, 4096).unwrap(),
            vec![newest as u8; 4096]
        );
    }
}
