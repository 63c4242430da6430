//! Model-based property tests for the NVM operation log.

use proptest::prelude::*;
use rablock_oplog::GroupLog;
use rablock_storage::{GroupId, NvmRegion, ObjectId, Op, StoreError, Transaction};

#[derive(Debug, Clone)]
enum LogOp {
    Append {
        obj: u64,
        offset: u64,
        len: u16,
        fill: u8,
    },
    Drain(u8),
    /// Open a flush window (share every pending transaction with the store).
    BeginFlush,
    /// Close the open window, if any (the store I/O completed).
    CompleteFlush,
    Reboot,
}

fn script() -> impl Strategy<Value = Vec<LogOp>> {
    proptest::collection::vec(
        prop_oneof![
            5 => (0u64..8, 0u64..32_768, 1u16..2048, any::<u8>())
                .prop_map(|(obj, offset, len, fill)| LogOp::Append { obj, offset, len, fill }),
            2 => (1u8..8).prop_map(LogOp::Drain),
            1 => Just(LogOp::BeginFlush),
            1 => Just(LogOp::CompleteFlush),
            1 => Just(LogOp::Reboot),
        ],
        1..60,
    )
}

fn oid(i: u64) -> ObjectId {
    ObjectId::new(GroupId(3), i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log is an exact FIFO of acknowledged transactions, across
    /// arbitrary drain points, flush windows and reboots (NVM recovery).
    #[test]
    fn log_is_a_durable_fifo(ops in script()) {
        let mut nvm = NvmRegion::new(1 << 20);
        let mut log = GroupLog::format(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX).unwrap();
        // Model: the not-yet-drained transactions with their log versions,
        // and the version an open flush window reaches through.
        let mut pending: Vec<(u64, Transaction)> = Vec::new();
        let mut window: Option<u64> = None;
        let txns_of = |pending: &[(u64, Transaction)]| -> Vec<Transaction> {
            pending.iter().map(|(_, t)| t.clone()).collect()
        };
        let mut seq = 0u64;
        for op in ops {
            match op {
                LogOp::Append { obj, offset, len, fill } => {
                    seq += 1;
                    let txn = Transaction::new(
                        GroupId(3),
                        seq,
                        vec![Op::Write { oid: oid(obj), offset, data: vec![fill; len as usize].into() }],
                    );
                    prop_assert!(log.fits(&txn), "a 1 MiB ring never fills here");
                    log.append(&mut nvm, txn.clone()).unwrap();
                    pending.push((log.version(), txn));
                }
                LogOp::Drain(n) => {
                    // Records inside a window drain like any other, in
                    // log order.
                    let drained = log.drain_for_flush(&mut nvm, n as usize).unwrap();
                    let expect: Vec<(u64, Transaction)> = pending.drain(..drained.len()).collect();
                    prop_assert_eq!(drained, txns_of(&expect));
                }
                LogOp::BeginFlush => {
                    if window.is_none() {
                        window = Some(log.version());
                        prop_assert_eq!(log.begin_flush(), txns_of(&pending));
                    }
                }
                LogOp::CompleteFlush => {
                    if let Some(through) = window.take() {
                        let released = log.drain_through_version(&mut nvm, through).unwrap();
                        let before = pending.len();
                        pending.retain(|(version, _)| *version > through);
                        prop_assert_eq!(released, before - pending.len());
                    }
                }
                LogOp::Reboot => {
                    // The window dies with the process; NVM has every record.
                    window = None;
                    nvm.reboot();
                    log = GroupLog::recover(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX).unwrap();
                }
            }
            prop_assert_eq!(log.pending(), pending.len());
            let whole: Vec<Transaction> =
                log.export_records().into_iter().map(|r| r.txn).collect();
            prop_assert_eq!(whole, txns_of(&pending));
        }
        // Final recovery must reproduce exactly the pending suffix.
        nvm.reboot();
        let recovered = GroupLog::recover(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX).unwrap();
        let txns: Vec<Transaction> = recovered.export_records().into_iter().map(|r| r.txn).collect();
        prop_assert_eq!(txns, txns_of(&pending));
    }

    /// Differential CRC-reject property: flipping any single bit of any
    /// committed record makes crash recovery reject exactly the records
    /// from the flipped one onward and keep every earlier one intact — no
    /// rotted record is ever replayed as valid data, and rot never bleeds
    /// backwards into its predecessors.
    #[test]
    fn single_bit_rot_rejects_exactly_the_damaged_suffix(
        lens in proptest::collection::vec((1u16..1500, any::<u8>()), 2..12),
        victim_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut nvm = NvmRegion::new(1 << 20);
        let mut log = GroupLog::format(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX).unwrap();
        let mut txns = Vec::new();
        let mut offsets = vec![0u64]; // queued-byte offset of each record
        for (i, (len, fill)) in lens.iter().enumerate() {
            let txn = Transaction::new(
                GroupId(3),
                i as u64 + 1,
                vec![Op::Write { oid: oid(i as u64), offset: 0, data: vec![*fill; *len as usize].into() }],
            );
            let before = log.nvm_used();
            log.append(&mut nvm, txn.clone()).unwrap();
            offsets.push(offsets.last().unwrap() + (log.nvm_used() - before));
            txns.push(txn);
        }
        // Pick a victim record and a byte within it.
        let victim = ((victim_frac * txns.len() as f64) as usize).min(txns.len() - 1);
        let rec_len = offsets[victim + 1] - offsets[victim];
        let byte = offsets[victim] + ((byte_frac * rec_len as f64) as u64).min(rec_len - 1);
        prop_assert!(log.rot_bit(&mut nvm, byte, bit).unwrap());

        // The in-memory mirror is clean: rot stays latent until a crash.
        prop_assert_eq!(log.pending(), txns.len());

        // Strict recovery refuses the whole log instead of serving rot.
        nvm.reboot();
        prop_assert!(matches!(
            GroupLog::recover(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX),
            Err(StoreError::Corrupt(_))
        ));
        // Truncating recovery keeps exactly the clean prefix (and persists
        // the truncation, which is why the strict check ran first).
        let (recovered, discarded) =
            GroupLog::recover_truncating(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX).unwrap();
        let kept: Vec<Transaction> =
            recovered.export_records().into_iter().map(|r| r.txn).collect();
        prop_assert_eq!(&kept, &txns[..victim],
            "exactly the records before the flipped one survive");
        prop_assert_eq!(discarded, offsets[txns.len()] - offsets[victim],
            "everything from the damaged record onward is discarded");
    }

    /// read_path never returns stale data: a covering FromLog answer always
    /// matches the newest pending write for that range.
    #[test]
    fn read_path_returns_newest(writes in proptest::collection::vec(
        (0u64..4, 0u64..8192, 1u16..1024, any::<u8>()), 1..24)) {
        let mut nvm = NvmRegion::new(1 << 20);
        let mut log = GroupLog::format(&mut nvm, GroupId(3), 0, 1 << 20, usize::MAX).unwrap();
        let mut newest: std::collections::HashMap<u64, (u64, u64, u8)> = Default::default();
        for (i, (obj, offset, len, fill)) in writes.iter().enumerate() {
            let txn = Transaction::new(
                GroupId(3),
                i as u64 + 1,
                vec![Op::Write { oid: oid(*obj), offset: *offset, data: vec![*fill; *len as usize].into() }],
            );
            log.append(&mut nvm, txn).unwrap();
            newest.insert(*obj, (*offset, *len as u64, *fill));
        }
        for (obj, (offset, len, fill)) in newest {
            match log.read_path(oid(obj), offset, len) {
                rablock_oplog::ReadPath::FromLog(data) => {
                    prop_assert_eq!(data, vec![fill; len as usize]);
                }
                rablock_oplog::ReadPath::FlushThenStore => {} // conservative is fine
                rablock_oplog::ReadPath::Store => {
                    return Err(TestCaseError::fail("pending write invisible to read path"));
                }
            }
        }
    }
}
