//! Concurrency and crash-recovery properties of the snapshot store.
//!
//! Two contracts from the live-serving design (DESIGN.md §12) are stated
//! here as tests rather than prose:
//!
//! 1. **No partial epochs**: a pinned reader sees *exactly* the state of
//!    one committed epoch across every tile, bit for bit, no matter how
//!    many commits and checkpoint folds race with it — and the final
//!    state is bit-identical to applying the same deltas serially.
//! 2. **Crash replay is exact**: killing the process anywhere between
//!    the WAL append (the commit point) and the base-store writeback —
//!    including mid-writeback — loses nothing; replaying the log onto
//!    the reopened store restores the committed state bit for bit.

use ss_core::{Tiling1d, TilingMap};
use ss_maintain::{replay_records, DeltaBuffer, SnapshotCoeffStore, Wal};
use ss_storage::{FileBlockStore, IoStats, SharedCoeffStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The deterministic delta the writer commits to sentinel `tile` in
/// epoch `epoch` — shared by the live writer and the serial reference.
fn delta(epoch: u64, tile: usize) -> f64 {
    ((epoch as usize * 31 + tile * 17) % 13) as f64 / 3.0 - 2.0
}

#[test]
fn hammered_readers_see_whole_epochs_and_serial_final_state() {
    const EPOCHS: u64 = 60;
    const READERS: usize = 4;
    let sentinels: Vec<usize> = vec![0, 5, 10, 15];

    // Serial reference: prefix[e][k] is sentinel k's value after epoch e,
    // folded in the exact order `commit` applies ops (one add per epoch).
    let mut prefix: Vec<Vec<f64>> = vec![vec![0.0; sentinels.len()]];
    for e in 1..=EPOCHS {
        let mut row = prefix.last().unwrap().clone();
        for (k, &t) in sentinels.iter().enumerate() {
            row[k] += delta(e, t);
        }
        prefix.push(row);
    }
    let prefix = Arc::new(prefix);

    // 64 coefficients in 16 tiles of 4.
    let base = ss_storage::mem_shared_store(Tiling1d::new(6, 2), 8, 4, IoStats::new());
    let store = Arc::new(SnapshotCoeffStore::new(base, None, 0));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            let prefix = Arc::clone(&prefix);
            let sentinels = sentinels.clone();
            scope.spawn(move || {
                let mut pins = 0u64;
                while !done.load(Ordering::Acquire) || pins == 0 {
                    let pin = store.pin();
                    let e = pin.epoch() as usize;
                    // Every sentinel must hold exactly epoch e's value: a
                    // mismatched tile would mean a partially applied (or
                    // partially folded) epoch leaked into a snapshot.
                    for (k, &t) in sentinels.iter().enumerate() {
                        let got = pin.get(t, 0);
                        assert_eq!(
                            got.to_bits(),
                            prefix[e][k].to_bits(),
                            "reader {r}: epoch {e} sentinel tile {t}: {got} vs {}",
                            prefix[e][k]
                        );
                    }
                    drop(pin);
                    pins += 1;
                }
            });
        }

        // The writer: one commit per epoch, with interleaved checkpoint
        // folds (which may be blocked by pinned readers — that's fine).
        let mut buf = DeltaBuffer::new();
        for e in 1..=EPOCHS {
            buf.begin_box();
            for &t in &sentinels {
                buf.add(t, 0, delta(e, t));
            }
            let (epoch, _) = store.commit(&mut buf).unwrap();
            assert_eq!(epoch, e);
            // Read-your-writes: a pin taken after the commit returns must
            // see this epoch's values.
            let pin = store.pin();
            assert_eq!(pin.epoch(), e);
            for (k, &t) in sentinels.iter().enumerate() {
                assert_eq!(pin.get(t, 0).to_bits(), prefix[e as usize][k].to_bits());
            }
            drop(pin);
            if e % 7 == 0 {
                store.checkpoint().unwrap(); // may return false under pins
            }
        }
        done.store(true, Ordering::Release);
    });

    // Final state is bit-identical to the serial fold, and survives a
    // full checkpoint into the base store.
    let store = Arc::into_inner(store).expect("readers dropped their handles");
    let pin = store.pin();
    for (k, &t) in sentinels.iter().enumerate() {
        assert_eq!(
            pin.get(t, 0).to_bits(),
            prefix[EPOCHS as usize][k].to_bits()
        );
    }
    drop(pin);
    while !store.checkpoint().unwrap() {
        std::thread::yield_now();
    }
    for (k, &t) in sentinels.iter().enumerate() {
        assert_eq!(
            store.base().pool().read(t, 0).to_bits(),
            prefix[EPOCHS as usize][k].to_bits()
        );
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss_live_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn reopen(
    dir: &Path,
) -> (
    SharedCoeffStore<Tiling1d, FileBlockStore>,
    Wal,
    Vec<ss_maintain::WalRecord>,
) {
    let map = Tiling1d::new(4, 2);
    let fbs =
        FileBlockStore::open(&dir.join("coeffs.bin"), 4, map.num_tiles(), IoStats::new()).unwrap();
    let cs = SharedCoeffStore::new(map, fbs, 8, 2, IoStats::new());
    let (wal, recs, scan) = Wal::open(&dir.join("log.wal")).unwrap();
    assert!(!scan.torn_tail);
    (cs, wal, recs)
}

#[test]
fn crash_between_wal_append_and_writeback_replays_bit_identically() {
    let dir = tmp_dir("crash");
    let map = Tiling1d::new(4, 2); // 16 detail coefficients in tiles of 4
    let blocks = map.num_tiles();

    // Phase 1: commit three epochs, then "crash" (drop with no
    // checkpoint: the base file still holds zeros, only the WAL has the
    // commits).
    let expected3: Vec<f64> = {
        let fbs =
            FileBlockStore::create(&dir.join("coeffs.bin"), 4, blocks, IoStats::new()).unwrap();
        let cs = SharedCoeffStore::new(map, fbs, 8, 2, IoStats::new());
        let (wal, recs, _) = Wal::open(&dir.join("log.wal")).unwrap();
        assert!(recs.is_empty());
        let s = SnapshotCoeffStore::new(cs, Some(wal), 0);
        let mut buf = DeltaBuffer::new();
        for e in 1..=3u64 {
            buf.begin_box();
            for t in 0..4usize {
                buf.add(t, (e as usize + t) % 4, delta(e, t));
            }
            s.commit(&mut buf).unwrap();
        }
        let pin = s.pin();
        (0..4)
            .flat_map(|t| (0..4).map(move |slot| (t, slot)))
            .map(|(t, slot)| pin.get(t, slot))
            .collect()
        // `s` dropped here without checkpoint = crash after WAL fsync.
    };

    // Recovery 1: replay the log onto the reopened (all-zero) store.
    let (cs, wal, recs) = reopen(&dir);
    assert_eq!(recs.len(), 3);
    assert_eq!(recs.last().unwrap().epoch, 3);
    assert!(replay_records(&recs, &cs) > 0);
    for (i, (t, slot)) in (0..4)
        .flat_map(|t| (0..4).map(move |slot| (t, slot)))
        .enumerate()
    {
        assert_eq!(
            cs.pool().read(t, slot).to_bits(),
            expected3[i].to_bits(),
            "tile {t} slot {slot} after replay"
        );
    }

    // Phase 2: commit a fourth epoch, then crash *mid-writeback*: one
    // dirty tile makes it into the base file before the process dies
    // (the WAL reset that would follow a complete fold never happens).
    let expected4: Vec<f64> = {
        let s = SnapshotCoeffStore::new(cs, Some(wal), 3);
        let mut buf = DeltaBuffer::new();
        buf.begin_box();
        for t in 0..4usize {
            buf.add(t, t, delta(4, t));
        }
        s.commit(&mut buf).unwrap();
        let pin = s.pin();
        let all: Vec<f64> = (0..4)
            .flat_map(|t| (0..4).map(move |slot| (t, slot)))
            .map(|(t, slot)| pin.get(t, slot))
            .collect();
        // Partial fold: exactly one epoch-4 tile image reaches the base.
        let image: Vec<f64> = (0..4).map(|slot| pin.get(1, slot)).collect();
        drop(pin);
        s.base().overwrite_tile(1, &image);
        s.base().flush();
        all
        // Crash: dropped before the fold completes or the WAL resets.
    };

    // Recovery 2: replay is idempotent over the half-folded base — the
    // already-written tile is overwritten with the same bits.
    let (cs, _wal, recs) = reopen(&dir);
    assert_eq!(recs.len(), 4);
    replay_records(&recs, &cs);
    for (i, (t, slot)) in (0..4)
        .flat_map(|t| (0..4).map(move |slot| (t, slot)))
        .enumerate()
    {
        assert_eq!(
            cs.pool().read(t, slot).to_bits(),
            expected4[i].to_bits(),
            "tile {t} slot {slot} after mid-writeback replay"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_onto_sparse_v3_store_is_bit_identical() {
    // The MVCC commit pipeline and WAL replay speak dense tile images;
    // a sparse v3 base store (docs/FORMAT.md §8) must be invisible to
    // them: crash-replaying the log onto a reopened v3 store restores
    // the committed state bit for bit, exactly as with a dense base.
    let dir = tmp_dir("crash_v3");
    let map = Tiling1d::new(4, 2); // 16 coefficients in 4 tiles of 4
    let blocks = map.num_tiles();
    let path = dir.join("coeffs.v3");

    // Commit three epochs, then "crash" before any checkpoint: only the
    // WAL holds the state; the v3 base file is still all-zero entries.
    let expected: Vec<f64> = {
        let fbs = FileBlockStore::create_v3(&path, 4, blocks, IoStats::new()).unwrap();
        assert!(fbs.sparse());
        let cs = SharedCoeffStore::new(map.clone(), fbs, 8, 2, IoStats::new());
        let (wal, recs, _) = Wal::open(&dir.join("log.wal")).unwrap();
        assert!(recs.is_empty());
        let s = SnapshotCoeffStore::new(cs, Some(wal), 0);
        let mut buf = DeltaBuffer::new();
        for e in 1..=3u64 {
            buf.begin_box();
            for t in 0..4usize {
                buf.add(t, (e as usize + t) % 4, delta(e, t));
            }
            s.commit(&mut buf).unwrap();
        }
        let pin = s.pin();
        (0..4)
            .flat_map(|t| (0..4).map(move |slot| (t, slot)))
            .map(|(t, slot)| pin.get(t, slot))
            .collect()
    };

    // Recovery: replay writes dense post-images *through* the sparse
    // encoder like any other tile write.
    let fbs = FileBlockStore::open_v3(&path, 4, blocks, IoStats::new()).unwrap();
    let cs = SharedCoeffStore::new(map, fbs, 8, 2, IoStats::new());
    let (_wal, recs, scan) = Wal::open(&dir.join("log.wal")).unwrap();
    assert!(!scan.torn_tail);
    assert_eq!(recs.len(), 3);
    assert!(replay_records(&recs, &cs) > 0);
    cs.flush();
    for (i, (t, slot)) in (0..4)
        .flat_map(|t| (0..4).map(move |slot| (t, slot)))
        .enumerate()
    {
        assert_eq!(
            cs.pool().read(t, slot).to_bits(),
            expected[i].to_bits(),
            "tile {t} slot {slot} after replay onto v3"
        );
    }
    // The replayed store is durable and scrubs clean as a v3 file.
    let (_, mut fbs) = cs.into_parts();
    fbs.sync().unwrap();
    assert!(fbs.scrub().unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}
