//! The write-path replay of `serve_rw`: the writer's first groups pushed
//! through the commit pipeline on one thread, each stage timed from
//! outside — SHIFT-SPLIT decomposition into the `DeltaBuffer` (what the
//! server's `update` op does), `SnapshotCoeffStore::commit` (copy-on-write
//! + WAL append + fsync), WAL replay on a crash image, and `checkpoint`.

use crate::gen::{self, LEVELS};
use crate::serve::{self, HOT_POOL, WORKERS};
use crate::spans::{Spans, ROOT, YARDSTICK_EVERY};
use crate::store;
use ss_maintain::{DeltaBuffer, FlushMode, FlushReport, SnapshotCoeffStore, Wal};
use ss_storage::IoSnapshot;
use std::path::Path;
use std::time::Instant;

/// Totals of one write replay.
#[derive(Default)]
pub struct WriteReplay {
    /// Groups committed.
    pub groups: u64,
    /// Boxes buffered.
    pub boxes: u64,
    /// Decomposition + buffering, summed, ns.
    pub buffer_ns: u64,
    /// `commit`, summed, ns.
    pub commit_ns: u64,
    /// WAL bytes after the last commit.
    pub wal_bytes: u64,
    /// `Wal::open` + `replay_records` on a copy, ns (0 without a WAL).
    pub wal_replay_ns: u64,
    /// `checkpoint`, ns.
    pub checkpoint_ns: u64,
    /// What the buffer drained over all groups.
    pub flush: FlushReport,
    /// Device and pool counters, checkpoint included.
    pub io: IoSnapshot,
}

impl WriteReplay {
    /// Device block transfers per 1 000 update boxes.
    pub fn block_ios_per_kbox(&self) -> f64 {
        self.io.blocks() as f64 * 1e3 / self.boxes as f64
    }
}

/// Commits the writer's groups `0..groups` serially into a copy of the
/// pristine store at `pristine`, with or without a WAL.
pub fn write_replay(
    scratch: &store::Scratch,
    pristine: &Path,
    seed: u64,
    groups: u64,
    with_wal: bool,
    spans: &mut Spans,
) -> Result<WriteReplay, String> {
    let dir = scratch.subdir("writes").map_err(|e| e.to_string())?;
    let ws = store::copy_store(pristine, &dir)?;
    let (shared, stats) = store::open_shared(&ws, HOT_POOL, WORKERS)?;
    let wal = if with_wal {
        Some(
            Wal::open(&store::wal_path(&ws))
                .map_err(|e| e.to_string())?
                .0,
        )
    } else {
        None
    };
    let snap = SnapshotCoeffStore::new(shared, wal, 0);
    let mut buf = DeltaBuffer::for_map(snap.map(), FlushMode::Exact);
    let mut r = WriteReplay {
        groups,
        ..WriteReplay::default()
    };
    for k in 0..groups {
        if k % YARDSTICK_EVERY as u64 == 0 {
            spans.yardstick();
        }
        let group = gen::writer_group(seed, k);
        r.boxes += group.len() as u64;
        let root = spans.open("write_group", ROOT, k);
        let ((), ns) = spans.time("serve.update", root, k, || {
            for (at, delta) in &group {
                buf.begin_box();
                ss_transform::for_each_box_delta_standard(&LEVELS, at, delta, |idx, d| {
                    buf.add_at(snap.map(), idx, d);
                });
            }
        });
        r.buffer_ns += ns;
        let (committed, ns) = spans.time("maintain.snapshot.commit", root, k, || {
            snap.commit(&mut buf)
        });
        r.commit_ns += ns;
        spans.close(root);
        let (epoch, flush) = committed.map_err(|e| e.to_string())?;
        if epoch != k + 1 {
            return Err(format!("group {k} published epoch {epoch}"));
        }
        r.flush.merge(flush);
    }
    if with_wal {
        r.wal_bytes = crate::stats::file_bytes(&[&store::wal_path(&ws)]);
        let image_dir = scratch.subdir("replay").map_err(|e| e.to_string())?;
        let image = store::copy_store(&ws, &image_dir)?;
        let (target, _) = store::open_shared(&image, 1 << 10, WORKERS)?;
        let start = Instant::now();
        let (_, records, _) = Wal::open(&store::wal_path(&image)).map_err(|e| e.to_string())?;
        ss_maintain::replay_records(&records, &target);
        r.wal_replay_ns = start.elapsed().as_nanos() as u64;
        if records.len() as u64 != groups {
            return Err(format!("wal holds {} of {groups} commits", records.len()));
        }
    }
    let (done, ns) = spans.time("maintain.snapshot.checkpoint", ROOT, groups, || {
        serve::checkpoint(&snap)
    });
    done?;
    spans.yardstick();
    r.checkpoint_ns = ns;
    r.io = stats.snapshot();
    Ok(r)
}
