//! **E-SPARSE** — sparse v3 storage: bytes on disk and pool behaviour
//! versus reconstruction error.
//!
//! Not a paper experiment: the paper stores every coefficient; this
//! harness measures what the bucketed sparse format (`docs/FORMAT.md`
//! §8) buys on a workload whose transform is genuinely sparse, and what
//! the lossy retention policies (`docs/ERROR_MODEL.md`) trade for
//! further shrinkage.
//!
//! A 256×256 sparse cube (200 non-zeros) is ingested into a dense v2
//! store on disk, then converted to v3 under a sweep of retention
//! policies: lossless (`ε = 0`), thresholds `ε ∈ {1e-12, 1e-3, 1e-2,
//! 1e-1}` and best-K with `K ∈ {16, 4}` per tile. For each store we
//! report bytes on disk (blocks file + CRC sidecar), the achieved L2
//! error from the retention report, a measured root-mean-square point
//! error against the raw data, and the pool hit rate of a 2 000-point
//! query workload against a cold default-budget pool. Query latency is
//! the benchmark's to measure (`benchmark/`), not this report's.
//!
//! Expected shape: the lossless v3 store alone beats dense by well over
//! 2× on this workload (the acceptance bar), thresholds shrink it
//! further at bounded error, and the hit rate stays flat — point reads
//! still touch one block per query whatever the layout.

use crate::{fmt_f, Table};
use ss_array::MultiIndexIter;
use ss_core::sparse::RetentionPolicy;
use ss_datagen::{sparse::sparse_cube, SplitMix64};
use ss_storage::file::sidecar_path;
use ss_storage::wsfile::{convert_to_v3, Meta, WsFile};
use std::path::{Path, PathBuf};

const N: u32 = 8; // 256 x 256 domain
const B: u32 = 4; // 16x16-coefficient tiles
const NONZEROS: usize = 200;
const SEED: u64 = 0x5eed_ba5e;
const QUERIES: usize = 2_000;

/// The retention policies swept, by the name of their table row.
const POLICIES: [(&str, RetentionPolicy); 7] = [
    ("v3 eps=0", RetentionPolicy::Threshold(0.0)),
    ("v3 eps=1e-12", RetentionPolicy::Threshold(1e-12)),
    ("v3 eps=1e-3", RetentionPolicy::Threshold(1e-3)),
    ("v3 eps=1e-2", RetentionPolicy::Threshold(1e-2)),
    ("v3 eps=1e-1", RetentionPolicy::Threshold(1e-1)),
    ("v3 topk=16", RetentionPolicy::TopK(16)),
    ("v3 topk=4", RetentionPolicy::TopK(4)),
];

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ss_exp_sparse_{tag}_{}.ws", std::process::id()))
}

/// Blocks file plus CRC sidecar — what the format actually costs on disk
/// (the text meta header is a constant few dozen bytes).
fn disk_bytes(path: &Path) -> u64 {
    let f = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    f(path) + f(&sidecar_path(path))
}

fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(sidecar_path(path));
    let mut meta = path.as_os_str().to_owned();
    meta.push(".meta");
    let _ = std::fs::remove_file(PathBuf::from(meta));
}

fn copy_store(src: &Path, dst: &Path) {
    remove_store(dst);
    std::fs::copy(src, dst).expect("copy blocks");
    std::fs::copy(sidecar_path(src), sidecar_path(dst)).expect("copy sidecar");
    let (mut sm, mut dm) = (src.as_os_str().to_owned(), dst.as_os_str().to_owned());
    sm.push(".meta");
    dm.push(".meta");
    std::fs::copy(PathBuf::from(sm), PathBuf::from(dm)).expect("copy meta");
}

/// Cold-pool query workload: `QUERIES` uniform point queries, returning
/// (pool hit rate, RMS error against `data`).
fn query_workload(path: &Path, data: &ss_array::NdArray<f64>) -> (f64, f64) {
    let side = 1usize << N;
    let mut ws = WsFile::open(path).expect("open store");
    ws.stats.reset();
    let mut rng = SplitMix64::new(SEED ^ 0xabcd);
    let mut err_sq = 0.0;
    for _ in 0..QUERIES {
        let pos = [rng.below(side), rng.below(side)];
        let got = ss_query::point_standard(&mut ws.store, &ws.meta.levels, &pos);
        let want = data.get(&pos);
        err_sq += (got - want) * (got - want);
    }
    let snap = ws.stats.snapshot();
    let hit_rate = if snap.pool_hits + snap.pool_misses > 0 {
        snap.pool_hits as f64 / (snap.pool_hits + snap.pool_misses) as f64
    } else {
        0.0
    };
    (hit_rate, (err_sq / QUERIES as f64).sqrt())
}

pub fn run(md: &mut String) {
    let side = 1usize << N;
    md.push_str(&format!(
        "# E-SPARSE — sparse v3 bytes-on-disk vs reconstruction error ({side} x {side})\n\n"
    ));
    let data = sparse_cube(&[side, side], NONZEROS, SEED);

    // Dense v2 baseline on disk.
    let dense_path = scratch("dense");
    remove_store(&dense_path);
    {
        let meta = Meta::new(vec![N; 2], vec![B; 2], side * side, 0);
        let mut ws = WsFile::create(&dense_path, meta).expect("create dense store");
        let t = ss_core::standard::forward_to(&data);
        for idx in MultiIndexIter::new(&[side, side]) {
            ws.store.write(&idx, t.get(&idx));
        }
        ws.store.flush();
        ws.sync().expect("sync dense store");
    }
    let dense_disk = disk_bytes(&dense_path);
    let (dense_hit, dense_rms) = query_workload(&dense_path, &data);

    let mut table = Table::new(&[
        "store",
        "disk bytes",
        "vs dense",
        "kept",
        "dropped",
        "achieved L2",
        "point RMS",
        "pool hit%",
    ]);
    table.row(&[
        &"v2 dense",
        &dense_disk,
        &"1.00x",
        &((side * side) as u64),
        &0u64,
        &"0",
        &fmt_f(dense_rms, 9),
        &fmt_f(dense_hit * 100.0, 1),
    ]);

    let mut lossless_ratio = None;
    for (name, policy) in POLICIES {
        let path = scratch(&name.replace(['=', ' ', '.', '-'], "_"));
        copy_store(&dense_path, &path);
        let report = convert_to_v3(&path, policy).expect("convert to v3");
        let sparse_disk = disk_bytes(&path);
        let ratio = dense_disk as f64 / sparse_disk as f64;
        let (hit, rms) = query_workload(&path, &data);
        if policy.lossless() {
            lossless_ratio.get_or_insert(ratio);
            assert!(
                rms < 1e-9,
                "lossless v3 must reproduce the dense answers ({rms})"
            );
        }
        table.row(&[
            &name,
            &sparse_disk,
            &format!("{ratio:.2}x"),
            &report.retention.kept,
            &report.retention.dropped,
            &fmt_f(report.retention.l2_error(), 6),
            &fmt_f(rms, 9),
            &fmt_f(hit * 100.0, 1),
        ]);
        remove_store(&path);
    }
    table.write(md);

    let ratio = lossless_ratio.expect("lossless policy in sweep");
    md.push_str(&format!(
        "Lossless v3 is {ratio:.2}x smaller than dense on this workload (bar: >= 2x).\n"
    ));
    assert!(
        ratio >= 2.0,
        "acceptance: lossless v3 must shrink this workload at least 2x (got {ratio:.2}x)"
    );
    md.push_str("Thresholds trade reported L2 error for further shrinkage; best-K bounds\n");
    md.push_str("per-tile footprint instead of error. Pool behaviour is layout-independent:\n");
    md.push_str("one block per point query either way.\n");
    remove_store(&dense_path);
}
