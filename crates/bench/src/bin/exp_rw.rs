//! **E-RW** — readers × writers sweep of the live read/write server.
//!
//! Not a paper experiment: the paper maintains the transformed data
//! offline, this harness measures serving queries *while* absorbing
//! updates. A 64×64 standard-form store sits behind a throttled device
//! (200 µs per-block read latency) under a [`SnapshotCoeffStore`]: reader
//! clients run a closed-loop point/range-sum mix while writer clients
//! stream box updates and group-commit every few boxes through the
//! `update`/`commit` protocol ops — WAL-fsynced ahead of every commit.
//!
//! Three effects are on display:
//!
//! * **read/write overlap** — MVCC pins mean readers never wait for a
//!   commit: read throughput with writers attached stays close to the
//!   writer-free baseline;
//! * **group-commit cost** — commits per second and the share of wall
//!   time spent in the writer connections bound the update absorption
//!   rate at this commit granularity;
//! * **durability tax** — one row runs without a WAL; the gap to its
//!   logged twin is the fsync price of crash safety.
//!
//! Each configuration ends with a full-domain range sum checked against
//! the ingested mass plus every committed delta — served answers stay
//! consistent under concurrency, not just fast.

use ss_bench::serving::{run_reader, serve_config, throttled_store};
use ss_bench::{emit_json_row, fmt_f, timed_ms, Table};
use ss_datagen::SplitMix64;
use ss_maintain::{FlushMode, SnapshotCoeffStore, Wal};
use ss_obs::json::Value;
use ss_serve::{Client, QueryServer};
use ss_storage::IoStats;
use std::sync::Arc;

const N: u32 = 6; // 64 x 64 domain
const B: u32 = 2; // 4x4-coefficient tiles
const POOL: usize = 48;
const SHARDS: usize = 8;
const READ_LAT_US: u64 = 200;
const READS_PER_CLIENT: usize = 120;
const UPDATES_PER_WRITER: usize = 40;
const COMMIT_EVERY: usize = 5;
/// Every update box carries the same total mass, so the final range sum
/// is predictable without replaying the workload.
const BOX_DATA: [f64; 4] = [1.0, -0.25, 0.5, 0.75];
const BATCH_MAX: usize = 4;
/// (readers, writers, with_wal)
const CONFIGS: [(usize, usize, bool); 5] = [
    (4, 0, true),
    (4, 1, true),
    (4, 1, false),
    (8, 1, true),
    (4, 2, true),
];

fn run_writer(addr: std::net::SocketAddr, seed: u64) {
    let side = 1usize << N;
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = SplitMix64::new(seed);
    for k in 1..=UPDATES_PER_WRITER {
        let at = [rng.below(side - 1), rng.below(side - 1)];
        client.update(&at, &[2, 2], &BOX_DATA).expect("update");
        if k % COMMIT_EVERY == 0 {
            client.commit().expect("commit");
        }
    }
}

fn main() {
    let side = 1usize << N;
    let cores = ss_bench::host_cores();
    println!("# E-RW — live read/write serving: readers × writers sweep\n");
    println!(
        "domain {side}x{side}, pool {POOL} blocks, {READ_LAT_US} µs emulated \
         read latency, {READS_PER_CLIENT} reads per reader (70% point / 30% \
         range-sum), {UPDATES_PER_WRITER} box updates per writer with a \
         group commit every {COMMIT_EVERY}, batch_max {BATCH_MAX}; host has \
         {cores} core(s)\n"
    );
    let mut table = Table::new(&[
        "readers", "writers", "wal", "reads", "commits", "wall ms", "read qps", "epoch",
    ]);
    let registry = ss_obs::global();
    let commits_ctr = registry.counter("snapshot.commits");
    let box_mass: f64 = BOX_DATA.iter().sum();
    for &(readers, writers, with_wal) in &CONFIGS {
        let commits_before = commits_ctr.get();
        let stats = IoStats::new();
        let (shared, ingested_mass) =
            throttled_store(N, B, READ_LAT_US, POOL, SHARDS, stats.clone());
        let wal_path = std::env::temp_dir().join(format!(
            "ss_exp_rw_{}_{readers}r{writers}w{}.wal",
            std::process::id(),
            if with_wal { "wal" } else { "nowal" }
        ));
        let _ = std::fs::remove_file(&wal_path);
        let wal = if with_wal {
            Some(Wal::open(&wal_path).expect("open wal").0)
        } else {
            None
        };
        let snap = Arc::new(SnapshotCoeffStore::new(shared, wal, 0));
        let server = QueryServer::bind_writable(
            "127.0.0.1:0",
            Arc::clone(&snap),
            vec![N; 2],
            FlushMode::Exact,
            serve_config(4, BATCH_MAX),
        )
        .expect("bind");
        let addr = server.local_addr();
        let (_, wall_ms) = timed_ms(|| {
            std::thread::scope(|scope| {
                for r in 0..readers {
                    scope.spawn(move || run_reader(addr, N, READS_PER_CLIENT, 0xbead + r as u64));
                }
                for w in 0..writers {
                    scope.spawn(move || run_writer(addr, 0xfeed + w as u64));
                }
            });
        });
        // Consistency gate: the served full-domain sum equals the
        // ingested mass plus every committed box's mass.
        let mut client = Client::connect(addr).expect("connect");
        let got = client
            .range_sum(&[0, 0], &[side - 1, side - 1])
            .expect("final sum");
        let want = ingested_mass + (writers * UPDATES_PER_WRITER) as f64 * box_mass;
        assert!(
            (got - want).abs() < 1e-6,
            "served sum drifted: {got} vs {want}"
        );
        drop(client);
        server.shutdown();
        let epoch = snap.epoch();
        let commits = commits_ctr.get() - commits_before;
        // Writers share the server's delta buffer, so one writer's commit
        // can flush boxes the other buffered; the later commit then finds
        // an empty buffer and mints no epoch. The count is exact for a
        // single writer and an upper bound otherwise.
        let commit_calls = (writers * UPDATES_PER_WRITER / COMMIT_EVERY) as u64;
        if writers <= 1 {
            assert_eq!(commits, commit_calls);
        } else {
            assert!(commits >= 1 && commits <= commit_calls, "commits {commits}");
        }
        let reads = (readers * READS_PER_CLIENT) as u64;
        let qps = reads as f64 / (wall_ms / 1000.0);
        let wal_label = if with_wal { "fsync" } else { "none" };
        table.row(&[
            &readers,
            &writers,
            &wal_label,
            &reads,
            &commits,
            &fmt_f(wall_ms, 1),
            &fmt_f(qps, 0),
            &epoch,
        ]);
        emit_json_row(
            "rw",
            &[
                ("readers", Value::from(readers as u64)),
                ("writers", Value::from(writers as u64)),
                ("wal", Value::from(wal_label)),
                ("reads", Value::from(reads)),
                (
                    "updates",
                    Value::from((writers * UPDATES_PER_WRITER) as u64),
                ),
                ("commits", Value::from(commits)),
                ("wall_ms", Value::from(wall_ms)),
                ("read_qps", Value::from(qps)),
                ("final_epoch", Value::from(epoch)),
                ("read_latency_us", Value::from(READ_LAT_US)),
                ("batch_max", Value::from(BATCH_MAX as u64)),
            ],
        );
        let _ = std::fs::remove_file(&wal_path);
    }
    table.print();
    println!(
        "\nevery row ends with a served full-domain range sum matching the \
         ingested mass plus all committed deltas (checked, not assumed)"
    );
}
