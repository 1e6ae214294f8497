//! The three served workloads: `serve_hot`, `serve_cold`, `serve_rw`.
//!
//! One process holds the server (wired as `commands::serve` wires it)
//! and the load generator: two client threads over two loopback TCP
//! connections, speaking through the repo's own `ss_serve::Client`.
//! Readers are **closed-loop** — the next 32-query exchange leaves when
//! the previous one is fully answered. The `serve_rw` writer is
//! **open-loop** — a group is due every [`WRITE_PERIOD`] whatever
//! happened to the one before, and its latency counts from the due time.
//!
//! A timed pass is cut into [`SLICE`]-long slices. Between slices every
//! reader stops, and with the server idle one thread times the host
//! yardstick (see [`crate::host`]); every reported time and rate is
//! normalised by the yardstick readings around it.

use crate::gen::{self, Kind, Traffic, CELLS, EXCHANGE, LEVELS, SIDE};
use crate::host::HostLog;
use crate::stats;
use crate::store::{self, Scratch, Shared};
use crate::{Outcome, Plan};
use ss_core::tiling::StandardTiling;
use ss_maintain::{FlushMode, SnapshotCoeffStore, Wal};
use ss_serve::{Client, Query, QueryServer, ServeConfig};
use ss_storage::{FileBlockStore, WsFile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Executor workers (and pool shards) of every served workload.
pub const WORKERS: usize = 2;
/// Pool blocks that hold all 21 609 tiles.
pub const HOT_POOL: usize = 32_768;
/// Pool blocks of `serve_cold`: 1.2 % of the tiles.
pub const COLD_POOL: usize = 256;
/// A write group is due this often.
pub const WRITE_PERIOD: Duration = Duration::from_millis(25);
/// One served answer in this many is kept for the bit-identity gate.
const SAMPLE_EVERY: u64 = 64;
/// Exchanges per reader in the warm-up that ends a set-up.
const WARM_EXCHANGES: usize = 100;
/// Write groups in the `serve_rw` warm-up.
const WARM_GROUPS: u64 = 8;

/// Which served workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only, every tile pool-resident.
    Hot,
    /// Read-only, pool far smaller than the store.
    Cold,
    /// Writable server: one reader beside one paced writer.
    Rw,
}

impl Workload {
    /// Pool blocks the workload serves with.
    pub fn pool_blocks(self) -> usize {
        match self {
            Workload::Cold => COLD_POOL,
            Workload::Hot | Workload::Rw => HOT_POOL,
        }
    }

    /// Whether set-up reads every tile into the pool before serving.
    pub fn prefills(self) -> bool {
        self != Workload::Cold
    }

    fn readers(self) -> usize {
        match self {
            Workload::Rw => 1,
            Workload::Hot | Workload::Cold => 2,
        }
    }
}

type Snapshot = SnapshotCoeffStore<StandardTiling, FileBlockStore>;

/// The open-loop writer's connection and ledger.
struct Writer {
    client: Client,
    seed: u64,
    /// Next group index; groups `0..next` were sent.
    next: u64,
    /// Groups whose `commit` was acknowledged.
    acked: Vec<u64>,
    /// Delta mass of the acknowledged groups.
    acked_mass: f64,
}

/// One write group of a paced pass.
#[derive(Clone, Copy)]
pub struct Commit {
    /// Seconds into the pass at which `commit` was acknowledged.
    pub at: f64,
    /// Due time → acknowledged, ms.
    pub ms: f64,
    /// Due time → group on the wire, ms.
    pub late_ms: f64,
}

/// What one writer pass measured.
#[derive(Default)]
pub struct WriterPass {
    /// Every group, in order.
    pub commits: Vec<Commit>,
    /// Operations sent (updates and commits).
    pub attempted: u64,
    /// Operations answered with an error.
    pub failed: u64,
}

impl Writer {
    /// Pipelines group `next` (every `update`, then `commit`) and books
    /// the outcome.
    fn send(
        &mut self,
        group: &[gen::UpdateBox],
        ops: &[ss_serve::Op],
        pass: &mut WriterPass,
    ) -> Result<(), String> {
        let answers = self.client.run_ops(ops).map_err(|e| e.to_string())?;
        let errors = answers.iter().filter(|a| a.is_err()).count() as u64;
        pass.attempted += ops.len() as u64;
        pass.failed += errors;
        if errors == 0 {
            self.acked.push(self.next);
            self.acked_mass += gen::boxes_mass(group);
        }
        self.next += 1;
        Ok(())
    }

    fn next_group(&self) -> (Vec<gen::UpdateBox>, Vec<ss_serve::Op>) {
        let group = gen::writer_group(self.seed, self.next);
        let ops = gen::group_ops(&group);
        (group, ops)
    }

    /// Paced pass: group `k` of the pass is due at `start + k·period`,
    /// until the readers' last slice has ended.
    fn paced(&mut self, sync: &PassSync) -> Result<WriterPass, String> {
        let mut pass = WriterPass::default();
        for k in 0u32.. {
            let due = sync.start + WRITE_PERIOD * k;
            // Encode before the due time so the group leaves on it.
            let (group, ops) = self.next_group();
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if sync.done.load(Ordering::SeqCst) {
                break;
            }
            let sent = Instant::now();
            self.send(&group, &ops, &mut pass)?;
            let done = Instant::now();
            pass.commits.push(Commit {
                at: (done - sync.start).as_secs_f64(),
                ms: (done - due).as_secs_f64() * 1e3,
                late_ms: (sent - due).as_secs_f64() * 1e3,
            });
        }
        Ok(pass)
    }
}

/// One complete set-up: store on disk, server bound, clients connected
/// and warmed.
pub struct Stack {
    /// The `.ws` path.
    ws: PathBuf,
    server: QueryServer,
    snap: Option<Arc<Snapshot>>,
    readers: Vec<(Client, Traffic)>,
    /// The `serve_rw` writer.
    writer: Option<Writer>,
}

/// Builds a stack from nothing: ingest, open, (prefill,) bind, connect,
/// warm. This whole function is what `setup_s` times.
pub fn set_up(scratch: &Scratch, workload: Workload, seed: u64) -> Result<Stack, String> {
    let dir = scratch.subdir("serve").map_err(|e| e.to_string())?;
    let ws = dir.join("s1024.ws");
    store::ingest(&ws, seed)?;
    let (shared, _) = store::open_shared(&ws, workload.pool_blocks(), WORKERS)?;
    if workload.prefills() {
        store::prefill(&shared);
    }
    let config = ServeConfig {
        workers: WORKERS,
        batch_max: 64,
        max_requests: None,
        slow_ns: None,
    };
    let (server, snap) = if workload == Workload::Rw {
        let (wal, records, _) = Wal::open(&store::wal_path(&ws)).map_err(|e| e.to_string())?;
        ss_maintain::replay_records(&records, &shared);
        let last = records.last().map_or(0, |r| r.epoch);
        let snap = Arc::new(SnapshotCoeffStore::new(shared, Some(wal), last));
        let server = QueryServer::bind_writable(
            "127.0.0.1:0",
            Arc::clone(&snap),
            LEVELS.to_vec(),
            FlushMode::Exact,
            config,
        )
        .map_err(|e| e.to_string())?;
        (server, Some(snap))
    } else {
        let server = QueryServer::bind("127.0.0.1:0", shared, LEVELS.to_vec(), config)
            .map_err(|e| e.to_string())?;
        (server, None)
    };
    let addr = server.local_addr();
    let connect = || Client::connect(addr).map_err(|e| e.to_string());
    let mut readers = Vec::new();
    for c in 0..workload.readers() {
        readers.push((connect()?, Traffic::new(seed, c as u64)));
    }
    let writer = match workload {
        Workload::Rw => Some(Writer {
            client: connect()?,
            seed,
            next: 0,
            acked: Vec::new(),
            acked_mass: 0.0,
        }),
        _ => None,
    };
    let mut stack = Stack {
        ws,
        server,
        snap,
        readers,
        writer,
    };
    stack.warm_up()?;
    Ok(stack)
}

/// One answered exchange.
#[derive(Clone, Copy)]
pub struct Exchange {
    /// Seconds into the pass at which the last answer arrived.
    pub at: f64,
    /// What it asked.
    pub kind: Kind,
    /// Send → last answer, ms.
    pub ms: f64,
}

/// One reader's share of one slice of a pass.
#[derive(Clone, Copy)]
pub struct Slice {
    /// Seconds into the pass of the slice's middle.
    pub mid: f64,
    /// Seconds the reader spent sending and receiving in it.
    pub active: f64,
    /// Queries answered in it.
    pub queries: u64,
}

/// What one reader measured in a pass.
#[derive(Default)]
pub struct ReaderPass {
    /// Its share of every slice.
    pub slices: Vec<Slice>,
    /// Every exchange, in order.
    pub exchanges: Vec<Exchange>,
    /// Every [`SAMPLE_EVERY`]-th served answer with its query.
    pub samples: Vec<(Query, f64)>,
    /// Queries sent.
    pub attempted: u64,
    /// Queries answered with an error.
    pub failed: u64,
    served: u64,
}

impl ReaderPass {
    /// One closed-loop exchange; returns the queries answered.
    fn exchange(
        &mut self,
        client: &mut Client,
        traffic: &mut Traffic,
        start: Instant,
    ) -> Result<u64, String> {
        let (kind, queries) = traffic.next_exchange();
        let sent = Instant::now();
        let answers = client.run(&queries).map_err(|e| e.to_string())?;
        let end = Instant::now();
        self.exchanges.push(Exchange {
            at: (end - start).as_secs_f64(),
            kind,
            ms: (end - sent).as_secs_f64() * 1e3,
        });
        self.attempted += EXCHANGE as u64;
        let mut answered = 0;
        for (query, answer) in queries.into_iter().zip(answers) {
            match answer {
                Ok(value) => {
                    answered += 1;
                    self.served += 1;
                    if self.served.is_multiple_of(SAMPLE_EVERY) {
                        self.samples.push((query, value));
                    }
                }
                Err(_) => self.failed += 1,
            }
        }
        Ok(answered)
    }
}

/// Length of one slice of a timed pass.
pub const SLICE: Duration = Duration::from_millis(500);

/// What the threads of a timed pass share.
struct PassSync {
    start: Instant,
    slices: usize,
    /// Every reader meets here twice per slice: once to stop, once to go.
    barrier: Barrier,
    host: Mutex<HostLog>,
    /// Set when the last slice has ended; stops the paced writer.
    done: AtomicBool,
}

/// A reader's timed pass: `sync.slices` slices of closed-loop exchanges.
/// At each slice's end every reader waits for the others, the leader
/// times the yardstick on the then idle server, and all resume together.
fn read_slices(
    client: &mut Client,
    traffic: &mut Traffic,
    sync: &PassSync,
    leader: bool,
) -> Result<ReaderPass, String> {
    let mut pass = ReaderPass::default();
    let mut error = None;
    for _ in 0..sync.slices {
        let began = Instant::now();
        let mut queries = 0;
        // After an error keep every rendezvous, so the others can finish.
        while error.is_none() && began.elapsed() < SLICE {
            match pass.exchange(client, traffic, sync.start) {
                Ok(n) => queries += n,
                Err(e) => error = Some(e),
            }
        }
        let active = began.elapsed().as_secs_f64();
        pass.slices.push(Slice {
            mid: (began - sync.start).as_secs_f64() + active / 2.0,
            active,
            queries,
        });
        sync.barrier.wait();
        if leader {
            let mut host = sync.host.lock().expect("no thread panics holding the log");
            host.read(sync.start.elapsed().as_secs_f64());
        }
        sync.barrier.wait();
    }
    if leader {
        sync.done.store(true, Ordering::SeqCst);
    }
    error.map_or(Ok(pass), Err)
}

/// What one timed pass over a stack measured.
pub struct Pass {
    /// One entry per reader.
    pub readers: Vec<ReaderPass>,
    /// The writer's share (`serve_rw` only).
    pub writer: Option<WriterPass>,
    /// The yardstick: one reading before the first slice, one after each.
    pub host: HostLog,
}

impl Pass {
    /// Per slice: its middle (seconds into the pass) and queries ÷ active
    /// time summed over the readers, as the wall clock read them.
    fn slice_rates(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.readers[0].slices.len()).map(|k| {
            let rate = self
                .readers
                .iter()
                .map(|r| r.slices[k].queries as f64 / r.slices[k].active)
                .sum();
            (self.readers[0].slices[k].mid, rate)
        })
    }

    /// Read queries answered per second: the median over the slices of
    /// the slice's rate × the host's slowdown in that slice.
    pub fn qps(&self) -> f64 {
        let rates: Vec<f64> = self
            .slice_rates()
            .map(|(mid, rate)| rate * self.host.slowdown_at(mid))
            .collect();
        stats::median(&rates)
    }

    /// The same rate without the yardstick: plain wall-clock queries/s.
    pub fn raw_qps(&self) -> f64 {
        stats::median(&self.slice_rates().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Exchange times of one kind (or of both) over every reader, each
    /// divided by the host's slowdown when it completed; ascending, ms.
    pub fn exchange_ms(&self, kind: Option<Kind>) -> Vec<f64> {
        stats::sorted(
            self.readers
                .iter()
                .flat_map(|r| &r.exchanges)
                .filter(|x| kind.is_none_or(|k| k == x.kind))
                .map(|x| x.ms / self.host.slowdown_at(x.at))
                .collect(),
        )
    }

    /// Commit times (due → acknowledged), normalised likewise; ascending, ms.
    pub fn commit_ms(&self) -> Vec<f64> {
        let writer = self.writer.as_ref().expect("a pass with a writer");
        stats::sorted(
            writer
                .commits
                .iter()
                .map(|c| c.ms / self.host.slowdown_at(c.at))
                .collect(),
        )
    }

    /// Operations sent and operations that failed.
    pub fn counts(&self) -> (u64, u64) {
        let mut attempted: u64 = self.readers.iter().map(|r| r.attempted).sum();
        let mut failed: u64 = self.readers.iter().map(|r| r.failed).sum();
        if let Some(w) = &self.writer {
            attempted += w.attempted;
            failed += w.failed;
        }
        (attempted, failed)
    }
}

impl Stack {
    fn warm_up(&mut self) -> Result<(), String> {
        let start = Instant::now();
        let writer = self.writer.as_mut();
        let readers = &mut self.readers;
        std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .iter_mut()
                .map(|(client, traffic)| {
                    scope.spawn(move || {
                        let mut pass = ReaderPass::default();
                        for _ in 0..WARM_EXCHANGES {
                            pass.exchange(client, traffic, start)?;
                        }
                        Ok::<_, String>(pass.failed)
                    })
                })
                .collect();
            let mut failed = 0;
            if let Some(writer) = writer {
                let mut pass = WriterPass::default();
                for _ in 0..WARM_GROUPS {
                    let (group, ops) = writer.next_group();
                    writer.send(&group, &ops, &mut pass)?;
                }
                failed += pass.failed;
            }
            for h in handles {
                failed += h.join().expect("reader thread")?;
            }
            if failed > 0 {
                return Err(format!("{failed} warm-up operations failed"));
            }
            Ok(())
        })
    }

    /// One timed pass of about `length` (a whole number of [`SLICE`]s,
    /// plus the yardstick readings between them): every reader
    /// closed-loop, the writer (if any) paced, all starting together.
    pub fn timed_pass(&mut self, length: Duration) -> Result<Pass, String> {
        let mut host = HostLog::default();
        host.read(0.0);
        let sync = PassSync {
            start: Instant::now(),
            slices: ((length.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(1),
            barrier: Barrier::new(self.readers.len()),
            host: Mutex::new(host),
            done: AtomicBool::new(false),
        };
        let writer = self.writer.as_mut();
        let readers = &mut self.readers;
        let (readers, writer) = std::thread::scope(|scope| {
            let sync = &sync;
            let handles: Vec<_> = readers
                .iter_mut()
                .enumerate()
                .map(|(r, (client, traffic))| {
                    scope.spawn(move || read_slices(client, traffic, sync, r == 0))
                })
                .collect();
            let writer = writer.map(|w| scope.spawn(move || w.paced(sync)));
            // Join everything before looking at any result, so that a
            // failed reader leaves no thread behind.
            let readers: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect();
            let writer = writer.map(|h| h.join().expect("writer thread"));
            let readers = readers.into_iter().collect::<Result<Vec<_>, String>>()?;
            Ok::<_, String>((readers, writer.transpose()?))
        })?;
        Ok(Pass {
            readers,
            writer,
            host: sync.host.into_inner().expect("every reader has returned"),
        })
    }

    /// A reader connection, for checks and single requests between passes.
    pub fn reader(&mut self) -> &mut Client {
        &mut self.readers[0].0
    }

    /// Hangs up, stops the server and hands back the snapshot store
    /// (writable stacks), still un-checkpointed.
    pub fn shut_down(self) -> Option<Arc<Snapshot>> {
        drop(self.readers);
        drop(self.writer);
        self.server.shutdown();
        self.snap
    }
}

/// Folds every published epoch into the base store, syncs it and
/// truncates the WAL, as `commands::serve` does on clean exit.
pub fn checkpoint(snap: &Snapshot) -> Result<(), String> {
    while !snap.checkpoint().map_err(|e| e.to_string())? {
        std::thread::yield_now();
    }
    Ok(())
}

/// Bit-identity gate: the sampled served answers against
/// `batch_points` / `batch_range_sums` on a second handle to the same
/// store. Returns the number of answers that differ.
pub fn oracle_mismatches(ws: &Path, samples: &[(Query, f64)]) -> Result<u64, String> {
    let mut oracle = WsFile::open(ws).map_err(|e| e.to_string())?.store;
    let mut wrong = 0u64;
    for chunk in samples.chunks(EXCHANGE) {
        let mut points = (Vec::new(), Vec::new());
        let mut ranges = (Vec::new(), Vec::new());
        for (query, value) in chunk {
            match query {
                Query::Point { pos } => {
                    points.0.push(pos.clone());
                    points.1.push(*value);
                }
                Query::RangeSum { lo, hi } => {
                    ranges.0.push((lo.clone(), hi.clone()));
                    ranges.1.push(*value);
                }
                Query::Partial { .. } => return Err("generator never sends partial".into()),
            }
        }
        let got_points = ss_query::batch_points(&mut oracle, &LEVELS, &points.0);
        let got_ranges = ss_query::batch_range_sums(&mut oracle, &LEVELS, &ranges.0);
        wrong += got_points
            .iter()
            .zip(&points.1)
            .chain(got_ranges.iter().zip(&ranges.1))
            .filter(|(want, served)| want.to_bits() != served.to_bits())
            .count() as u64;
    }
    Ok(wrong)
}

/// Points the crash gate compares.
const CRASH_POINTS: usize = 1000;

/// Recovery gate: reopen the crash image, replay its WAL as a writable
/// server would on start-up, and compare seeded points with a dense
/// oracle (dataset + every acknowledged group). Returns points that
/// differ by more than 1e-6.
fn crash_mismatches(image: &Path, seed: u64, acked: &[u64]) -> Result<u64, String> {
    let (shared, _) = store::open_shared(image, 1 << 10, WORKERS)?;
    let (_, records, scan) = Wal::open(&store::wal_path(image)).map_err(|e| e.to_string())?;
    if scan.torn_tail || records.len() != acked.len() {
        return Err(format!(
            "crash image holds {} commits (torn tail: {}), {} were acknowledged",
            records.len(),
            scan.torn_tail,
            acked.len()
        ));
    }
    ss_maintain::replay_records(&records, &shared);
    let mut deltas = vec![0.0f64; CELLS];
    for &k in acked {
        gen::add_boxes(&mut deltas, &gen::writer_group(seed, k));
    }
    let mut rng = ss_datagen::SplitMix64::new(seed ^ 0xc4a5);
    let mut handle: &Shared = &shared;
    let mut wrong = 0;
    for _ in 0..CRASH_POINTS {
        let (x, y) = (rng.below(SIDE), rng.below(SIDE));
        let want = gen::cell(seed, x, y) + deltas[x * SIDE + y];
        let got = ss_query::point_standard(&mut handle, &LEVELS, &[x, y]);
        if (got - want).abs() > 1e-6 {
            wrong += 1;
        }
    }
    Ok(wrong)
}

/// Sets a stack up `plan.setups` times, keeping the last; returns it
/// with the median set-up time in seconds, each time divided by the
/// host's slowdown read just before and just after it.
pub fn set_up_repeated(
    scratch: &Scratch,
    workload: Workload,
    plan: &Plan,
) -> Result<(Stack, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..plan.setups {
        if let Some(stack) = kept.take() {
            Stack::shut_down(stack);
        }
        let mut host = HostLog::default();
        host.read(0.0);
        let start = Instant::now();
        kept = Some(set_up(scratch, workload, plan.seed)?);
        let took = start.elapsed().as_secs_f64();
        host.read(took);
        times.push(took / host.slowdown_at(took / 2.0));
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Runs the correctness gates that follow a timed pass and tears the
/// stack down. Adds its checks to `outcome`; returns the `.ws` path of
/// the (checkpointed) store.
pub fn gates_and_teardown(
    scratch: &Scratch,
    workload: Workload,
    mut stack: Stack,
    pass: &Pass,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<PathBuf, String> {
    let (attempted, failed) = pass.counts();
    outcome.attempted += attempted;
    outcome.failed += failed;
    let ws = stack.ws.clone();
    match workload {
        Workload::Hot | Workload::Cold => {
            stack.shut_down();
            let samples: Vec<(Query, f64)> = pass
                .readers
                .iter()
                .flat_map(|r| r.samples.iter().cloned())
                .collect();
            let wrong = oracle_mismatches(&ws, &samples)?;
            outcome.gate(
                wrong == 0,
                wrong,
                format!(
                    "{wrong} of {} sampled answers differ from the oracle",
                    samples.len()
                ),
            );
        }
        Workload::Rw => {
            let side = SIDE - 1;
            let total = stack
                .reader()
                .range_sum(&[0, 0], &[side, side])
                .map_err(|e| e.to_string())?;
            let writer = stack.writer.as_ref().expect("rw stack has a writer");
            let want = gen::dataset_mass(seed) + writer.acked_mass;
            let acked = writer.acked.clone();
            outcome.attempted += 1;
            outcome.gate(
                (total - want).abs() <= 1e-9 * want.abs().max(1.0),
                1,
                format!("served mass {total} but ingested + acknowledged is {want}"),
            );
            // No commit is in flight: the writer thread has returned.
            let image_dir = scratch.subdir("crash").map_err(|e| e.to_string())?;
            // The bytes a crash right now would leave: every commit was
            // fsynced before its acknowledgement. (The copy reads through
            // the OS cache, which a power cut would not have — README.)
            let image = store::copy_store(&ws, &image_dir)?;
            let snap = stack.shut_down().expect("rw stack has a snapshot store");
            checkpoint(&snap)?;
            drop(snap);
            let wrong = crash_mismatches(&image, seed, &acked)?;
            outcome.attempted += CRASH_POINTS as u64;
            outcome.gate(
                wrong == 0,
                wrong,
                format!("{wrong} of {CRASH_POINTS} points wrong after crash-image replay"),
            );
        }
    }
    Ok(ws)
}
