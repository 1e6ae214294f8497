//! The concurrent query server.
//!
//! Thread layout:
//!
//! * one **acceptor** thread owns the listener and spawns a reader/writer
//!   thread pair per connection,
//! * per-connection **readers** parse and validate each line immediately
//!   (errors are answered right away with a typed response) and push valid
//!   requests — already planned into one flat contribution list each —
//!   onto one shared queue, a **burst** at a time: everything a client
//!   pipelined in one write is queued together, with one wake-up,
//! * a fixed pool of **executor** workers drains up to
//!   [`ServeConfig::batch_max`] pending requests per sweep and evaluates
//!   them **tile-major** through [`ss_query::execute_plans_tiled`] (locate
//!   every term, sort by `(tile, slot)`, fold runs): requests that arrived
//!   concurrently from different clients share one fetch of every hot tile.
//!
//! Replies are written straight to the socket under a per-connection
//! mutex (shared by the executors and the reader's error path) — one
//! `write` per sweep and connection, not one per response — and not
//! queued to a writer thread: a response must be **on the wire before it
//! is counted** against the request budget, or a budgeted server could
//! stop — and its process exit — with the final answer still buffered,
//! handing that client an EOF.
//!
//! Shutdown mirrors [`ss_obs`]'s metrics server: a stop flag plus a
//! throwaway self-connection to unblock `accept`. A request budget
//! ([`ServeConfig::max_requests`]) triggers the same path once enough
//! responses have been written, which is how tests and CI smoke runs get a
//! bounded, clean exit; pending queued requests are still answered before
//! the workers park.
//!
//! # Writable serving
//!
//! [`QueryServer::bind_writable`] serves the same protocol over a
//! [`SnapshotCoeffStore`] and additionally accepts `update` / `commit`
//! mutations. Mutations are handled **synchronously on the connection
//! reader** (buffering deltas is cheap and commits must be ordered with
//! the requests around them on the same connection): `update` runs the
//! SHIFT-SPLIT decomposition into a shared [`DeltaBuffer`], `commit`
//! group-commits the buffer as the next epoch through the snapshot
//! store's WAL-backed commit path. Query batches pin one snapshot for the
//! whole batch, so a batch never observes a half-published epoch, and any
//! query parsed after a commit's response pins an epoch at least as new
//! (read-your-writes).

use crate::proto::{self, Mutation, Op, Request, RequestError};
use crate::router::{self, ConnCache, RoutedOutcome, RouterBackend, RouterCore, RouterTopology};
use ss_core::reconstruct::Contributions;
use ss_core::TilingMap;
use ss_maintain::{DeltaBuffer, FlushMode, SnapshotCoeffStore};
use ss_obs::trace::{self, SpanCtx, TraceEventKind};
use ss_obs::{Counter, Histogram};
use ss_storage::{BlockStore, CoeffRead, SharedCoeffStore};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One connection's outbound socket half. Executors and the owning
/// reader's error path write whole response lines under the mutex, so
/// replies from different sources interleave safely — and synchronously:
/// by the time the sender counts the reply toward the request budget,
/// the bytes have already been handed to the kernel. Write errors are
/// ignored (the client hung up; its reader thread is winding down too).
struct ReplyLine {
    out: Mutex<TcpStream>,
}

impl ReplyLine {
    /// Sends `lines` — one response line, or several joined by `\n` —
    /// and the final newline in a single `write`: one segment on the
    /// wire and one wake-up of the client, however many lines.
    fn send(&self, lines: &str) {
        let mut out = self.out.lock().unwrap();
        let _ = out
            .write_all(format!("{lines}\n").as_bytes())
            .and_then(|()| out.flush());
    }
}

/// Server sizing and lifetime knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Executor worker threads draining the shared queue.
    pub workers: usize,
    /// Most requests one executor sweep batches together.
    pub batch_max: usize,
    /// Stop after this many responses (`None` = serve forever).
    pub max_requests: Option<u64>,
    /// Requests at or above this duration hit the slow-request log (a
    /// structured stderr line plus, when tracing is on, a
    /// `slow_request` trace event). `None` disables the log.
    pub slow_ns: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            batch_max: 64,
            max_requests: None,
            slow_ns: None,
        }
    }
}

/// One planned request waiting for an executor: what to evaluate and
/// where the answer goes.
pub(crate) struct Job {
    pub(crate) plan: Contributions,
    pub(crate) route: Route,
}

/// The per-request part of a [`Job`] the answer path needs.
pub(crate) struct Route {
    id: Option<i128>,
    reply: Arc<ReplyLine>,
    enqueued: Instant,
    /// The request's root trace span (inert when untraced), opened on
    /// the connection reader and closed after the reply is sent.
    pub(crate) root: SpanCtx,
    /// Whether the reply must carry the per-tile partial decomposition
    /// (`partial` sub-plans from an upstream router).
    wants_tiles: bool,
}

/// Type-erased mutation sink, so [`State`] stays non-generic. `Ok`
/// carries the response value (deltas buffered for an update, the
/// published epoch for a commit); `Err` carries a protocol error kind
/// plus message.
pub(crate) trait Mutator: Send + Sync {
    fn update(&self, at: &[usize], dims: &[usize], data: Vec<f64>) -> Result<f64, MutErr>;
    fn apply(&self, ops: &[(usize, usize, f64)]) -> Result<f64, MutErr>;
    fn commit(&self) -> Result<f64, MutErr>;
}

pub(crate) type MutErr = (&'static str, String);

/// Buffers one standard-form update box's SHIFT-SPLIT delta stream as one
/// operation; returns the coefficients touched.
pub(crate) fn buffer_box(
    buf: &mut DeltaBuffer,
    map: &impl TilingMap,
    levels: &[u32],
    at: &[usize],
    dims: &[usize],
    data: Vec<f64>,
) -> f64 {
    let delta = ss_array::NdArray::from_vec(ss_array::Shape::new(dims), data);
    buf.add_box_standard(map, levels, at, &delta).coeffs_touched as f64
}

/// Rejects raw `(tile, slot, delta)` ops that fall outside the store
/// geometry — they arrive from the wire.
pub(crate) fn check_ops(map: &impl TilingMap, ops: &[(usize, usize, f64)]) -> Result<(), MutErr> {
    let (tiles, capacity) = (map.num_tiles(), map.block_capacity());
    match ops.iter().find(|op| op.0 >= tiles || op.1 >= capacity) {
        Some(&(tile, slot, _)) => Err((
            "bad_request",
            format!(
                "op ({tile}, {slot}) outside store geometry \
                 ({tiles} tiles x {capacity} slots)"
            ),
        )),
        None => Ok(()),
    }
}

/// Buffers checked raw ops as one operation; returns how many.
pub(crate) fn buffer_ops(buf: &mut DeltaBuffer, ops: &[(usize, usize, f64)]) -> f64 {
    buf.begin_box();
    for &(tile, slot, delta) in ops {
        buf.add(tile, slot, delta);
    }
    ops.len() as f64
}

/// The writable backend: one shared delta buffer feeding a snapshot
/// store. The buffer mutex also serialises commits relative to updates,
/// so a commit drains exactly the updates answered before it.
struct WritableBackend<M: TilingMap, S: BlockStore> {
    store: Arc<SnapshotCoeffStore<M, S>>,
    buffer: Mutex<DeltaBuffer>,
    levels: Vec<u32>,
}

impl<M, S> Mutator for WritableBackend<M, S>
where
    M: TilingMap,
    S: BlockStore + Send + Sync,
{
    fn update(&self, at: &[usize], dims: &[usize], data: Vec<f64>) -> Result<f64, MutErr> {
        let mut buf = self.buffer.lock().unwrap();
        Ok(buffer_box(
            &mut buf,
            self.store.map(),
            &self.levels,
            at,
            dims,
            data,
        ))
    }

    fn apply(&self, ops: &[(usize, usize, f64)]) -> Result<f64, MutErr> {
        check_ops(self.store.map(), ops)?;
        Ok(buffer_ops(&mut self.buffer.lock().unwrap(), ops))
    }

    fn commit(&self) -> Result<f64, MutErr> {
        let mut buf = self.buffer.lock().unwrap();
        match self.store.commit(&mut buf) {
            // Epochs stay far below 2^53 in practice, so the f64 is exact.
            Ok((epoch, _)) => Ok(epoch as f64),
            Err(e) => Err(("io", format!("commit failed: {e}"))),
        }
    }
}

struct Metrics {
    requests_ok: Counter,
    requests_err: Counter,
    requests_slow: Counter,
    batches: Counter,
    request_ns: Histogram,
    batch_size: Histogram,
}

impl Metrics {
    fn resolve() -> Metrics {
        let r = ss_obs::global();
        Metrics {
            requests_ok: r.counter("serve.requests_ok"),
            requests_err: r.counter("serve.requests_err"),
            requests_slow: r.counter("serve.requests_slow"),
            batches: r.counter("serve.batches"),
            request_ns: r.histogram("serve.request_ns"),
            batch_size: r.histogram("serve.batch_size"),
        }
    }
}

/// State shared by the acceptor, readers and executors.
struct State {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    answered: AtomicU64,
    max_requests: Option<u64>,
    addr: SocketAddr,
    levels: Vec<u32>,
    dims: Vec<usize>,
    batch_max: usize,
    metrics: Metrics,
    slow_ns: Option<u64>,
    /// `Some` on writable servers; `None` rejects mutations as `read_only`.
    mutator: Option<Arc<dyn Mutator>>,
}

impl State {
    /// The slow-request log: fires only at/above the configured
    /// threshold — a structured stderr line, a counter, and (when
    /// tracing is on) a `slow_request` event tied to the request's span.
    fn observe_slow(&self, id: Option<i128>, root: &SpanCtx, dur_ns: u64) {
        let Some(threshold_ns) = self.slow_ns else {
            return;
        };
        if dur_ns < threshold_ns {
            return;
        }
        self.metrics.requests_slow.inc();
        trace::tracer().event_for(
            root.trace,
            root.span,
            TraceEventKind::SlowRequest {
                dur_ns,
                threshold_ns,
            },
        );
        eprintln!(
            "slow_request id={} trace={} dur_ms={:.3} threshold_ms={:.3}",
            id.map_or_else(|| "-".to_string(), |i| i.to_string()),
            root.trace,
            dur_ns as f64 / 1e6,
            threshold_ns as f64 / 1e6,
        );
    }

    /// Hands the planned requests of one burst to the executors: one
    /// queue insertion, and one wake-up per sweep's worth of work.
    fn enqueue(&self, burst: &mut Vec<Job>) {
        let sweeps = burst.len().div_ceil(self.batch_max);
        self.queue.lock().unwrap().extend(burst.drain(..));
        (0..sweeps).for_each(|_| self.available.notify_one());
    }

    /// Counts one written response; reaching the budget triggers stop.
    fn count_reply(&self) {
        let n = self.answered.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(max) = self.max_requests {
            if n >= max {
                self.trigger_stop();
            }
        }
    }

    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // An executor reads `stop` under `queue` and then waits. Passing
        // through the mutex puts the store before that read or this
        // notification after the executor is parked; without it a stop
        // landing between the two is a lost wake-up and the join hangs.
        drop(self.queue.lock().unwrap());
        self.available.notify_all();
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A query server running on background threads.
///
/// The handle is deliberately non-generic: the store type is captured by
/// the worker closures, so callers can hold `QueryServer` values of
/// different store types uniformly.
pub struct QueryServer {
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves standard-form queries against `store`, whose per-axis domain
    /// levels are `levels`.
    pub fn bind<M, S>(
        addr: &str,
        store: SharedCoeffStore<M, S>,
        levels: Vec<u32>,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        let (listener, state) = make_state(addr, levels, &config, None)?;
        let store = Arc::new(store);
        let workers = spawn_executors(config.workers, "ss-serve-exec", || {
            let (state, store) = (Arc::clone(&state), Arc::clone(&store));
            move || executor_loop(&state, "serve.exec", |batch| sweep(&mut &*store, batch))
        })?;
        QueryServer::finish(listener, state, workers)
    }

    /// Binds `addr` and serves standard-form queries **and mutations**
    /// against an epoch-versioned snapshot store: `update` buffers box
    /// deltas under `flush_mode`, `commit` publishes them as the next
    /// epoch, and each query batch executes against one pinned snapshot.
    /// The caller keeps a clone of the `Arc` to checkpoint / recover the
    /// store around the server's lifetime.
    pub fn bind_writable<M, S>(
        addr: &str,
        store: Arc<SnapshotCoeffStore<M, S>>,
        levels: Vec<u32>,
        flush_mode: FlushMode,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        let backend = Arc::new(WritableBackend {
            buffer: Mutex::new(DeltaBuffer::for_map(store.map(), flush_mode)),
            levels: levels.clone(),
            store: Arc::clone(&store),
        });
        let (listener, state) = make_state(addr, levels, &config, Some(backend))?;
        // Each batch pins one epoch for all of its queries, so no request
        // can observe a half-published commit, and a request parsed after
        // a commit's response pins an epoch at least as new.
        let workers = spawn_executors(config.workers, "ss-serve-exec", || {
            let (state, store) = (Arc::clone(&state), Arc::clone(&store));
            move || {
                executor_loop(&state, "serve.exec", |batch| {
                    sweep(&mut &store.pin(), batch)
                })
            }
        })?;
        QueryServer::finish(listener, state, workers)
    }

    /// Binds `addr` and serves the same protocol as a **scatter-gather
    /// router** over tile-range shards: the server owns no coefficients
    /// itself. Query plans are split by the owning shard of each
    /// contributing tile (per `topology`'s [`ss_storage::ShardMap`]),
    /// fanned out as `partial` sub-requests to the least-loaded replica
    /// of each shard, and the per-tile partial sums are merged back in
    /// ascending tile order — bit-identical to executing the plan
    /// against one store holding every tile. Mutations are accepted
    /// too: `update` decomposes boxes once at the router under
    /// `flush_mode`, and `commit` scatters the dirty-tile op lists to
    /// the owning shards and fans a commit to every replica (see
    /// [`crate::router`] for the failure semantics).
    ///
    /// `tiling` must describe the same tile space the shards serve;
    /// the call fails if `topology` partitions a different number of
    /// tiles.
    pub fn bind_router<M>(
        addr: &str,
        tiling: M,
        levels: Vec<u32>,
        topology: RouterTopology,
        flush_mode: FlushMode,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + Send + Sync + 'static,
    {
        if topology.shard_map().num_tiles() != tiling.num_tiles() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "topology partitions {} tiles but the tiling has {}",
                    topology.shard_map().num_tiles(),
                    tiling.num_tiles()
                ),
            ));
        }
        let tiling = Arc::new(tiling);
        let core = Arc::new(RouterCore::new(topology));
        let backend = Arc::new(RouterBackend::new(
            Arc::clone(&core),
            Arc::clone(&tiling),
            levels.clone(),
            flush_mode,
        ));
        let (listener, state) = make_state(addr, levels, &config, Some(backend))?;
        // Each worker keeps its own connection cache, so concurrent workers
        // fan out over disjoint sockets (per-replica in-flight counters in
        // `RouterCore` spread them across replicas).
        let workers = spawn_executors(config.workers, "ss-serve-route", || {
            let (state, core, tiling) =
                (Arc::clone(&state), Arc::clone(&core), Arc::clone(&tiling));
            move || {
                let mut conns = ConnCache::new();
                executor_loop(&state, "router.fanout", |batch| {
                    router::execute_routed(&core, tiling.as_ref(), &mut conns, batch)
                })
            }
        })?;
        QueryServer::finish(listener, state, workers)
    }

    fn finish(
        listener: TcpListener,
        state: Arc<State>,
        workers: Vec<JoinHandle<()>>,
    ) -> std::io::Result<QueryServer> {
        let acceptor_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("ss-serve-accept".into())
            .spawn(move || acceptor_loop(&listener, &acceptor_state))?;
        Ok(QueryServer {
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Responses written so far.
    pub fn answered(&self) -> u64 {
        self.state.answered.load(Ordering::Acquire)
    }

    /// Blocks until the server stops on its own (request budget reached),
    /// then joins every server thread and returns the number of responses
    /// written. Blocks forever when no budget was configured.
    pub fn join(mut self) -> u64 {
        self.join_threads();
        self.state.answered.load(Ordering::Acquire)
    }

    /// Stops the server and joins its threads; queued requests are still
    /// answered first. Returns the number of responses written.
    pub fn shutdown(mut self) -> u64 {
        self.state.trigger_stop();
        self.join_threads();
        self.state.answered.load(Ordering::Acquire)
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.state.trigger_stop();
            self.join_threads();
        }
    }
}

fn make_state(
    addr: &str,
    levels: Vec<u32>,
    config: &ServeConfig,
    mutator: Option<Arc<dyn Mutator>>,
) -> std::io::Result<(TcpListener, Arc<State>)> {
    assert!(config.workers >= 1, "server needs at least one worker");
    assert!(config.batch_max >= 1, "batch_max must be at least one");
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let dims = levels.iter().map(|&n| 1usize << n).collect();
    let state = Arc::new(State {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stop: AtomicBool::new(false),
        answered: AtomicU64::new(0),
        max_requests: config.max_requests,
        addr: local,
        levels,
        dims,
        batch_max: config.batch_max,
        metrics: Metrics::resolve(),
        slow_ns: config.slow_ns,
        mutator,
    });
    Ok((listener, state))
}

fn acceptor_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.stopped() {
                    return;
                }
                // Responses are single lines; waiting for an ACK to
                // coalesce them would stall closed-loop clients ~40 ms.
                let _ = stream.set_nodelay(true);
                let conn_state = Arc::clone(state);
                // Reader threads are detached: they exit when the client
                // disconnects (EOF).
                let _ = std::thread::Builder::new()
                    .name("ss-serve-conn".into())
                    .spawn(move || connection_loop(stream, &conn_state));
            }
            Err(_) => return,
        }
    }
}

/// Per-connection reader: parse, validate, plan, enqueue. The outbound
/// half of the socket lives in a shared [`ReplyLine`]; executors and this
/// reader's error path write to it directly.
fn connection_loop(stream: TcpStream, state: &Arc<State>) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reply = Arc::new(ReplyLine {
        out: Mutex::new(writer_stream),
    });
    let mut reader = BufReader::new(stream);
    // The planned queries of the burst being read. They reach the
    // executors together, once no further complete line is buffered, so
    // how a pipelined exchange is cut into sweeps follows from what the
    // client sent, not from who wins a race between this thread and the
    // executors.
    let mut burst: Vec<Job> = Vec::new();
    let mut line = String::new();
    loop {
        if !reader.buffer().contains(&b'\n') {
            state.enqueue(&mut burst);
        }
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) || state.stopped() {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        match parse_and_validate(&line, &state.dims) {
            Err(e) => {
                state.metrics.requests_err.inc();
                reply.send(&proto::err_response(e.id, e.kind, &e.message));
                state.count_reply();
            }
            Ok(Request {
                id,
                op: Op::Query(query),
                trace: trace_id,
            }) => {
                let root = trace::begin_span(request_trace_id(trace_id), 0, "serve.request");
                let plan = {
                    let plan_span = trace::begin_span(root.trace, root.span, "serve.plan");
                    let plan = query.plan(&state.levels);
                    trace::end_span(plan_span);
                    plan
                };
                let job = Job {
                    plan,
                    route: Route {
                        id,
                        reply: Arc::clone(&reply),
                        enqueued: Instant::now(),
                        root,
                        wants_tiles: query.wants_tiles(),
                    },
                };
                burst.push(job);
            }
            // Mutations are answered synchronously on the reader: the
            // response must be on the wire before the next line on this
            // connection is read, so a client that pipelines
            // `update, commit, query` gets read-your-writes.
            Ok(Request {
                id,
                op: Op::Mutation(m),
                trace: trace_id,
            }) => {
                // Queries read before a mutation do not wait for it.
                state.enqueue(&mut burst);
                let root = trace::begin_span(request_trace_id(trace_id), 0, "serve.request");
                let started = Instant::now();
                let outcome = {
                    // The thread-local context makes the WAL / commit /
                    // tile-fetch events of this mutation attach to it.
                    let _in_span = trace::enter(root);
                    match state.mutator.as_deref() {
                        None => Err((
                            "read_only",
                            "this server is read-only (start it writable to accept mutations)"
                                .to_string(),
                        )),
                        Some(mutator) => match m {
                            Mutation::Update { at, dims, data } => {
                                let _s = trace::scoped("serve.update");
                                mutator.update(&at, &dims, data)
                            }
                            Mutation::Apply { ops } => {
                                let _s = trace::scoped("serve.apply");
                                mutator.apply(&ops)
                            }
                            Mutation::Commit => {
                                let _s = trace::scoped("serve.commit");
                                mutator.commit()
                            }
                        },
                    }
                };
                let dur_ns = started.elapsed().as_nanos() as u64;
                match outcome {
                    Ok(value) => {
                        state.metrics.requests_ok.inc();
                        state.metrics.request_ns.record(dur_ns);
                        let echo = root.active().then_some(root.trace);
                        reply.send(&proto::ok_response_traced(id, echo, value));
                    }
                    Err((kind, message)) => {
                        state.metrics.requests_err.inc();
                        reply.send(&proto::err_response(id, kind, &message));
                    }
                }
                state.observe_slow(id, &root, dur_ns);
                trace::end_span(root);
                state.count_reply();
            }
        }
    }
    // A stop cut the burst short: what was planned is still answered.
    state.enqueue(&mut burst);
}

/// The trace id a request runs under: the client's, else a fresh one
/// when tracing is on, else 0 (untraced — every recording call becomes
/// one relaxed load).
fn request_trace_id(client: Option<u64>) -> u64 {
    if !trace::enabled() {
        return 0;
    }
    client.unwrap_or_else(trace::new_trace_id)
}

fn parse_and_validate(line: &str, dims: &[usize]) -> Result<Request, RequestError> {
    let req = proto::parse_request(line)?;
    match &req.op {
        Op::Query(q) => q.validate(dims),
        Op::Mutation(m) => m.validate(dims),
    }
    .map_err(|message| RequestError {
        id: req.id,
        kind: "bad_request",
        message,
    })?;
    Ok(req)
}

/// Spawns `n` named executor threads, each running a fresh `make()` body.
fn spawn_executors<F: FnOnce() + Send + 'static>(
    n: usize,
    name: &str,
    make: impl Fn() -> F,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    (0..n)
        .map(|w| {
            std::thread::Builder::new()
                .name(format!("{name}-{w}"))
                .spawn(make())
        })
        .collect()
}

/// Parks until planned requests are queued, then takes up to `batch_max`
/// of them; `None` once the server is stopped and the queue is drained.
fn next_batch(state: &State) -> Option<Vec<Job>> {
    let mut queue = state.queue.lock().unwrap();
    while queue.is_empty() {
        if state.stopped() {
            return None;
        }
        queue = state.available.wait(queue).unwrap();
    }
    let n = state.batch_max.min(queue.len());
    Some(queue.drain(..n).collect())
}

/// The executor body every backend shares: drain a batch, turn its plans
/// into one outcome per request inside a `span` covering the sweep, and
/// reply. The backends differ only in `run`.
fn executor_loop(
    state: &State,
    span: &'static str,
    mut run: impl FnMut(&[Job]) -> Vec<RoutedOutcome>,
) {
    while let Some(batch) = next_batch(state) {
        // Parented under the batch's **first traced** request: tile
        // fetches (or the shard fan-out) are shared across the batch, so
        // they are attributed to that request's tree (a documented
        // approximation — see DESIGN.md §13).
        let exec = batch
            .iter()
            .map(|job| job.route.root)
            .find(SpanCtx::active)
            .map(|p| trace::begin_span(p.trace, p.span, span))
            .unwrap_or_else(SpanCtx::none);
        let outcomes = {
            let _in_span = trace::enter(exec);
            run(&batch)
        };
        trace::end_span(exec);
        answer(state, &batch, outcomes);
    }
}

/// One tile-major sweep over `source`. Answers are bit-identical to serial
/// execution because [`ss_query::execute_plans_tiled`] fixes the
/// evaluation order from the plans alone.
fn sweep(source: &mut impl CoeffRead, batch: &[Job]) -> Vec<RoutedOutcome> {
    ss_query::execute_plans_tiled(source, batch.iter().map(|job| &job.plan))
        .into_iter()
        .map(|r| Ok((r.value, r.tiles)))
        .collect()
}

/// Replies to one executed batch: per request, the response line, the
/// latency sample, the slow-request check, the root span's end and the
/// reply count. Consecutive replies to one connection leave in **one**
/// `write`: a burst is queued as a unit, so a client is woken once per
/// sweep instead of once per response.
fn answer(state: &State, batch: &[Job], outcomes: Vec<RoutedOutcome>) {
    state.metrics.batches.inc();
    state.metrics.batch_size.record(batch.len() as u64);
    let mut lines = String::new();
    let mut jobs = batch.iter().zip(outcomes).peekable();
    while let Some((Job { route, .. }, outcome)) = jobs.next() {
        let dur_ns = route.enqueued.elapsed().as_nanos() as u64;
        lines += &match outcome {
            Ok((value, tiles)) => {
                state.metrics.request_ns.record(dur_ns);
                state.metrics.requests_ok.inc();
                let echo = route.root.active().then_some(route.root.trace);
                let tiles = route.wants_tiles.then_some(tiles.as_slice());
                proto::ok_response_tiled(route.id, echo, value, tiles)
            }
            Err((kind, message)) => {
                state.metrics.requests_err.inc();
                proto::err_response(route.id, &kind, &message)
            }
        };
        state.observe_slow(route.id, &route.root, dur_ns);
        if jobs
            .peek()
            .is_some_and(|(next, _)| Arc::ptr_eq(&next.route.reply, &route.reply))
        {
            lines.push('\n');
        } else {
            route.reply.send(&lines);
            lines.clear();
        }
    }
    for Job { route, .. } in batch {
        trace::end_span(route.root);
        state.count_reply();
    }
}
