//! The concurrent query server.
//!
//! Two thread roles:
//!
//! * one **acceptor** owns the listener and spawns a thread per
//!   connection,
//! * a **connection** thread does everything for its client. It parses
//!   and validates each line (errors are answered right away with a typed
//!   response), plans valid queries into one contribution list each (a
//!   point or range sum stays its per-axis lists, a `partial` its flat
//!   terms), and collects them a **burst** at a time — everything the
//!   client pipelined in one write. It then executes the burst itself, in
//!   **sweeps** of at most [`ServeConfig::batch_max`] requests evaluated
//!   **tile-major** through [`ss_query::execute_plans_tiled`] (each plan
//!   located once, the sweep's tiles entered once each in ascending
//!   order, every plan folding its members there: the requests of a
//!   sweep share one pool access per tile), and writes each sweep's
//!   replies to its own socket in one `write`.
//!
//! At most [`ServeConfig::workers`] sweeps execute at once: a sweep runs
//! under a permit of a counting semaphore and gives it back **before**
//! its replies are written, so a client that stops reading stalls its own
//! thread and nobody else's. Hot tiles are shared between connections by
//! the buffer pool, not by batching requests across connections.
//!
//! A response is **on the wire before it is counted** against the request
//! budget, or a budgeted server could stop — and its process exit — with
//! the final answer still unwritten, handing that client an EOF.
//!
//! Shutdown mirrors [`ss_obs`]'s metrics server: a stop flag plus a
//! throwaway self-connection to unblock `accept`. A request budget
//! ([`ServeConfig::max_requests`]) triggers the same path once enough
//! responses have been written, which is how tests and CI smoke runs get a
//! bounded, clean exit. Connection threads are detached: one that is
//! mid-burst when the server stops still answers what it has planned, and
//! each exits at its next read or when its client hangs up.
//!
//! # Writable serving
//!
//! [`QueryServer::bind_writable`] serves the same protocol over a
//! [`SnapshotCoeffStore`] and additionally accepts `update` / `commit`
//! mutations. A mutation runs where its line is read, after the queries
//! read before it and before anything read after it (commits must be
//! ordered with the requests around them on the same connection):
//! `update` runs the SHIFT-SPLIT decomposition into a shared
//! [`DeltaBuffer`], `commit` group-commits the buffer as the next epoch
//! through the snapshot store's WAL-backed commit path. A sweep pins one
//! snapshot for all of its queries, so it never observes a half-published
//! epoch, and any query parsed after a commit's response pins an epoch at
//! least as new (read-your-writes).

use crate::proto::{self, Mutation, Op, Request, RequestError};
use ss_core::reconstruct::Contributions;
use ss_core::TilingMap;
use ss_maintain::{DeltaBuffer, FlushMode, SnapshotCoeffStore};
use ss_obs::trace::{self, SpanCtx, TraceEventKind};
use ss_obs::{Counter, Histogram};
use ss_query::PlanTiles;
use ss_storage::{BlockStore, CoeffRead, SharedCoeffStore};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line a connection reads, its newline excluded: far
/// above any real request (an 8 × 8 `update` is about 1.5 KB), and a
/// bound on what a client that never sends `\n` can make its connection
/// buffer. A longer line is answered `too_large` and its connection is
/// closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server sizing and lifetime knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Sweeps that may execute at once, over all connections.
    pub workers: usize,
    /// Most requests one sweep evaluates; a longer pipelined burst is
    /// executed and answered in several sweeps.
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

/// One planned request of the burst its connection thread is collecting.
struct Job {
    plan: Contributions,
    id: Option<i128>,
    planned: Instant,
    /// The request's root trace span (inert when untraced), closed after
    /// the reply is sent.
    root: SpanCtx,
    /// Whether the reply carries the per-tile partial decomposition
    /// (`partial` requests).
    wants_tiles: bool,
}

/// A protocol error kind plus message.
type MutErr = (&'static str, String);

/// What a server answers from. `Ok` of a mutation carries the response
/// value (deltas buffered for an update, the published epoch for a
/// commit); a backend that defines neither is read-only.
trait Backend: Send + Sync {
    /// Evaluates one sweep: each job's exact value plus its per-tile
    /// partials, in order.
    fn sweep(&self, jobs: &[Job]) -> Vec<PlanTiles>;

    fn update(&self, _at: &[usize], _dims: &[usize], _data: Vec<f64>) -> Result<f64, MutErr> {
        Err(read_only())
    }

    fn commit(&self) -> Result<f64, MutErr> {
        Err(read_only())
    }
}

fn read_only() -> MutErr {
    (
        "read_only",
        "this server is read-only (start it writable to accept mutations)".to_string(),
    )
}

/// One tile-major sweep over `source`. Answers are bit-identical to serial
/// execution because [`ss_query::execute_plans_tiled`] fixes the
/// evaluation order from the plans alone.
fn sweep_store(source: &mut impl CoeffRead, jobs: &[Job]) -> Vec<PlanTiles> {
    ss_query::execute_plans_tiled(source, jobs.iter().map(|job| &job.plan))
}

impl<M: TilingMap, S: BlockStore + Send + Sync> Backend for SharedCoeffStore<M, S> {
    fn sweep(&self, jobs: &[Job]) -> Vec<PlanTiles> {
        sweep_store(&mut &*self, jobs)
    }
}

/// The writable backend: one shared delta buffer feeding a snapshot
/// store. The buffer mutex also serialises commits relative to updates,
/// so a commit drains exactly the updates answered before it.
struct WritableBackend<M: TilingMap, S: BlockStore> {
    store: Arc<SnapshotCoeffStore<M, S>>,
    buffer: Mutex<DeltaBuffer>,
    levels: Vec<u32>,
}

impl<M: TilingMap, S: BlockStore + Send + Sync> Backend for WritableBackend<M, S> {
    /// Pins one epoch for all of the sweep's queries, so no request can
    /// observe a half-published commit, and a request parsed after a
    /// commit's response pins an epoch at least as new.
    fn sweep(&self, jobs: &[Job]) -> Vec<PlanTiles> {
        sweep_store(&mut &self.store.pin(), jobs)
    }

    /// Buffers the box's SHIFT-SPLIT delta stream as one operation;
    /// answers the coefficients touched.
    fn update(&self, at: &[usize], dims: &[usize], data: Vec<f64>) -> Result<f64, MutErr> {
        let delta = ss_array::NdArray::from_vec(ss_array::Shape::new(dims), data);
        let mut buf = self.buffer.lock().unwrap();
        let touched = buf.add_box_standard(self.store.map(), &self.levels, at, &delta);
        Ok(touched.coeffs_touched as f64)
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

/// The counting semaphore behind [`ServeConfig::workers`].
struct Permits {
    free: Mutex<usize>,
    released: Condvar,
}

/// One of the permits, given back on drop.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn acquire(&self) -> Permit<'_> {
        let free = self.free.lock().unwrap();
        let mut free = self.released.wait_while(free, |n| *n == 0).unwrap();
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // A poisoned count is still a count: every update is one `+=`.
        *self.0.free.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.0.released.notify_one();
    }
}

/// State shared by the acceptor and the connection threads.
struct State {
    backend: Box<dyn Backend>,
    permits: Permits,
    stop: AtomicBool,
    answered: AtomicU64,
    max_requests: Option<u64>,
    addr: SocketAddr,
    levels: Vec<u32>,
    dims: Vec<usize>,
    batch_max: usize,
    metrics: Metrics,
    slow_ns: Option<u64>,
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

    /// Counts `n` written responses; reaching the budget triggers stop.
    fn count_replies(&self, n: u64) {
        let total = self.answered.fetch_add(n, Ordering::AcqRel) + n;
        if let Some(max) = self.max_requests {
            if total >= max {
                self.trigger_stop();
            }
        }
    }

    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A query server running on background threads.
///
/// The handle is deliberately non-generic: the store type is erased
/// behind the backend, so callers can hold `QueryServer` values of
/// different store types uniformly.
pub struct QueryServer {
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
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
        QueryServer::start(addr, levels, config, Box::new(store))
    }

    /// Binds `addr` and serves standard-form queries **and mutations**
    /// against an epoch-versioned snapshot store: `update` buffers box
    /// deltas, `commit` publishes them as the next epoch, and each sweep
    /// executes against one pinned snapshot. The caller keeps a clone of
    /// the `Arc` to checkpoint / recover the store around the server's
    /// lifetime. `_mode` is always [`FlushMode::Exact`], kept for source
    /// compatibility.
    pub fn bind_writable<M, S>(
        addr: &str,
        store: Arc<SnapshotCoeffStore<M, S>>,
        levels: Vec<u32>,
        _mode: FlushMode,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        let backend = WritableBackend {
            buffer: Mutex::new(DeltaBuffer::new()),
            levels: levels.clone(),
            store,
        };
        QueryServer::start(addr, levels, config, Box::new(backend))
    }

    fn start(
        addr: &str,
        levels: Vec<u32>,
        config: ServeConfig,
        backend: Box<dyn Backend>,
    ) -> std::io::Result<QueryServer> {
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(config.batch_max >= 1, "batch_max must be at least one");
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(State {
            backend,
            permits: Permits {
                free: Mutex::new(config.workers),
                released: Condvar::new(),
            },
            stop: AtomicBool::new(false),
            answered: AtomicU64::new(0),
            max_requests: config.max_requests,
            addr: listener.local_addr()?,
            dims: levels.iter().map(|&n| 1usize << n).collect(),
            levels,
            batch_max: config.batch_max,
            metrics: Metrics::resolve(),
            slow_ns: config.slow_ns,
        });
        let acceptor_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("ss-serve-accept".into())
            .spawn(move || acceptor_loop(&listener, &acceptor_state))?;
        Ok(QueryServer {
            state,
            acceptor: Some(acceptor),
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
    /// then joins the acceptor and returns the number of responses
    /// written. Blocks forever when no budget was configured.
    pub fn join(mut self) -> u64 {
        self.join_acceptor();
        self.answered()
    }

    /// Stops accepting and joins the acceptor; a connection that is
    /// mid-burst still answers it. Returns the number of responses
    /// written so far.
    pub fn shutdown(mut self) -> u64 {
        self.state.trigger_stop();
        self.join_acceptor();
        self.answered()
    }

    fn join_acceptor(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.state.trigger_stop();
            self.join_acceptor();
        }
    }
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
                // Connection threads are detached: they exit when the
                // client disconnects (EOF).
                let _ = std::thread::Builder::new()
                    .name("ss-serve-conn".into())
                    .spawn(move || connection_loop(stream, &conn_state));
            }
            Err(_) => return,
        }
    }
}

/// Hands whole response lines — one, or several joined by `\n` — and the
/// final newline to the kernel in a single `write`: one segment on the
/// wire and one wake-up of the client, however many lines. Write errors
/// are ignored (the client hung up; this thread's next read ends it).
fn send(mut out: &TcpStream, mut lines: String) {
    lines.push('\n');
    let _ = out.write_all(lines.as_bytes());
}

/// Closes a connection after its final reply: stops writing, so the reply
/// is followed by a clean end of stream, then reads and drops at most
/// [`MAX_LINE_BYTES`] more of what the client sends (each read waits at
/// most a second), so that the client's write in flight completes and
/// unread input does not turn the close into a reset.
fn close_lingering(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = std::io::copy(
        &mut stream.take(MAX_LINE_BYTES as u64),
        &mut std::io::sink(),
    );
}

/// One connection, start to finish: parse, validate, plan, execute,
/// reply.
fn connection_loop(stream: TcpStream, state: &State) {
    let mut reader = BufReader::new(stream);
    // The planned queries of the burst being read. They are executed
    // together, once no further complete line is buffered, so how a
    // pipelined exchange is cut into sweeps follows from what the client
    // sent and from `batch_max`, never from timing.
    let mut burst: Vec<Job> = Vec::new();
    let mut bytes = Vec::new();
    loop {
        if !reader.buffer().contains(&b'\n') {
            run_burst(state, reader.get_ref(), &mut burst);
        }
        bytes.clear();
        let read = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut bytes);
        if !matches!(read, Ok(n) if n > 0) || state.stopped() {
            break;
        }
        if bytes.len() > MAX_LINE_BYTES && bytes.last() != Some(&b'\n') {
            run_burst(state, reader.get_ref(), &mut burst);
            state.metrics.requests_err.inc();
            let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
            send(
                reader.get_ref(),
                proto::err_response(None, "too_large", &message),
            );
            state.count_replies(1);
            close_lingering(reader.get_ref());
            return;
        }
        // A line that is not UTF-8 ends the connection.
        let Ok(line) = std::str::from_utf8(&bytes) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_and_validate(line, &state.dims) {
            Err(e) => {
                state.metrics.requests_err.inc();
                send(
                    reader.get_ref(),
                    proto::err_response(e.id, e.kind, &e.message),
                );
                state.count_replies(1);
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
                burst.push(Job {
                    plan,
                    id,
                    planned: Instant::now(),
                    root,
                    wants_tiles: query.wants_tiles(),
                });
            }
            // A mutation's response is on the wire before the next line
            // on this connection is read, so a client that pipelines
            // `update, commit, query` gets read-your-writes.
            Ok(Request {
                id,
                op: Op::Mutation(m),
                trace: trace_id,
            }) => {
                // Queries read before a mutation do not see it.
                run_burst(state, reader.get_ref(), &mut burst);
                let root = trace::begin_span(request_trace_id(trace_id), 0, "serve.request");
                let started = Instant::now();
                let outcome = {
                    // The thread-local context makes the WAL / commit /
                    // tile-fetch events of this mutation attach to it.
                    let _in_span = trace::enter(root);
                    match m {
                        Mutation::Update { at, dims, data } => {
                            let _s = trace::scoped("serve.update");
                            state.backend.update(&at, &dims, data)
                        }
                        Mutation::Commit => {
                            let _s = trace::scoped("serve.commit");
                            state.backend.commit()
                        }
                    }
                };
                let dur_ns = started.elapsed().as_nanos() as u64;
                let reply = match outcome {
                    Ok(value) => {
                        state.metrics.requests_ok.inc();
                        state.metrics.request_ns.record(dur_ns);
                        let echo = root.active().then_some(root.trace);
                        let mut line = String::new();
                        proto::write_ok_response(&mut line, id, echo, value, None);
                        line
                    }
                    Err((kind, message)) => {
                        state.metrics.requests_err.inc();
                        proto::err_response(id, kind, &message)
                    }
                };
                send(reader.get_ref(), reply);
                state.observe_slow(id, &root, dur_ns);
                trace::end_span(root);
                state.count_replies(1);
            }
        }
    }
    // A stop cut the burst short: what was planned is still answered.
    run_burst(state, reader.get_ref(), &mut burst);
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

/// Executes and answers a burst, `batch_max` requests at a time.
fn run_burst(state: &State, out: &TcpStream, burst: &mut Vec<Job>) {
    for jobs in burst.chunks(state.batch_max) {
        let permit = state.permits.acquire();
        // Parented under the sweep's **first traced** request: tile
        // fetches are shared across the sweep, so
        // they are attributed to that request's tree (a documented
        // approximation — see DESIGN.md §13).
        let exec = jobs
            .iter()
            .map(|job| job.root)
            .find(SpanCtx::active)
            .map(|p| trace::begin_span(p.trace, p.span, "serve.exec"))
            .unwrap_or_else(SpanCtx::none);
        let answers = {
            let _in_span = trace::enter(exec);
            state.backend.sweep(jobs)
        };
        trace::end_span(exec);
        // Before the write: a client that has stopped reading must stall
        // this thread only, not a sweep slot.
        drop(permit);
        answer(state, out, jobs, answers);
    }
    burst.clear();
}

/// Replies to one executed sweep: per request, the response line, the
/// latency sample, the slow-request check and the root span's end; per
/// sweep, the `requests_ok` and reply counts, so the connection threads
/// share those counters once per sweep instead of once per response. The
/// lines leave in **one** `write`, so a client is woken once per sweep
/// instead of once per response.
fn answer(state: &State, out: &TcpStream, jobs: &[Job], answers: Vec<PlanTiles>) {
    state.metrics.batches.inc();
    state.metrics.batch_size.record(jobs.len() as u64);
    let mut lines = String::new();
    for (job, answer) in jobs.iter().zip(answers) {
        if !lines.is_empty() {
            lines.push('\n');
        }
        let dur_ns = job.planned.elapsed().as_nanos() as u64;
        state.metrics.request_ns.record(dur_ns);
        let echo = job.root.active().then_some(job.root.trace);
        let tiles = job.wants_tiles.then_some(answer.tiles.as_slice());
        proto::write_ok_response(&mut lines, job.id, echo, answer.value, tiles);
        state.observe_slow(job.id, &job.root, dur_ns);
    }
    state.metrics.requests_ok.add(jobs.len() as u64);
    send(out, lines);
    for job in jobs {
        trace::end_span(job.root);
    }
    state.count_replies(jobs.len() as u64);
}
