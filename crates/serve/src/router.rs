//! Scatter-gather query routing over tile-range shards.
//!
//! A **router** is a [`QueryServer`](crate::QueryServer) (see
//! [`bind_router`](crate::QueryServer::bind_router)) that owns no
//! coefficients itself. Tile space is partitioned by a
//! [`ShardMap`] into contiguous Morton tile
//! ranges, each served by `replicas` identical shard servers speaking
//! the same line-JSON protocol. The router:
//!
//! * splits every query plan by owning shard and fans the pieces out as
//!   `partial` sub-requests — **scattering to every shard before
//!   reading from any**, so shard round trips overlap,
//! * merges the per-tile partial sums back in ascending tile order,
//!   which reproduces the canonical evaluation order of
//!   [`ss_query::execute_plans_tiled`] **bit-identically** (the shard
//!   ranges are contiguous, so concatenating their tile-ascending
//!   partials in ascending shard order is globally tile-ascending),
//! * load-balances reads across a shard's replicas by picking the
//!   replica with the fewest router-side in-flight exchanges, and fails
//!   over to the next replica on connection errors,
//! * scatters writes: `update` boxes are decomposed once at the router,
//!   buffered, and on `commit` the dirty-tile op lists are sent to the
//!   owning shards as `apply` sub-requests followed by a fanned-out
//!   `commit` to **every replica of every shard** — acknowledged only
//!   when all of them committed (fsynced their WAL).
//!
//! When every replica of a shard a request needs is unreachable, the
//! request fails with the typed `shard_unavailable` error. A partial
//! sum is never returned: a silently wrong answer is strictly worse
//! than a refused one.
//!
//! There is **no cross-shard commit protocol** (no 2PC): a routed
//! commit that fails mid-fan-out may leave some shards committed and
//! others not, and the router's delta buffer drained. The error is
//! surfaced as `shard_unavailable`; recovery is operational (retry the
//! whole load, or re-run maintenance). DESIGN.md §16 spells out the
//! trade-off.

use crate::client::{Client, ClientError};
use crate::proto::{Mutation, Op, Query, Response};
use crate::server::{self, Backend, Job, MutErr, Outcome};
use ss_core::reconstruct::Contributions;
use ss_core::runs::TileRuns;
use ss_core::TilingMap;
use ss_maintain::DeltaBuffer;
use ss_obs::trace;
use ss_obs::{Counter, Histogram};
use ss_storage::ShardMap;
use std::cell::RefCell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Where each shard's replicas listen: the [`ShardMap`] partition plus
/// one address list per shard (all lists `map.replicas()` long).
#[derive(Clone, Debug)]
pub struct RouterTopology {
    map: ShardMap,
    replicas: Vec<Vec<SocketAddr>>,
}

impl RouterTopology {
    /// Pairs a shard map with replica addresses. `replicas` must hold
    /// one list per shard, each exactly `map.replicas()` long.
    pub fn new(map: ShardMap, replicas: Vec<Vec<SocketAddr>>) -> Result<RouterTopology, String> {
        if replicas.len() != map.shards() {
            return Err(format!(
                "topology has {} address lists for {} shards",
                replicas.len(),
                map.shards()
            ));
        }
        for (shard, addrs) in replicas.iter().enumerate() {
            if addrs.len() != map.replicas() {
                return Err(format!(
                    "shard {shard} has {} replica addresses, expected {}",
                    addrs.len(),
                    map.replicas()
                ));
            }
        }
        Ok(RouterTopology { map, replicas })
    }

    /// The tile-range partition.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The replica addresses of `shard`.
    pub fn replica_addrs(&self, shard: usize) -> &[SocketAddr] {
        &self.replicas[shard]
    }
}

/// Router-side observability (`router.*` namespace).
pub(crate) struct RouterMetrics {
    /// Sub-requests fanned out to shard replicas (reads and writes).
    subrequests: Counter,
    /// Failed replica exchanges that moved on to another replica.
    replica_retries: Counter,
    /// Requests refused because every replica of a needed shard failed.
    shard_unavailable: Counter,
    /// Shards touched per routed read batch.
    fanout_shards: Histogram,
    /// Sub-requests routed to each shard (`router.shard_requests.N`),
    /// the per-shard line of the `stats --watch` topology section.
    shard_subrequests: Vec<Counter>,
}

/// Shared router state: the topology, per-replica in-flight exchange
/// counters (the read load-balancing signal), and `router.*` metrics.
/// Connections are deliberately **not** here — each connection thread
/// keeps its own cache ([`READ_CONNS`]) so the fan-out path takes no lock.
struct RouterCore {
    topo: RouterTopology,
    in_flight: Vec<Vec<AtomicUsize>>,
    metrics: RouterMetrics,
}

/// Open shard connections, indexed `[shard][replica]` (sized on first
/// use). A `None` entry reconnects on next use.
type ConnCache = Vec<Vec<Option<Client>>>;

thread_local! {
    /// The shard connections a client connection's thread reads over:
    /// concurrent sweeps fan out over disjoint sockets (the per-replica
    /// in-flight counters spread them across replicas), and the sockets
    /// close with the client connection.
    static READ_CONNS: RefCell<ConnCache> = RefCell::default();
}

impl RouterCore {
    fn new(topo: RouterTopology) -> RouterCore {
        let r = ss_obs::global();
        r.gauge("router.shards").set(topo.map.shards() as u64);
        r.gauge("router.replicas").set(topo.map.replicas() as u64);
        let shards = topo.map.shards();
        let in_flight = (0..shards)
            .map(|_| {
                (0..topo.map.replicas())
                    .map(|_| AtomicUsize::new(0))
                    .collect()
            })
            .collect();
        let metrics = RouterMetrics {
            subrequests: r.counter("router.subrequests"),
            replica_retries: r.counter("router.replica_retries"),
            shard_unavailable: r.counter("router.shard_unavailable"),
            fanout_shards: r.histogram("router.fanout_shards"),
            shard_subrequests: (0..shards)
                .map(|s| r.counter(&format!("router.shard_requests.{s}")))
                .collect(),
        };
        RouterCore {
            topo,
            in_flight,
            metrics,
        }
    }

    /// The untried replica of `shard` with the fewest in-flight
    /// exchanges (ties to the lowest index).
    fn pick_replica(&self, shard: usize, tried: &[bool]) -> Option<usize> {
        (0..self.topo.map.replicas())
            .filter(|&r| !tried[r])
            .min_by_key(|&r| self.in_flight[shard][r].load(Ordering::Relaxed))
    }

    /// Connects (or reuses a cached connection) and sends one pipelined
    /// exchange to `(shard, replica)`. On success the replica's
    /// in-flight counter is incremented until the matching
    /// [`finish_recv`](RouterCore::finish_recv).
    fn start_send(
        &self,
        conns: &mut ConnCache,
        shard: usize,
        replica: usize,
        items: &[(Op, Option<u64>)],
    ) -> Result<i128, String> {
        if conns.is_empty() {
            let replicas = self.topo.map.replicas();
            conns.resize_with(self.topo.map.shards(), || {
                (0..replicas).map(|_| None).collect()
            });
        }
        let conn = &mut conns[shard][replica];
        let client = match conn {
            Some(client) => client,
            None => {
                let addr = self.topo.replicas[shard][replica];
                conn.insert(
                    Client::connect(addr)
                        .map_err(|err| format!("replica {replica} ({addr}): connect: {err}"))?,
                )
            }
        };
        match client.send_ops(items) {
            Ok(first_id) => {
                self.in_flight[shard][replica].fetch_add(1, Ordering::Relaxed);
                Ok(first_id)
            }
            Err(e) => {
                *conn = None;
                Err(format!("replica {replica}: send: {e}"))
            }
        }
    }

    /// Reads the responses of an exchange started by
    /// [`start_send`](RouterCore::start_send), releasing the in-flight
    /// slot either way. A failed read poisons the pipelined connection,
    /// so it is dropped from the cache.
    fn finish_recv(
        &self,
        conns: &mut ConnCache,
        shard: usize,
        replica: usize,
        first_id: i128,
        count: usize,
    ) -> Result<Vec<Response>, String> {
        let conn = &mut conns[shard][replica];
        let result = conn
            .as_mut()
            .expect("exchange in flight on a cached connection")
            .recv_responses(first_id, count);
        self.in_flight[shard][replica].fetch_sub(1, Ordering::Relaxed);
        result.map_err(|e: ClientError| {
            *conn = None;
            format!("replica {replica}: recv: {e}")
        })
    }

    /// Puts `ex` on the wire to the least-loaded replica of `shard` it has
    /// not tried, moving on while sends fail. The one replica-failover
    /// loop: [`recv`](RouterCore::recv) re-enters it when a read fails.
    fn send(&self, conns: &mut ConnCache, shard: usize, ex: &mut Exchange) {
        while let Some(replica) = self.pick_replica(shard, &ex.tried) {
            ex.tried[replica] = true;
            match self.start_send(conns, shard, replica, &ex.items) {
                Ok(first_id) => {
                    ex.sent = Ok((replica, first_id));
                    return;
                }
                Err(e) => {
                    self.metrics.replica_retries.inc();
                    ex.sent = Err(e);
                }
            }
        }
    }

    /// Reads `ex`'s responses; a failed read re-sends to the replicas not
    /// tried yet. The last error once every replica has failed.
    fn recv(
        &self,
        conns: &mut ConnCache,
        shard: usize,
        ex: &mut Exchange,
    ) -> Result<Vec<Response>, String> {
        loop {
            let (replica, first_id) = ex.sent.clone()?;
            match self.finish_recv(conns, shard, replica, first_id, ex.items.len()) {
                Ok(responses) => return Ok(responses),
                Err(e) => {
                    self.metrics.replica_retries.inc();
                    ex.sent = Err(e);
                    self.send(conns, shard, ex);
                }
            }
        }
    }
}

/// One shard's part of a routed sweep: its `partial` sub-requests, the
/// sweep-local index of the job each answers, the replicas tried, and the
/// `(replica, first id)` the exchange is on the wire with — or the last
/// error.
struct Exchange {
    items: Vec<(Op, Option<u64>)>,
    jobs: Vec<usize>,
    tried: Vec<bool>,
    sent: Result<(usize, i128), String>,
}

/// Executes one sweep of planned requests by scatter-gather: split each
/// plan by owning shard, fan `partial` sub-requests out (all sends
/// before any read), fail over across replicas, and merge the per-tile
/// partials back in ascending tile order. Each job's own trace id is
/// forwarded with its sub-requests, so shard-side spans land under the
/// originating request's trace. All state is indexed by shard, so every
/// loop below runs in ascending shard order, which the exact merge
/// relies on.
fn execute_routed<M: TilingMap>(
    core: &RouterCore,
    tiling: &M,
    conns: &mut ConnCache,
    jobs: &[Job],
) -> Vec<Outcome> {
    // --- Split every plan straight into per-shard plans, each keeping
    // the plan's term order.
    let map = &core.topo.map;
    let mut shards: Vec<Exchange> = (0..map.shards())
        .map(|_| Exchange {
            items: Vec::new(),
            jobs: Vec::new(),
            tried: vec![false; map.replicas()],
            // Replaced by the first send: a shard has at least one replica.
            sent: Err(String::new()),
        })
        .collect();
    let mut parts: Vec<Option<Contributions>> = vec![None; map.shards()];
    for (j, job) in jobs.iter().enumerate() {
        job.plan.for_each_term(|idx, w| {
            let shard = map.owner(tiling.locate(idx).tile);
            parts[shard]
                .get_or_insert_with(|| Contributions::with_capacity(idx.len(), 0))
                .push(idx, w);
        });
        let fwd_trace = job.root.active().then_some(job.root.trace);
        for (ex, part) in shards.iter_mut().zip(&mut parts) {
            if let Some(plan) = part.take() {
                ex.items
                    .push((Op::Query(Query::Partial { plan }), fwd_trace));
                ex.jobs.push(j);
            }
        }
    }
    let touched = shards.iter().filter(|ex| !ex.jobs.is_empty()).count();
    if touched > 0 {
        core.metrics.fanout_shards.record(touched as u64);
    }

    // --- Scatter: put every shard's sub-requests on the wire before
    // reading any response, so shard round trips overlap.
    for (shard, ex) in shards.iter_mut().enumerate() {
        if !ex.jobs.is_empty() {
            core.metrics.subrequests.add(ex.items.len() as u64);
            core.metrics.shard_subrequests[shard].add(ex.items.len() as u64);
            core.send(conns, shard, ex);
        }
    }

    // --- Gather and merge: fold each job's per-tile partials from 0.0,
    // shard by shard in ascending order (globally ascending tile order,
    // since shard ranges are contiguous) — the same addition tree
    // `execute_plans_tiled` builds on a single store, hence bit-identical
    // for every shard count. A job's first failing shard, lowest first,
    // is its error.
    let mut out: Vec<Outcome> = vec![Ok((0.0, Vec::new())); jobs.len()];
    for (shard, ex) in shards.iter_mut().enumerate() {
        if ex.jobs.is_empty() {
            continue;
        }
        let responses = match core.recv(conns, shard, ex) {
            Ok(responses) => responses,
            Err(msg) => {
                core.metrics.shard_unavailable.inc();
                for &j in &ex.jobs {
                    if out[j].is_ok() {
                        let msg = format!("shard {shard}: {msg}");
                        out[j] = Err(("shard_unavailable".to_string(), msg));
                    }
                }
                continue;
            }
        };
        for (&j, resp) in ex.jobs.iter().zip(responses) {
            let Ok((value, tiles)) = &mut out[j] else {
                continue;
            };
            match (resp.result, resp.tiles) {
                (Err((kind, msg)), _) => out[j] = Err((kind, format!("shard {shard}: {msg}"))),
                (Ok(_), None) => {
                    let msg = format!("shard {shard} answered without per-tile partials");
                    out[j] = Err(("io".to_string(), msg));
                }
                (Ok(_), Some(parts)) => {
                    for (tile, partial) in parts {
                        *value += partial;
                        tiles.push((tile, partial));
                    }
                }
            }
        }
    }
    out
}

/// The router's write path: boxes are decomposed **once** at the router
/// into a local [`DeltaBuffer`]; `commit` drains it, scatters each dirty
/// tile's runs to the owning shard as `apply` sub-requests,
/// and fans a `commit` to every replica of every shard. One mutex over
/// `{buffer, connections}` serialises commits against updates, exactly
/// like the single-store writable backend.
pub(crate) struct RouterBackend<M: TilingMap> {
    core: RouterCore,
    tiling: M,
    levels: Vec<u32>,
    write: Mutex<WriteState>,
}

struct WriteState {
    buffer: DeltaBuffer,
    conns: ConnCache,
}

impl<M: TilingMap> RouterBackend<M> {
    pub(crate) fn new(topology: RouterTopology, tiling: M, levels: Vec<u32>) -> RouterBackend<M> {
        RouterBackend {
            core: RouterCore::new(topology),
            tiling,
            levels,
            write: Mutex::new(WriteState {
                buffer: DeltaBuffer::new(),
                conns: ConnCache::new(),
            }),
        }
    }

    /// Fans `[apply?, commit]` to every replica of every shard —
    /// scatter first, then gather — and counts acknowledgements. Each
    /// shard's runs move whole into its one `apply`. Any failure aborts
    /// with the offending replica's error; the caller drops all write
    /// connections (pipelines may hold unread bytes).
    fn scatter_commit(
        &self,
        conns: &mut ConnCache,
        per_shard: Vec<TileRuns>,
        fwd_trace: Option<u64>,
    ) -> Result<u64, String> {
        let replicas = self.core.topo.map.replicas();
        let items_by_shard: Vec<Vec<(Op, Option<u64>)>> = per_shard
            .into_iter()
            .map(|runs| {
                let mut items = Vec::with_capacity(2);
                if !runs.is_empty() {
                    items.push((Op::Mutation(Mutation::Apply { runs }), fwd_trace));
                }
                items.push((Op::Mutation(Mutation::Commit), fwd_trace));
                items
            })
            .collect();
        let mut sent: Vec<(usize, usize, i128)> =
            Vec::with_capacity(items_by_shard.len() * replicas);
        for (shard, items) in items_by_shard.iter().enumerate() {
            for replica in 0..replicas {
                self.core.metrics.subrequests.add(items.len() as u64);
                self.core.metrics.shard_subrequests[shard].add(items.len() as u64);
                let first_id = self
                    .core
                    .start_send(conns, shard, replica, items)
                    .map_err(|e| format!("shard {shard}: {e}"))?;
                sent.push((shard, replica, first_id));
            }
        }
        let mut acks = 0u64;
        for (shard, replica, first_id) in sent {
            let responses = self
                .core
                .finish_recv(conns, shard, replica, first_id, items_by_shard[shard].len())
                .map_err(|e| format!("shard {shard}: {e}"))?;
            for resp in responses {
                resp.result.map_err(|(kind, msg)| {
                    format!("shard {shard} replica {replica}: {kind}: {msg}")
                })?;
            }
            acks += 1;
        }
        Ok(acks)
    }
}

impl<M: TilingMap> Backend for RouterBackend<M> {
    fn sweep(&self, jobs: &[Job]) -> Vec<Outcome> {
        READ_CONNS.with_borrow_mut(|conns| execute_routed(&self.core, &self.tiling, conns, jobs))
    }

    fn update(&self, at: &[usize], dims: &[usize], data: Vec<f64>) -> Result<f64, MutErr> {
        let mut w = self.write.lock().unwrap();
        Ok(server::buffer_box(
            &mut w.buffer,
            &self.tiling,
            &self.levels,
            at,
            dims,
            data,
        ))
    }

    fn apply(&self, runs: &TileRuns) -> Result<f64, MutErr> {
        server::check_ops(&self.tiling, runs)?;
        Ok(server::buffer_ops(
            &mut self.write.lock().unwrap().buffer,
            runs,
        ))
    }

    fn commit(&self) -> Result<f64, MutErr> {
        let fwd_trace = {
            let (t, _) = trace::current();
            (t != 0).then_some(t)
        };
        let mut w = self.write.lock().unwrap();
        let w = &mut *w;
        // The drain is grouped by ascending tile and shard ranges are
        // contiguous, so each shard's runs are one contiguous slice of it.
        let map = &self.core.topo.map;
        let mut per_shard = vec![TileRuns::default(); map.shards()];
        // A buffered box's runs are written out here, through its walk.
        let (drained, _) = w.buffer.drain();
        drained.for_each_run(|tile, run| per_shard[map.owner(tile)].extend(tile, run));
        let _span = trace::scoped("router.commit_fanout");
        match self.scatter_commit(&mut w.conns, per_shard, fwd_trace) {
            // Acks stay far below 2^53, so the f64 is exact.
            Ok(acks) => Ok(acks as f64),
            Err(msg) => {
                // A failed pipelined exchange may leave unread bytes on
                // other connections of this cache; reconnect fresh.
                w.conns.clear();
                self.core.metrics.shard_unavailable.inc();
                Err(("shard_unavailable", msg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_validates_shape() {
        let map = ShardMap::even(16, 2, 2).unwrap();
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(RouterTopology::new(map.clone(), vec![vec![addr; 2]; 2]).is_ok());
        assert!(RouterTopology::new(map.clone(), vec![vec![addr; 2]]).is_err());
        assert!(RouterTopology::new(map, vec![vec![addr; 1]; 2]).is_err());
    }
}
