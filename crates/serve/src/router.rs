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
use ss_core::TilingMap;
use ss_maintain::{DeltaBuffer, FlushMode};
use ss_obs::trace;
use ss_obs::{Counter, Histogram};
use ss_storage::ShardMap;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
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

/// A cache of open shard connections, keyed by `(shard, replica)`.
/// Dropped entries reconnect on next use.
type ConnCache = HashMap<(usize, usize), Client>;

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
        let key = (shard, replica);
        let client = match conns.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let addr = self.topo.replicas[shard][replica];
                let client = Client::connect(addr)
                    .map_err(|err| format!("replica {replica} ({addr}): connect: {err}"))?;
                e.insert(client)
            }
        };
        match client.send_ops(items) {
            Ok(first_id) => {
                self.in_flight[shard][replica].fetch_add(1, Ordering::Relaxed);
                Ok(first_id)
            }
            Err(e) => {
                conns.remove(&key);
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
        let key = (shard, replica);
        let result = conns
            .get_mut(&key)
            .expect("exchange in flight on a cached connection")
            .recv_responses(first_id, count);
        self.in_flight[shard][replica].fetch_sub(1, Ordering::Relaxed);
        result.map_err(|e: ClientError| {
            conns.remove(&key);
            format!("replica {replica}: recv: {e}")
        })
    }

    /// One full send+recv exchange against `shard`, failing over across
    /// replicas marked untried in `tried`. Returns the last error once
    /// every replica has been tried.
    fn exchange_sync(
        &self,
        conns: &mut ConnCache,
        shard: usize,
        items: &[(Op, Option<u64>)],
        tried: &mut [bool],
        mut last_err: String,
    ) -> Result<Vec<Response>, String> {
        while let Some(replica) = self.pick_replica(shard, tried) {
            tried[replica] = true;
            match self
                .start_send(conns, shard, replica, items)
                .and_then(|first_id| self.finish_recv(conns, shard, replica, first_id, items.len()))
            {
                Ok(responses) => return Ok(responses),
                Err(e) => {
                    self.metrics.replica_retries.inc();
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }
}

/// A shard's slice of one routed batch: the `partial` sub-requests to
/// send plus the batch-local index of the job each one answers.
#[derive(Default)]
struct ShardBatch {
    items: Vec<(Op, Option<u64>)>,
    jobs: Vec<usize>,
}

/// An exchange whose requests are on the wire but whose responses have
/// not been read yet (the scatter/gather split that overlaps shard
/// round trips).
struct Pending {
    replica: usize,
    first_id: i128,
    tried: Vec<bool>,
}

/// Executes one sweep of planned requests by scatter-gather: split each
/// plan by owning shard, fan `partial` sub-requests out (all sends
/// before any read), fail over across replicas, and merge the per-tile
/// partials back in ascending tile order. Each job's own trace id is
/// forwarded with its sub-requests, so shard-side spans land under the
/// originating request's trace.
fn execute_routed<M: TilingMap>(
    core: &RouterCore,
    tiling: &M,
    conns: &mut ConnCache,
    jobs: &[Job],
) -> Vec<Outcome> {
    // --- Split every plan by owning shard. BTreeMaps keep both the
    // per-job shard lists and the fan-out itself in ascending shard
    // order, which the exact merge below relies on.
    let map = &core.topo.map;
    let mut sub: BTreeMap<usize, ShardBatch> = BTreeMap::new();
    let mut touched: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
    for (j, job) in jobs.iter().enumerate() {
        let root = job.root;
        let fwd_trace = root.active().then_some(root.trace);
        let mut by_shard: BTreeMap<usize, Vec<(Vec<usize>, f64)>> = BTreeMap::new();
        for (idx, w) in job.plan.iter() {
            let shard = map.owner(tiling.locate(idx).tile);
            by_shard.entry(shard).or_default().push((idx.to_vec(), w));
        }
        for (shard, terms) in by_shard {
            touched[j].push(shard);
            let batch = sub.entry(shard).or_default();
            batch
                .items
                .push((Op::Query(Query::Partial { terms }), fwd_trace));
            batch.jobs.push(j);
        }
    }
    if !sub.is_empty() {
        core.metrics.fanout_shards.record(sub.len() as u64);
    }

    // --- Scatter: put every shard's sub-requests on the wire before
    // reading any response, so shard round trips overlap.
    let mut pending: BTreeMap<usize, Pending> = BTreeMap::new();
    let mut failures: HashMap<usize, String> = HashMap::new();
    for (&shard, batch) in &sub {
        core.metrics.subrequests.add(batch.items.len() as u64);
        core.metrics.shard_subrequests[shard].add(batch.items.len() as u64);
        let mut tried = vec![false; map.replicas()];
        let mut last_err = String::from("no replicas configured");
        let mut started = None;
        while let Some(replica) = core.pick_replica(shard, &tried) {
            tried[replica] = true;
            match core.start_send(conns, shard, replica, &batch.items) {
                Ok(first_id) => {
                    started = Some(Pending {
                        replica,
                        first_id,
                        tried,
                    });
                    break;
                }
                Err(e) => {
                    core.metrics.replica_retries.inc();
                    last_err = e;
                }
            }
        }
        match started {
            Some(p) => {
                pending.insert(shard, p);
            }
            None => {
                failures.insert(shard, last_err);
            }
        }
    }

    // --- Gather in ascending shard order. A replica that fails at read
    // time falls back to a synchronous exchange against the replicas it
    // has not tried yet; only when all fail is the shard marked down.
    let mut answered: HashMap<(usize, usize), Response> = HashMap::new();
    for (&shard, batch) in &sub {
        let Some(p) = pending.remove(&shard) else {
            continue;
        };
        let responses =
            match core.finish_recv(conns, shard, p.replica, p.first_id, batch.items.len()) {
                Ok(responses) => Ok(responses),
                Err(e) => {
                    core.metrics.replica_retries.inc();
                    let mut tried = p.tried;
                    core.exchange_sync(conns, shard, &batch.items, &mut tried, e)
                }
            };
        match responses {
            Ok(responses) => {
                for (&j, resp) in batch.jobs.iter().zip(responses) {
                    answered.insert((shard, j), resp);
                }
            }
            Err(e) => {
                failures.insert(shard, e);
            }
        }
    }
    if !failures.is_empty() {
        core.metrics.shard_unavailable.add(failures.len() as u64);
    }

    // --- Merge: concatenate each job's per-tile partials in ascending
    // shard order (globally ascending tile order, since shard ranges
    // are contiguous) and fold them left from 0.0 — the same addition
    // tree `execute_plans_tiled` builds on a single store, hence
    // bit-identical for every shard count.
    let mut out: Vec<Outcome> = Vec::with_capacity(jobs.len());
    for (j, shards) in touched.iter().enumerate() {
        let mut value = 0.0f64;
        let mut tiles: Vec<(usize, f64)> = Vec::new();
        let mut error: Option<(String, String)> = None;
        for &shard in shards {
            if let Some(msg) = failures.get(&shard) {
                error = Some((
                    "shard_unavailable".to_string(),
                    format!("shard {shard}: {msg}"),
                ));
                break;
            }
            let resp = answered
                .remove(&(shard, j))
                .expect("every non-failed touched shard answered");
            match resp.result {
                Err((kind, msg)) => {
                    error = Some((kind, format!("shard {shard}: {msg}")));
                    break;
                }
                Ok(_) => match resp.tiles {
                    None => {
                        error = Some((
                            "io".to_string(),
                            format!("shard {shard} answered without per-tile partials"),
                        ));
                        break;
                    }
                    Some(parts) => {
                        for (tile, partial) in parts {
                            value += partial;
                            tiles.push((tile, partial));
                        }
                    }
                },
            }
        }
        out.push(match error {
            Some(e) => Err(e),
            None => Ok((value, tiles)),
        });
    }
    out
}

/// The router's write path: boxes are decomposed **once** at the router
/// into a local [`DeltaBuffer`]; `commit` drains it, scatters the
/// dirty-tile op lists to the owning shards as `apply` sub-requests,
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
    pub(crate) fn new(
        topology: RouterTopology,
        tiling: M,
        levels: Vec<u32>,
        flush_mode: FlushMode,
    ) -> RouterBackend<M> {
        let buffer = DeltaBuffer::for_map(&tiling, flush_mode);
        RouterBackend {
            core: RouterCore::new(topology),
            tiling,
            levels,
            write: Mutex::new(WriteState {
                buffer,
                conns: ConnCache::new(),
            }),
        }
    }

    /// Fans `[apply?, commit]` to every replica of every shard —
    /// scatter first, then gather — and counts acknowledgements. Any
    /// failure aborts with the offending replica's error; the caller
    /// drops all write connections (pipelines may hold unread bytes).
    fn scatter_commit(
        &self,
        conns: &mut ConnCache,
        per_shard: &[Vec<(usize, usize, f64)>],
        fwd_trace: Option<u64>,
    ) -> Result<u64, String> {
        let shards = self.core.topo.map.shards();
        let replicas = self.core.topo.map.replicas();
        let mut items_by_shard: Vec<Vec<(Op, Option<u64>)>> = Vec::with_capacity(shards);
        for ops in per_shard {
            let mut items = Vec::with_capacity(2);
            if !ops.is_empty() {
                items.push((
                    Op::Mutation(Mutation::Apply { ops: ops.clone() }),
                    fwd_trace,
                ));
            }
            items.push((Op::Mutation(Mutation::Commit), fwd_trace));
            items_by_shard.push(items);
        }
        let mut sent: Vec<(usize, usize, i128)> = Vec::with_capacity(shards * replicas);
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

    fn apply(&self, ops: &[(usize, usize, f64)]) -> Result<f64, MutErr> {
        server::check_ops(&self.tiling, ops)?;
        Ok(server::buffer_ops(
            &mut self.write.lock().unwrap().buffer,
            ops,
        ))
    }

    fn commit(&self) -> Result<f64, MutErr> {
        let fwd_trace = {
            let (t, _) = trace::current();
            (t != 0).then_some(t)
        };
        let mut w = self.write.lock().unwrap();
        let w = &mut *w;
        let (entries, _report) = w.buffer.drain_ops();
        let map = &self.core.topo.map;
        let mut per_shard: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); map.shards()];
        for (tile, ops) in entries {
            per_shard[map.owner(tile)]
                .extend(ops.into_iter().map(|(slot, delta)| (tile, slot, delta)));
        }
        let _span = trace::scoped("router.commit_fanout");
        match self.scatter_commit(&mut w.conns, &per_shard, fwd_trace) {
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
