//! `ServeConfig::workers` bounds how many sweeps execute at once, over all
//! connections. Every block read parks inside the store until the test
//! opens the gate, so a sweep can be held mid-execution: with one permit a
//! second connection's sweep stays out of the store while the first is
//! held there, with two it comes in beside it.

use ss_core::reconstruct::Contributions;
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_serve::{Client, Query, QueryServer, ServeConfig};
use ss_storage::{BlockStore, IoStats, MemBlockStore, SharedCoeffStore, StorageError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// `(reads inside the store, gate open)`.
type Gate = Arc<(Mutex<(usize, bool)>, Condvar)>;

struct Gated {
    inner: MemBlockStore,
    gate: Gate,
}

impl BlockStore for Gated {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        let (state, changed) = &*self.gate;
        let mut inside = state.lock().unwrap();
        inside.0 += 1;
        changed.notify_all();
        drop(changed.wait_while(inside, |s| !s.1).unwrap());
        self.inner.try_read_block(id, buf)
    }
    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        self.inner.try_write_block(id, buf)
    }
    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks);
    }
}

/// Whether `n` reads are inside the store within `wait`.
fn inside(gate: &Gate, n: usize, wait: Duration) -> bool {
    let (state, changed) = &**gate;
    let (_state, result) = changed
        .wait_timeout_while(state.lock().unwrap(), wait, |s| s.0 < n)
        .unwrap();
    !result.timed_out()
}

/// Two connections each ask for one coefficient of a cold tile of their
/// own, the first while the gate is shut; returns whether the second
/// one's read entered the store, within `wait`, while the first was still
/// held there.
fn second_sweep_overlaps(workers: usize, wait: Duration) -> bool {
    let tiling = StandardTiling::new(&[4; 2], &[2; 2]);
    let stats = IoStats::new();
    let gate: Gate = Arc::default();
    let blocks = Gated {
        inner: MemBlockStore::new(tiling.block_capacity(), tiling.num_tiles(), stats.clone()),
        gate: Arc::clone(&gate),
    };
    // Coefficients (0, 0) and (0, 4) live in different tiles, and the
    // tiles in different pool shards.
    let tiles = [[0, 0], [0, 4]].map(|idx| tiling.locate(&idx).tile);
    assert_ne!(tiles[0] % 2, tiles[1] % 2);
    let store = SharedCoeffStore::new(tiling, blocks, 16, 2, stats);
    let config = ServeConfig {
        workers,
        batch_max: 8,
        max_requests: None,
        slow_ns: None,
    };
    let server = QueryServer::bind("127.0.0.1:0", store, vec![4, 4], config).unwrap();
    let addr = server.local_addr();
    let ask = move |idx: [usize; 2]| {
        let mut plan = Contributions::with_capacity(2, 1);
        plan.push(&idx, 1.0);
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.run(&[Query::Partial { plan }]).unwrap(), [Ok(0.0)]);
    };
    let overlapped = std::thread::scope(|scope| {
        scope.spawn(move || ask([0, 0]));
        assert!(inside(&gate, 1, Duration::from_secs(20)));
        scope.spawn(move || ask([0, 4]));
        let overlapped = inside(&gate, 2, wait);
        gate.0.lock().unwrap().1 = true;
        gate.1.notify_all();
        overlapped
    });
    server.shutdown();
    overlapped
}

#[test]
fn one_worker_serialises_the_sweeps_of_two_connections() {
    // Staying out cannot be awaited, only waited for: long enough for a
    // loopback request to be read, planned and started.
    assert!(!second_sweep_overlaps(1, Duration::from_millis(500)));
}

#[test]
fn two_workers_execute_two_connections_sweeps_at_once() {
    assert!(second_sweep_overlaps(2, Duration::from_secs(20)));
}
