//! Execution is per burst: the requests a client pipelines in one write
//! are executed together, so `k ≤ batch_max` of them are exactly one sweep
//! whatever the timing. `serve.batches` is process-wide, so this file holds
//! exactly one test.

use ss_core::tiling::StandardTiling;
use ss_serve::{Client, Query, QueryServer, ServeConfig};
use ss_storage::{mem_shared_store, IoStats};

#[test]
fn a_pipelined_exchange_is_one_sweep() {
    let store = mem_shared_store(
        StandardTiling::new(&[5; 2], &[2; 2]),
        1 << 10,
        2,
        IoStats::new(),
    );
    store.write(&[0, 0], 3.0);
    let config = ServeConfig {
        workers: 2,
        batch_max: 64,
        max_requests: None,
        slow_ns: None,
    };
    let server = QueryServer::bind("127.0.0.1:0", store, vec![5, 5], config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let exchange: Vec<Query> = (0..32)
        .map(|k| Query::Point {
            pos: vec![k, 31 - k],
        })
        .collect();
    let sweeps = ss_obs::global().counter("serve.batches");
    let before = sweeps.get();
    for _ in 0..50 {
        let answers = client.run(&exchange).unwrap();
        // Only the overall average is non-zero, so every cell reads 3.
        assert!(answers.iter().all(|a| *a == Ok(3.0)));
    }
    assert_eq!(sweeps.get() - before, 50);
    drop(client);
    server.shutdown();
}
