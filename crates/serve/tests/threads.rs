//! A bound server is one acceptor thread plus one thread per open
//! connection — there is no pool behind them. Thread counts are
//! process-wide, so this file holds exactly one test.
#![cfg(target_os = "linux")]

use ss_core::tiling::StandardTiling;
use ss_serve::{Client, QueryServer, ServeConfig};
use ss_storage::{mem_shared_store, IoStats};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_server_runs_one_acceptor_and_one_thread_per_connection() {
    let store = mem_shared_store(StandardTiling::new(&[3; 2], &[1; 2]), 16, 2, IoStats::new());
    let config = ServeConfig {
        workers: 4,
        batch_max: 8,
        max_requests: None,
        slow_ns: None,
    };
    let idle = threads();
    let server = QueryServer::bind("127.0.0.1:0", store, vec![3, 3], config).unwrap();
    assert_eq!(threads(), idle + 1);
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for client in &mut clients {
        // An answer proves the connection's thread is up.
        assert_eq!(client.point(&[1, 2]).unwrap(), 0.0);
    }
    assert_eq!(threads(), idle + 1 + clients.len());
    server.shutdown();
}
