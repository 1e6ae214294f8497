//! A client that stops reading stalls its own connection and nobody
//! else's. With `workers: 1`, client A pipelines requests with large
//! replies and never reads one: the server's `write` to A blocks once the
//! socket buffers are full. Client B's `point` must still be answered —
//! possible only if nothing B needs (the one sweep permit) is held across
//! that `write`. Under a watchdog: fail, never hang.

use ss_array::MultiIndexIter;
use ss_core::reconstruct::Contributions;
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_serve::{proto, Client, Query, QueryServer, ServeConfig};
use ss_storage::{mem_shared_store, IoStats};
use std::collections::HashSet;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn a_client_that_never_reads_stalls_nobody_else() {
    let tiling = StandardTiling::new(&[6; 2], &[2; 2]);
    let store = mem_shared_store(tiling.clone(), 1 << 10, 2, IoStats::new());
    // One term per tile, over awkward floats: every reply carries the
    // per-tile partials of all 441 tiles, ~11 KB a line.
    let mut seen = HashSet::new();
    let mut plan = Contributions::with_capacity(2, tiling.num_tiles());
    for idx in MultiIndexIter::new(&[64, 64]) {
        if seen.insert(tiling.locate(&idx).tile) {
            store.write(&idx, 1.0 / (3 + plan.len()) as f64);
            plan.push(&idx, 1.0);
        }
    }
    assert_eq!(plan.len(), tiling.num_tiles());
    let config = ServeConfig {
        workers: 1,
        batch_max: 64,
        max_requests: None,
        slow_ns: None,
    };
    let server = QueryServer::bind("127.0.0.1:0", store, vec![6, 6], config).unwrap();
    let addr = server.local_addr();

    // Client A writes until the server has taken nothing for a second:
    // its connection is then stuck in a `write` of replies A never reads.
    // (Bounded, ~50 MB of replies, far beyond any socket buffer: a server
    // that reads on regardless is not sent requests without end.)
    let stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut line = proto::request_line(1, &Query::Partial { plan });
    line.push('\n');
    let (stuck, is_stuck) = mpsc::channel();
    let writer = {
        let mut stalled = stalled.try_clone().unwrap();
        std::thread::spawn(move || {
            let taken = (0..8192).take_while(|_| stalled.write_all(line.as_bytes()).is_ok());
            stuck.send(taken.count()).unwrap();
        })
    };
    let taken = is_stuck.recv_timeout(Duration::from_secs(120)).unwrap();

    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        done.send(client.point(&[3, 9])).unwrap();
    });
    let answer = watchdog
        .recv_timeout(Duration::from_secs(20))
        .expect("a client that stopped reading starved another client");
    assert!(answer.unwrap().is_finite());
    assert!(
        taken < 8192,
        "the server never blocked on the stalled client"
    );

    // Hanging up fails the server's blocked `write`, so its thread ends.
    stalled.shutdown(Shutdown::Both).unwrap();
    writer.join().unwrap();
    server.shutdown();
}
