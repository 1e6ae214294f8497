//! `QueryServer::shutdown` on an idle server returns: the only thread it
//! joins is the acceptor, which a stop flag and a throwaway connection
//! always reach. A freshly bound server, whose acceptor may not have
//! reached `accept` yet, is the narrowest case there is — so bind and shut
//! down a thousand of them, under a watchdog: fail, never hang.

use ss_core::tiling::StandardTiling;
use ss_serve::{QueryServer, ServeConfig};
use ss_storage::{mem_shared_store, IoStats};
use std::sync::mpsc;
use std::time::Duration;

const ROUNDS: usize = 1000;

#[test]
fn shutting_down_an_idle_server_never_hangs() {
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        for round in 0..ROUNDS {
            let store =
                mem_shared_store(StandardTiling::new(&[3; 2], &[1; 2]), 16, 2, IoStats::new());
            let config = ServeConfig {
                workers: 3,
                batch_max: 8,
                max_requests: None,
                slow_ns: None,
            };
            let server = QueryServer::bind("127.0.0.1:0", store, vec![3, 3], config).unwrap();
            // Signalled before the call: the watchdog names the round that
            // never came back.
            done.send(round).unwrap();
            assert_eq!(server.shutdown(), 0);
        }
        done.send(ROUNDS).unwrap();
    });
    let mut last = 0;
    while last < ROUNDS {
        last = watchdog
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("shutdown of idle server {last} did not return"));
    }
}
