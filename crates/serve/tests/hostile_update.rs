//! One hostile mutation line must cost its sender a typed error and nothing
//! more. An `update` whose `at + dims` wraps past `usize::MAX` used to slip
//! through validation in release builds, then panic the SHIFT-SPLIT
//! decomposition while the server's delta-buffer mutex was held: every
//! later `update` and `commit`, from any client, panicked its connection
//! on the poisoned mutex. CI runs this file in release as well.

use ss_core::tiling::StandardTiling;
use ss_maintain::{FlushMode, SnapshotCoeffStore};
use ss_serve::{Client, QueryServer, ServeConfig};
use ss_storage::{mem_shared_store, IoStats};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const LEVELS: [u32; 2] = [4, 4];

fn tiling() -> StandardTiling {
    StandardTiling::new(&LEVELS, &[2, 2])
}

fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        batch_max: 16,
        max_requests: None,
        slow_ns: None,
    }
}

/// Sends each hostile line on one connection and expects a typed
/// `bad_request` for each; then a second connection's `update` and
/// `commit` must succeed, and the box must be visible.
#[test]
fn a_wrapping_update_is_refused_and_the_writable_server_keeps_committing() {
    let store = mem_shared_store(tiling(), 1 << 10, 2, IoStats::new());
    let store = Arc::new(SnapshotCoeffStore::new(store, None, 0));
    let server = QueryServer::bind_writable(
        "127.0.0.1:0",
        store,
        LEVELS.to_vec(),
        FlushMode::Exact,
        cfg(),
    )
    .unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let max = usize::MAX;
    for line in [
        format!(r#"{{"id":1,"op":"update","at":[{max},0],"dims":[2,1],"data":[1,2]}}"#),
        format!(r#"{{"id":2,"op":"update","at":[0,1],"dims":[1,{max}],"data":[1]}}"#),
    ] {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains(r#""error":"bad_request""#),
            "{line} -> {reply:?}"
        );
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.update(&[3, 5], &[2, 1], &[1.0, 2.0]).unwrap() > 0.0);
    assert_eq!(client.commit().unwrap(), 1.0);
    let sum = client.range_sum(&[0, 0], &[15, 15]).unwrap();
    assert!((sum - 3.0).abs() < 1e-9, "{sum}");
    server.shutdown();
}
