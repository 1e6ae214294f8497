//! One hostile mutation line must cost its sender a typed error and nothing
//! more. An `update` whose `at + dims` wraps past `usize::MAX` used to slip
//! through validation in release builds, then panic the SHIFT-SPLIT
//! decomposition while the server's delta-buffer mutex was held: every
//! later `update` and `commit`, from any client, panicked its connection
//! on the poisoned mutex. A line that never ends costs its sender the
//! connection and nobody else anything. CI runs this file in release as
//! well.

use ss_core::tiling::StandardTiling;
use ss_maintain::{FlushMode, SnapshotCoeffStore};
use ss_serve::server::MAX_LINE_BYTES;
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

/// A line that never ends is cut at `MAX_LINE_BYTES`: its sender gets one
/// typed `too_large` reply and then the end of the stream, and the server
/// goes on answering other connections.
#[test]
fn an_over_long_line_is_too_large_and_ends_only_its_connection() {
    let store = mem_shared_store(tiling(), 1 << 10, 2, IoStats::new());
    let server = QueryServer::bind("127.0.0.1:0", store, LEVELS.to_vec(), cfg()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    // An uncapped server never answers: fail, do not hang.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // One query first: it is answered before the refusal.
    writeln!(writer, r#"{{"id":1,"op":"point","pos":[0,0]}}"#).unwrap();
    // No newline, and more than the server will read of it.
    let long = vec![b'x'; MAX_LINE_BYTES + 4096];
    writer.write_all(&long).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""id":1,"ok":true"#), "{reply:?}");
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""error":"too_large""#), "{reply:?}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "{reply:?}");

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.point(&[3, 5]).unwrap(), 0.0);
    server.shutdown();
}
