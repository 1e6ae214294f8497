//! Concurrent query serving over shared wavelet coefficient stores.
//!
//! The ROADMAP's north star is serving query traffic from a maintained
//! wavelet store, not just maintaining it. This crate is the serving
//! layer: a plain-TCP, line-delimited-JSON query server in the same
//! std-only style as the `ss-obs` metrics server, running standard-form
//! point and range-sum queries against a
//! [`SharedCoeffStore`](ss_storage::SharedCoeffStore), one thread per
//! connection.
//!
//! What makes it more than a socket wrapper is **tile-major execution of
//! whole bursts**: every accepted request is planned into its Lemma 1/2
//! contribution list up front, and the requests a client pipelined
//! together are evaluated in one sweep of
//! [`ss_query::execute_plans_tiled`] — so a tile that several of them
//! need is fetched once, and the buffer pool shares it with every other
//! connection. Answers are bit-identical to serial execution: the
//! evaluation order is fixed by the plans alone, and the wire format
//! round-trips `f64` exactly.
//!
//! Live read/write serving: [`QueryServer::bind_writable`] runs the same
//! protocol over an epoch-versioned
//! [`SnapshotCoeffStore`](ss_maintain::SnapshotCoeffStore), adding
//! `update` (buffer box deltas) and `commit` (group-commit the next
//! epoch) operations. Each sweep pins one snapshot, so queries
//! never see a partially applied epoch, and a commit's effects are
//! visible to every query issued after its response (read-your-writes).
//!
//! * [`proto`] — the wire protocol: requests, typed error responses,
//!   exact float formatting,
//! * [`server`] — [`QueryServer`]: the acceptor, one thread per
//!   connection that parses, plans, executes and replies, the sweep
//!   permits, and budgeted clean shutdown,
//! * [`client`] — [`Client`]: a small blocking, pipelining client used by
//!   the CLI `query` command, the benches and the tests.
//!
//! # Example
//!
//! Serve a transformed 16×16 store on an ephemeral port and query it
//! over TCP:
//!
//! ```
//! use ss_core::tiling::StandardTiling;
//! use ss_serve::{Client, QueryServer, ServeConfig};
//! use ss_storage::{mem_shared_store, IoStats};
//!
//! let store = mem_shared_store(
//!     StandardTiling::new(&[4, 4], &[2, 2]), 1 << 10, 4, IoStats::new());
//! store.write(&[3, 5], 2.0); // one non-zero cell, wavelet-transformed
//! // ... (a real ingest writes the full forward transform)
//!
//! let server = QueryServer::bind(
//!     "127.0.0.1:0", store, vec![4, 4], ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let got = client.point(&[3, 5]).unwrap();
//! assert!(got.is_finite());
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{Mutation, Op, Query};
pub use server::{QueryServer, ServeConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::StandardTiling;
    use ss_storage::{mem_shared_store, wstore::mem_store, IoStats, SharedCoeffStore};
    use std::sync::Arc;

    fn test_data(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 31 + idx[1] * 7) % 23) as f64 / 3.0 - 2.5
        })
    }

    fn shared_store(
        a: &NdArray<f64>,
        n: u32,
    ) -> SharedCoeffStore<StandardTiling, ss_storage::MemBlockStore> {
        let t = ss_core::standard::forward_to(a);
        let shared = mem_shared_store(
            StandardTiling::new(&[n; 2], &[2; 2]),
            1 << 10,
            4,
            IoStats::new(),
        );
        for idx in MultiIndexIter::new(a.shape().dims()) {
            shared.write(&idx, t.get(&idx));
        }
        shared
    }

    /// Unwraps the store `Arc` once the server has let go of it. The
    /// per-connection threads are detached and hold a clone of
    /// the server state (and through it, the store) until the client's
    /// socket EOF wakes them — briefly *after* `shutdown()` returns and
    /// the client is dropped, so the unwrap must wait them out.
    fn unwrap_store<T>(mut store: Arc<T>) -> T {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(store) {
                Ok(inner) => return inner,
                Err(shared) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "server threads never released the store"
                    );
                    store = shared;
                    std::thread::yield_now();
                }
            }
        }
    }

    fn bind(store: SharedCoeffStore<StandardTiling, ss_storage::MemBlockStore>) -> QueryServer {
        QueryServer::bind(
            "127.0.0.1:0",
            store,
            vec![5, 5],
            ServeConfig {
                workers: 3,
                batch_max: 16,
                max_requests: None,
                slow_ns: None,
            },
        )
        .unwrap()
    }

    #[test]
    fn serves_exact_point_and_range_answers() {
        let a = test_data(32);
        let server = bind(shared_store(&a, 5));
        let mut serial = mem_store(
            StandardTiling::new(&[5; 2], &[2; 2]),
            1 << 10,
            IoStats::new(),
        );
        let t = ss_core::standard::forward_to(&a);
        for idx in MultiIndexIter::new(&[32, 32]) {
            serial.write(&idx, t.get(&idx));
        }
        let mut client = Client::connect(server.local_addr()).unwrap();
        // The server evaluates tile-major; the matching serial discipline
        // is the batch path, whose per-query summation order is fixed by
        // the plan alone — so answers must agree bit for bit.
        for (x, y) in [(0, 0), (13, 7), (31, 31), (5, 28)] {
            let got = client.point(&[x, y]).unwrap();
            let want = ss_query::batch_points(&mut serial, &[5, 5], &[vec![x, y]])[0];
            assert_eq!(got.to_bits(), want.to_bits(), "point ({x},{y})");
        }
        let got = client.range_sum(&[2, 3], &[29, 17]).unwrap();
        let want =
            ss_query::batch_range_sums(&mut serial, &[5, 5], &[(vec![2, 3], vec![29, 17])])[0];
        assert_eq!(got.to_bits(), want.to_bits(), "range sum");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_get_their_own_answers() {
        let a = test_data(32);
        let server = bind(shared_store(&a, 5));
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for c in 0..6usize {
                let a = &a;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let queries: Vec<Query> = (0..40)
                        .map(|k| {
                            let x = (c * 11 + k * 13) % 32;
                            let y = (c * 7 + k * 17) % 32;
                            Query::Point { pos: vec![x, y] }
                        })
                        .collect();
                    let answers = client.run(&queries).unwrap();
                    for (q, ans) in queries.iter().zip(answers) {
                        let Query::Point { pos } = q else {
                            unreachable!()
                        };
                        let got = ans.unwrap();
                        assert!(
                            (got - a.get(pos)).abs() < 1e-9,
                            "client {c} pos {pos:?}: {got}"
                        );
                    }
                });
            }
        });
        // Every request is answered exactly once. A connection counts a
        // reply after writing it, so the count may trail the clients.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.answered() < 6 * 40 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(server.shutdown(), 6 * 40);
    }

    #[test]
    fn bad_requests_get_typed_errors_without_killing_the_connection() {
        use std::io::{BufRead, BufReader, Write};
        let a = test_data(32);
        let server = bind(shared_store(&a, 5));
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut ask = |line: &str| -> String {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut out = String::new();
            reader.read_line(&mut out).unwrap();
            out
        };
        assert!(ask("garbage").contains(r#""error":"parse""#));
        assert!(ask(r#"{"op":"flush"}"#).contains(r#""error":"unknown_op""#));
        assert!(ask(r#"{"op":"point","pos":[99,0]}"#).contains(r#""error":"bad_request""#));
        assert!(ask(r#"{"op":"point","pos":[1]}"#).contains(r#""error":"bad_request""#));
        // The connection still answers a valid query afterwards.
        let ok = ask(r#"{"id":5,"op":"point","pos":[3,9]}"#);
        assert!(ok.contains(r#""ok":true"#), "{ok}");
        server.shutdown();
    }

    #[test]
    fn writable_server_round_trips_updates_and_commits() {
        use ss_maintain::SnapshotCoeffStore;
        let a = test_data(32);
        let store = Arc::new(SnapshotCoeffStore::new(shared_store(&a, 5), None, 0));
        let server = QueryServer::bind_writable(
            "127.0.0.1:0",
            Arc::clone(&store),
            vec![5, 5],
            ss_maintain::FlushMode::Exact,
            ServeConfig {
                workers: 3,
                batch_max: 16,
                max_requests: None,
                slow_ns: None,
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let before = client.point(&[4, 5]).unwrap();
        assert!((before - a.get(&[4, 5])).abs() < 1e-9);

        // Buffered but uncommitted: invisible to queries.
        let deltas = client
            .update(&[4, 5], &[2, 2], &[10.0, 0.0, 0.0, -3.0])
            .unwrap();
        assert!(deltas > 0.0);
        assert_eq!(client.point(&[4, 5]).unwrap().to_bits(), before.to_bits());

        // Commit publishes epoch 1; read-your-writes from here on.
        assert_eq!(client.commit().unwrap(), 1.0);
        assert!((client.point(&[4, 5]).unwrap() - (a.get(&[4, 5]) + 10.0)).abs() < 1e-9);
        assert!((client.point(&[5, 6]).unwrap() - (a.get(&[5, 6]) - 3.0)).abs() < 1e-9);
        assert!((client.point(&[4, 6]).unwrap() - a.get(&[4, 6])).abs() < 1e-9);
        // A range sum spanning the box sees the committed mass too.
        let sum_before: f64 = (0..32)
            .flat_map(|x| (0..32).map(move |y| (x, y)))
            .map(|(x, y)| a.get(&[x, y]))
            .sum();
        let got = client.range_sum(&[0, 0], &[31, 31]).unwrap();
        assert!((got - (sum_before + 7.0)).abs() < 1e-6, "{got}");

        // An empty commit is a no-op that re-answers the current epoch.
        assert_eq!(client.commit().unwrap(), 1.0);

        // Four commits of one box each beside a reader: every commit mints
        // one epoch, and every served full-domain sum is the ingested mass
        // plus the mass of the boxes some epoch had committed.
        let data = [1.0, -0.25, 0.5, 0.75]; // mass 2
        let committed = |k: usize| sum_before + 7.0 + k as f64 * 2.0;
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut reader = Client::connect(addr).unwrap();
                for _ in 0..50 {
                    let got = reader.range_sum(&[0, 0], &[31, 31]).unwrap();
                    let seen = (0..=4).any(|k| (got - committed(k)).abs() < 1e-6);
                    assert!(seen, "{got} is no epoch's sum");
                }
            });
            for k in 0..4 {
                client.update(&[6 * k, 20], &[2, 2], &data).unwrap();
                assert_eq!(client.commit().unwrap(), (2 + k) as f64);
            }
        });
        let got = client.range_sum(&[0, 0], &[31, 31]).unwrap();
        assert!((got - committed(4)).abs() < 1e-6, "{got}");
        assert_eq!(store.epoch(), 5);

        // Mutations are validated like queries.
        let err = client.update(&[31, 31], &[2, 2], &[1.0; 4]).unwrap_err();
        assert!(err.to_string().contains("bad_request"), "{err}");
        server.shutdown();
        drop(client);
        let store = unwrap_store(store);
        let (_map, _store) = store.into_parts().unwrap();
    }

    #[test]
    fn traced_requests_record_matched_spans_and_epoch_tagged_commits() {
        use ss_maintain::SnapshotCoeffStore;
        use ss_obs::{trace, TraceEventKind};
        use std::collections::HashMap;

        // The global tracer is shared across tests in this process;
        // ring mode only records, so enabling it never disturbs the
        // other servers' answers, and all assertions below filter by
        // this test's own trace ids.
        trace::tracer().enable_ring();
        let a = test_data(32);
        let store = Arc::new(SnapshotCoeffStore::new(shared_store(&a, 5), None, 0));
        let server = QueryServer::bind_writable(
            "127.0.0.1:0",
            Arc::clone(&store),
            vec![5, 5],
            ss_maintain::FlushMode::Exact,
            ServeConfig {
                workers: 2,
                batch_max: 16,
                max_requests: None,
                slow_ns: None,
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let query_trace = trace::new_trace_id();
        client.set_trace(Some(query_trace));
        let got = client.point(&[3, 9]).unwrap();
        assert!((got - a.get(&[3, 9])).abs() < 1e-9);

        let update_trace = trace::new_trace_id();
        client.set_trace(Some(update_trace));
        client.update(&[4, 5], &[1, 1], &[2.0]).unwrap();
        assert_eq!(client.commit().unwrap(), 1.0);
        server.shutdown();

        let events = trace::tracer().events();
        let of = |t: u64| -> Vec<&trace::TraceEvent> {
            events.iter().filter(|e| e.trace == t).collect()
        };

        // Query trace: a parented span tree request -> plan/exec, with
        // every begun span ended, and its tile reads attributed to it.
        let q = of(query_trace);
        let mut begun: HashMap<u64, &'static str> = HashMap::new();
        let mut ended: HashMap<u64, &'static str> = HashMap::new();
        for e in &q {
            match e.kind {
                TraceEventKind::SpanBegin { name } => {
                    begun.insert(e.span, name);
                }
                TraceEventKind::SpanEnd { name, .. } => {
                    ended.insert(e.span, name);
                }
                _ => {}
            }
        }
        assert_eq!(begun, ended, "every begun span must end, and vice versa");
        let names: Vec<&str> = begun.values().copied().collect();
        for want in ["serve.request", "serve.plan", "serve.exec", "query.execute"] {
            assert!(names.contains(&want), "missing span {want} in {names:?}");
        }
        let (root_span, _) = begun
            .iter()
            .find(|(_, n)| **n == "serve.request")
            .expect("root span");
        let plan = q
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::SpanBegin { name: "serve.plan" }))
            .expect("plan span");
        assert_eq!(plan.parent, *root_span, "plan parents under the request");
        assert!(
            q.iter()
                .any(|e| matches!(e.kind, TraceEventKind::TileFetch { .. })),
            "tile fetches carry the request's trace id"
        );

        // Update trace: update + commit spans, and the pipeline events
        // (WAL-less here, so just the publish) tagged with epoch 1.
        let u = of(update_trace);
        for want in ["serve.update", "serve.commit"] {
            assert!(
                u.iter()
                    .any(|e| matches!(e.kind, TraceEventKind::SpanBegin { name } if name == want)),
                "missing span {want}"
            );
        }
        assert!(
            u.iter()
                .any(|e| matches!(e.kind, TraceEventKind::Commit { epoch: 1, tiles } if tiles > 0)),
            "commit event must carry its epoch"
        );

        drop(client);
        let store = unwrap_store(store);
        let (_map, _store) = store.into_parts().unwrap();
    }

    #[test]
    fn read_only_server_rejects_mutations_with_a_typed_error() {
        let a = test_data(32);
        let server = bind(shared_store(&a, 5));
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.update(&[0, 0], &[1, 1], &[1.0]).unwrap_err();
        assert!(err.to_string().contains("read_only"), "{err}");
        let err = client.commit().unwrap_err();
        assert!(err.to_string().contains("read_only"), "{err}");
        // The connection still serves queries afterwards.
        assert!((client.point(&[3, 9]).unwrap() - a.get(&[3, 9])).abs() < 1e-9);
        server.shutdown();
    }

    #[test]
    fn request_budget_stops_the_server_cleanly() {
        let a = test_data(32);
        let store = shared_store(&a, 5);
        let server = QueryServer::bind(
            "127.0.0.1:0",
            store,
            vec![5, 5],
            ServeConfig {
                workers: 2,
                batch_max: 8,
                max_requests: Some(5),
                slow_ns: None,
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let queries: Vec<Query> = (0..5).map(|k| Query::Point { pos: vec![k, k] }).collect();
        let answers = client.run(&queries).unwrap();
        assert_eq!(answers.len(), 5);
        for (k, ans) in answers.into_iter().enumerate() {
            assert!((ans.unwrap() - a.get(&[k, k])).abs() < 1e-9);
        }
        // The budget is reached: join returns instead of blocking.
        server.join();
    }
}
